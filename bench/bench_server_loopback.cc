// Over-the-wire serving cost: the same progressive stream drained
// in-process (un-batched resolver drain) and over a loopback TCP
// connection through net::Server (QoS admission + wire framing).
//
// The loopback path runs 3 concurrent clients, one per priority class
// (kInteractive / kBatch / kBestEffort), each issuing fixed-size
// requests until stream exhaustion. Their slices, re-sorted by resolver
// ticket, must fold to the same FNV-1a digest as the in-process drain —
// "match" in the table is the serving layer's bit-identity guarantee
// holding across sockets, framing and concurrent admission. The bench
// exits 1 on any digest mismatch.
//
//   bench_server_loopback [--scale=S] [--dataset=NAME] [--method=M]
//                         [--batch=B] [--json=PATH]
//
// --json emits one record per path with schema bench/BENCH.md;
// server_loopback records carry per-class latency extras
// (<class>_p50_ms / <class>_p99_ms, request send -> response decoded)
// and the shared comparison/request counts.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/clock.h"

namespace {

using namespace sper;
using sper::bench::DrainResult;

std::uint64_t NowNs() { return obs::MonotonicClock::Default()->NowNanos(); }

/// Nearest-rank percentile (q in [0, 1]).
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

struct LoopbackArgs {
  double scale = 1.0;
  std::string dataset = "restaurant";
  std::string method = "pps";
  std::uint64_t batch = 2048;
  std::string json_path;
};

LoopbackArgs ParseLoopbackArgs(int argc, char** argv) {
  LoopbackArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      args.scale = std::strtod(argv[i] + 8, nullptr);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      args.dataset = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--method=", 9) == 0) {
      args.method = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      args.batch = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      args.json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
                   "[--batch=B] [--json=PATH]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// One loopback client's haul: its slices keyed by resolver ticket and
/// its per-request latencies (send -> response decoded), milliseconds.
struct ClientHaul {
  std::map<std::uint64_t, std::vector<Comparison>> slices;
  std::vector<double> latencies_ms;
  bool ok = true;
};

void DrainClient(std::uint16_t port, std::uint64_t batch, Priority priority,
                 ClientHaul* haul) {
  Result<net::Client> connected = net::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 connected.status().ToString().c_str());
    haul->ok = false;
    return;
  }
  net::Client client = std::move(connected).value();
  for (;;) {
    ResolveRequest request;
    request.budget = batch;
    request.max_batch = batch;
    request.priority = priority;
    const std::uint64_t start = NowNs();
    Result<ResolveResult> attempt = client.ResolveWithRetry(request);
    if (!attempt.ok() || !attempt.value().status.ok()) {
      std::fprintf(stderr, "resolve: %s\n",
                   (attempt.ok() ? attempt.value().status : attempt.status())
                       .ToString()
                       .c_str());
      haul->ok = false;
      return;
    }
    haul->latencies_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    const ResolveResult& slice = attempt.value();
    haul->slices[slice.ticket] = slice.comparisons;
    if (slice.stream_exhausted || slice.comparisons.size() < batch) return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const LoopbackArgs args = ParseLoopbackArgs(argc, argv);
  const std::optional<MethodId> method = ParseMethodId(args.method);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", args.method.c_str());
    return 2;
  }

  DatagenOptions gen;
  gen.scale = args.scale;
  Result<DatasetBundle> dataset = GenerateDataset(args.dataset, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;

  std::printf(
      "dataset %s: %zu profiles (scale %.2f), method %s, batch %llu, "
      "3 loopback clients (interactive + batch + best_effort)\n",
      dataset.value().name.c_str(), store.size(), args.scale,
      std::string(ToString(*method)).c_str(),
      static_cast<unsigned long long>(args.batch));

  TextTable table({"path", "comparisons", "requests", "wall (ms)",
                   "digest"});
  std::vector<sper::bench::JsonRecord> json;

  ResolverOptions options;
  options.method = *method;

  // In-process reference: one un-batched drain.
  DrainResult inproc;
  {
    std::unique_ptr<Resolver> resolver =
        sper::bench::CreateResolverOrDie(store, options);
    const std::uint64_t start = NowNs();
    for (;;) {
      ResolveRequest request;
      request.budget = 1u << 20;
      request.max_batch = 1u << 20;
      ResolveResult slice = resolver->Serve(request);
      ++inproc.requests;
      for (const Comparison& c : slice.comparisons) inproc.Fold(c);
      if (slice.stream_exhausted || slice.comparisons.empty()) break;
    }
    inproc.wall_ms = static_cast<double>(NowNs() - start) / 1e6;
  }
  table.AddRow({"inproc_drain", std::to_string(inproc.emitted),
                std::to_string(inproc.requests),
                FormatDouble(inproc.wall_ms, 2), "baseline"});
  sper::bench::JsonRecord inproc_record;
  inproc_record.dataset = dataset.value().name;
  inproc_record.scale = args.scale;
  inproc_record.path = "inproc_drain";
  inproc_record.wall_ms = inproc.wall_ms;
  inproc_record.extras.emplace_back("comparisons",
                                    static_cast<double>(inproc.emitted));
  json.push_back(std::move(inproc_record));

  // Loopback: a fresh resolver behind net::Server, drained by three
  // concurrent clients, one per priority class.
  std::unique_ptr<Resolver> resolver =
      sper::bench::CreateResolverOrDie(store, options);
  net::ServerOptions server_options;
  Result<std::unique_ptr<net::Server>> started =
      net::Server::Start(*resolver, std::move(server_options));
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<net::Server> server = std::move(started).value();

  const std::array<Priority, 3> classes = {
      Priority::kInteractive, Priority::kBatch, Priority::kBestEffort};
  std::array<ClientHaul, 3> hauls;
  const std::uint64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    threads.reserve(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
      threads.emplace_back(DrainClient, server->port(), args.batch,
                           classes[c], &hauls[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_ms = static_cast<double>(NowNs() - start) / 1e6;

  // Merge by ticket; tickets are dense, so ordered-map iteration is
  // exactly admission order.
  std::map<std::uint64_t, std::vector<Comparison>> merged;
  std::uint64_t requests = 0;
  bool clients_ok = true;
  for (const ClientHaul& haul : hauls) {
    clients_ok = clients_ok && haul.ok;
    requests += haul.latencies_ms.size();
    for (const auto& [ticket, slice] : haul.slices) {
      merged[ticket] = slice;
    }
  }
  DrainResult loopback;
  for (const auto& [ticket, slice] : merged) {
    for (const Comparison& c : slice) loopback.Fold(c);
  }
  loopback.requests = requests;
  loopback.wall_ms = wall_ms;

  const bool match = clients_ok && loopback.SameStream(inproc);
  table.AddRow({"server_loopback", std::to_string(loopback.emitted),
                std::to_string(loopback.requests), FormatDouble(wall_ms, 2),
                match ? "match" : "MISMATCH"});

  sper::bench::JsonRecord record;
  record.dataset = dataset.value().name;
  record.scale = args.scale;
  record.batch_size = args.batch;
  record.path = "server_loopback";
  record.wall_ms = wall_ms;
  record.speedup = loopback.wall_ms > 0.0 && inproc.wall_ms > 0.0
                       ? inproc.wall_ms / loopback.wall_ms
                       : 1.0;
  record.extras.emplace_back("comparisons",
                             static_cast<double>(loopback.emitted));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::string cls(ToString(classes[c]));
    record.extras.emplace_back(cls + "_p50_ms",
                               Percentile(hauls[c].latencies_ms, 0.50));
    record.extras.emplace_back(cls + "_p99_ms",
                               Percentile(hauls[c].latencies_ms, 0.99));
  }
  json.push_back(std::move(record));

  server->Shutdown();

  table.Print();
  std::printf(
      "\n\"match\" = the 3 concurrent clients' slices, re-sorted by "
      "resolver ticket,\nfold to the same FNV-1a digest as one "
      "in-process un-batched drain: the\nbit-identity guarantee held "
      "across sockets, framing and concurrent admission.\nLatency "
      "extras in the JSON are request-send to response-decoded per "
      "class.\n");

  if (!args.json_path.empty() &&
      !sper::bench::WriteJsonRecords(args.json_path, json)) {
    return 1;
  }
  if (!match) {
    std::fprintf(stderr,
                 "FAIL: an over-the-wire stream diverged from the "
                 "in-process drain\n");
    return 1;
  }
  return 0;
}
