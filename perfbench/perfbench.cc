// sper_perfbench: the repository benchmark. Generates its inputs from
// --seed, times only calls into public functions, checks the stream
// against a pinned (or freshly computed) reference, and prints every
// metric as a `name value unit` line followed by one JSON result line.
//
//   sper_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                  [--trace-dir DIR] [--print-reference]
//
// Workloads (dataset scale 1, ResolverOptions defaults except method and
// num_threads = 4):
//   dbpedia-pps    Clean-Clean dbpedia, PPS, one in-process caller
//   cddb-pbs       Dirty cddb, PBS, one in-process caller
// The traced run also drains each stream over loopback TCP: net::Server
// -> QoS -> Resolver, one closed-loop client per class.
//
// Every caller issues the same request mix, cycling through the three
// priority classes: interactive 256, batch 8192 and best_effort 2048
// comparisons per request. In-process the classes take turns on one
// caller; over the wire each class is its own client and connection.
//
// --trace 0 (default) measures the end-to-end metrics: it repeats
// set-up + full drain cycles, at least two and as many more as fit in
// --seconds, each followed by the workload's extra set-ups, and reports
// medians over them.
// --trace 1 runs the per-layer passes instead (see RunTraced) and writes
// a Chrome/Perfetto trace and the per-layer metrics into --trace-dir.
//
// Exit codes: 0 correct, 1 a stream or quality value differs from its
// reference (or the program failed), 2 bad flags.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "pinned.h"
#include "progressive/comparison_list.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "serving/qos.h"
#include "stream.h"

namespace {

using namespace sper;
using perfbench::Quality;
using perfbench::StreamFold;

constexpr std::size_t kThreads = 4;

struct Workload {
  std::string_view name;
  std::string_view dataset;
  MethodId method;
  // Extra timed Resolver::Create calls after each full cycle. They add
  // samples to setup_s where a set-up is short (~0.2 s on cddb) and one
  // contended moment sways it; a dbpedia set-up takes ~5 s and is steady
  // over two cycles.
  std::size_t extra_setups;
};

constexpr Workload kWorkloads[] = {
    {"dbpedia-pps", "dbpedia", MethodId::kPps, 0},
    {"cddb-pbs", "cddb", MethodId::kPbs, 4},
};

struct RequestClass {
  Priority priority;
  std::uint64_t size;
  const char* metric;  // latency metric prefix
};

constexpr std::array<RequestClass, kNumPriorities> kClasses = {{
    {Priority::kInteractive, 256, "interactive"},
    {Priority::kBatch, 8192, "batch"},
    {Priority::kBestEffort, 2048, "best_effort"},
}};

std::uint64_t Now() {
  return obs::Stopwatch::Nanos(obs::Stopwatch::TimePoint{},
                               obs::Stopwatch::Now());
}
double Seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Records a span named "layer/call" (e.g. "engine/Resolver::Serve") into
/// the traced run's registry around its lifetime; spans on one thread nest
/// by time under the pass's root span. A null registry makes it a no-op,
/// so untraced passes run the same code with tracing off.
class Span {
 public:
  Span(obs::Registry* trace, const char* name)
      : trace_(trace),
        name_(name),
        start_(trace != nullptr ? obs::Stopwatch::Now()
                                : obs::Stopwatch::TimePoint{}) {}
  ~Span() {
    if (trace_ != nullptr) {
      trace_->RecordSpan(name_, start_, obs::Stopwatch::Now());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::Registry* trace_;
  const char* name_;
  obs::Stopwatch::TimePoint start_;
};

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  std::uint64_t seconds = 30;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
  bool print_reference = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "sper_perfbench: %s\n"
               "usage: sper_perfbench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR] [--print-reference]\n"
               "workloads: dbpedia-pps, cddb-pbs\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t ParseUint(const std::string& flag, const std::string& text,
                        std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + ": '" + text + "' is not a whole number");
  }
  const std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (value < lo || value > hi) {
    Usage(flag + ": " + text + " is out of range [" + std::to_string(lo) +
          ", " + std::to_string(hi) + "]");
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int k = 1; k < argc; ++k) {
    std::string flag = argv[k];
    std::string value;
    bool inline_value = false;
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
      inline_value = true;
    }
    if (flag == "--print-reference") {
      if (inline_value) Usage(flag + " takes no value");
      args.print_reference = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-dir") {
      Usage("unknown flag '" + flag + "'");
    }
    if (!inline_value) {
      if (k + 1 >= argc) Usage(flag + " needs a value");
      value = argv[++k];
    }
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = ParseUint(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      args.seconds = ParseUint(flag, value, 1, 3600);
    } else if (flag == "--trace") {
      args.trace = ParseUint(flag, value, 0, 1) == 1;
    } else {
      if (value.empty()) Usage(flag + " needs a directory");
      args.trace_dir = value;
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

// ---------------------------------------------------------------------------
// Shared plumbing.
// ---------------------------------------------------------------------------

ResolverOptions MakeOptions(const Workload& workload, std::size_t threads) {
  ResolverOptions options;
  options.method = workload.method;
  options.num_threads = threads;
  return options;
}

std::unique_ptr<Resolver> CreateOrDie(const ProfileStore& store,
                                      ResolverOptions options) {
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(store, std::move(options));
  if (!resolver.ok()) {
    std::fprintf(stderr, "Resolver::Create: %s\n",
                 resolver.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(resolver).value();
}

std::unique_ptr<net::Server> StartOrDie(Resolver& resolver,
                                        net::ServerOptions options) {
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(resolver, std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "Server::Start: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(server).value();
}

ResolveRequest MakeRequest(const RequestClass& cls) {
  ResolveRequest request;
  request.budget = cls.size;
  request.max_batch = cls.size;
  request.priority = cls.priority;
  return request;
}

/// Resets the kernel's peak-RSS mark (VmHWM) so the next reading covers
/// only what is resident from this call on.
void ResetPeakRss() {
  malloc_trim(0);  // hand back what earlier cycles freed
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The nearest-rank `q` percentile, lowered until at least 10 samples lie
/// beyond it: p99 from 1000 samples on, lower below that; the median for
/// 10 samples or fewer.
double TailPercentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n <= 10) return Median(std::move(values));
  std::sort(values.begin(), values.end());
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))),
      n - 10);  // 1-based
  return values[rank - 1];
}

// ---------------------------------------------------------------------------
// One end-to-end cycle: set-up, then a full drain of the stream.
// ---------------------------------------------------------------------------

struct CycleOptions {
  obs::Registry* trace = nullptr;  // spans around public calls when set
  obs::Registry* telemetry = nullptr;  // ResolverOptions::telemetry
  // In process only: runs on the drained resolver, outside every timing.
  std::function<void(Resolver&)> after_drain;
};

struct Cycle {
  double create_s = 0.0;  // Resolver::Create
  double setup_s = 0.0;   // Create + Server::Start
  double drain_s = 0.0;
  double ec10_s = 0.0;
  double peak_rss_mb = 0.0;
  std::array<std::vector<double>, kNumPriorities> latency_ms;
  std::vector<std::uint64_t> serve_ns;  // in-process: per Serve call
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  StreamFold fold;
  // Wire only, read before shutdown.
  net::ServerStats server;
  std::array<serving::ClassStats, kNumPriorities> qos{};

  explicit Cycle(std::uint64_t prefix) : fold(prefix) {}
};

/// Folds admitted slices in ticket order as they arrive; each slice is
/// freed as soon as it is folded, so at most a few are ever held.
class TicketFolder {
 public:
  TicketFolder(Cycle& cycle, std::uint64_t ec10_target, std::uint64_t t0)
      : cycle_(cycle), ec10_target_(ec10_target), t0_(t0) {}

  void Add(std::uint64_t ticket, std::vector<Comparison> slice) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(ticket, std::move(slice));
    while (!pending_.empty() && pending_.begin()->first == next_ticket_) {
      cycle_.fold.Fold(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_ticket_;
      if (cycle_.ec10_s == 0.0 && cycle_.fold.count() >= ec10_target_) {
        cycle_.ec10_s = Seconds(Now() - t0_);
      }
    }
  }

 private:
  Cycle& cycle_;
  const std::uint64_t ec10_target_;
  const std::uint64_t t0_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::vector<Comparison>> pending_;
  std::uint64_t next_ticket_ = 0;
};

Cycle RunInProcess(const DatasetBundle& bundle, const Workload& workload,
                   const CycleOptions& options) {
  const std::uint64_t ec10 = perfbench::QualityPrefixLength(bundle.truth);
  Cycle cycle(ec10);
  const Span root(options.trace, "perfbench/cycle");
  ResolverOptions resolver_options = MakeOptions(workload, kThreads);
  if (options.telemetry != nullptr) {
    resolver_options.telemetry = obs::TelemetryScope(options.telemetry);
  }
  ResetPeakRss();
  const std::uint64_t t0 = Now();
  std::unique_ptr<Resolver> resolver;
  {
    Span span(options.trace, "engine/Resolver::Create");
    resolver = CreateOrDie(bundle.store, std::move(resolver_options));
  }
  const std::uint64_t drain_start = Now();
  cycle.create_s = cycle.setup_s = Seconds(drain_start - t0);

  for (std::size_t k = 0;; ++k) {
    const RequestClass& cls = kClasses[k % kClasses.size()];
    const ResolveRequest request = MakeRequest(cls);
    const std::uint64_t start = Now();
    ResolveResult result;
    {
      Span span(options.trace, "engine/Resolver::Serve");
      result = resolver->Serve(request);
    }
    const std::uint64_t ns = Now() - start;
    cycle.serve_ns.push_back(ns);
    cycle.latency_ms[k % kClasses.size()].push_back(static_cast<double>(ns) /
                                                    1e6);
    ++cycle.attempts;
    if (result.outcome != ResolveOutcome::kServed) {
      ++cycle.failures;
      break;
    }
    cycle.fold.Fold(result.comparisons);
    if (cycle.ec10_s == 0.0 && cycle.fold.count() >= ec10) {
      cycle.ec10_s = Seconds(Now() - t0);
    }
    if (result.stream_exhausted || result.comparisons.size() < cls.size) {
      break;
    }
  }
  const std::uint64_t end = Now();
  cycle.drain_s = Seconds(end - drain_start);
  if (cycle.ec10_s == 0.0) cycle.ec10_s = Seconds(end - t0);
  cycle.peak_rss_mb = PeakRssMb();
  if (options.after_drain) options.after_drain(*resolver);
  return cycle;
}

/// One closed-loop client: its class's requests back to back until the
/// stream is exhausted. A shed attempt counts as failed even when its
/// retry succeeds.
void WireClient(net::Client& client, const RequestClass& cls,
                TicketFolder& folder, obs::Registry* trace,
                std::vector<double>& latency_ms,
                std::uint64_t& attempts, std::uint64_t& failures) {
  const ResolveRequest request = MakeRequest(cls);
  for (;;) {
    const std::uint64_t start = Now();
    Result<ResolveResult> reply = [&] {
      Span span(trace, "net/Client::Resolve");
      return client.Resolve(request);
    }();
    latency_ms.push_back(static_cast<double>(Now() - start) / 1e6);
    ++attempts;
    if (!reply.ok()) {  // transport error: the connection is dead
      ++failures;
      std::fprintf(stderr, "%s client: %s\n", cls.metric,
                   reply.status().ToString().c_str());
      return;
    }
    ResolveResult result = std::move(reply).value();
    if (result.outcome == ResolveOutcome::kShed) {
      ++failures;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(result.retry_after_ms));
      continue;
    }
    if (result.outcome != ResolveOutcome::kServed) {
      ++failures;
      std::fprintf(stderr, "%s client: outcome %s\n", cls.metric,
                   std::string(ToString(result.outcome)).c_str());
      return;
    }
    const bool done = result.stream_exhausted ||
                      result.comparisons.size() < cls.size;
    folder.Add(result.ticket, std::move(result.comparisons));
    if (done) return;
  }
}

Cycle RunWire(const DatasetBundle& bundle, const Workload& workload,
              const CycleOptions& options) {
  const std::uint64_t ec10 = perfbench::QualityPrefixLength(bundle.truth);
  Cycle cycle(ec10);
  const Span root(options.trace, "perfbench/cycle");
  ResolverOptions resolver_options = MakeOptions(workload, kThreads);
  if (options.telemetry != nullptr) {
    resolver_options.telemetry = obs::TelemetryScope(options.telemetry);
  }
  ResetPeakRss();
  const std::uint64_t t0 = Now();
  std::unique_ptr<Resolver> resolver;
  {
    Span span(options.trace, "engine/Resolver::Create");
    resolver = CreateOrDie(bundle.store, std::move(resolver_options));
  }
  cycle.create_s = Seconds(Now() - t0);
  std::unique_ptr<net::Server> server;
  {
    Span span(options.trace, "net/Server::Start");
    net::ServerOptions server_options;
    if (options.telemetry != nullptr) {
      server_options.telemetry = obs::TelemetryScope(options.telemetry);
    }
    server = StartOrDie(*resolver, std::move(server_options));
  }
  cycle.setup_s = Seconds(Now() - t0);

  std::vector<net::Client> clients;
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    Result<net::Client> connected =
        net::Client::Connect("127.0.0.1", server->port());
    if (!connected.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   connected.status().ToString().c_str());
      std::exit(1);
    }
    clients.push_back(std::move(connected).value());
  }

  TicketFolder folder(cycle, ec10, t0);
  std::array<std::uint64_t, kNumPriorities> attempts{};
  std::array<std::uint64_t, kNumPriorities> failures{};
  const std::uint64_t drain_start = Now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      threads.emplace_back(WireClient, std::ref(clients[c]),
                           std::cref(kClasses[c]), std::ref(folder),
                           options.trace,
                           std::ref(cycle.latency_ms[c]),
                           std::ref(attempts[c]), std::ref(failures[c]));
    }
    for (std::thread& thread : threads) thread.join();
  }
  const std::uint64_t end = Now();
  cycle.drain_s = Seconds(end - drain_start);
  if (cycle.ec10_s == 0.0) cycle.ec10_s = Seconds(end - t0);
  cycle.peak_rss_mb = PeakRssMb();
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    cycle.attempts += attempts[c];
    cycle.failures += failures[c];
    cycle.qos[c] = server->qos().stats(kClasses[c].priority);
  }
  cycle.server = server->stats();
  for (net::Client& client : clients) client.Close();
  server->Shutdown();
  return cycle;
}

// ---------------------------------------------------------------------------
// Correctness: the reference stream of a (dataset, method, seed).
// ---------------------------------------------------------------------------

struct Reference {
  std::uint64_t digest = 0;
  std::uint64_t count = 0;
  Quality quality;
};

/// Untimed reference: one un-batched Resolver::Next() drain, a different
/// consumer path than the sliced Serve() drains it checks.
Reference ComputeReference(const DatasetBundle& bundle,
                           const Workload& workload) {
  std::unique_ptr<Resolver> resolver =
      CreateOrDie(bundle.store, MakeOptions(workload, kThreads));
  StreamFold fold(perfbench::QualityPrefixLength(bundle.truth));
  std::vector<Comparison> chunk;
  chunk.reserve(4096);
  while (std::optional<Comparison> c = resolver->Next()) {
    chunk.push_back(*c);
    if (chunk.size() == chunk.capacity()) {
      fold.Fold(chunk);
      chunk.clear();
    }
  }
  fold.Fold(chunk);
  return {fold.digest(), fold.count(),
          perfbench::ComputeQuality(fold.prefix(), bundle.truth)};
}

std::optional<Reference> PinnedReference(const Workload& workload,
                                         std::uint64_t seed) {
  for (const perfbench::PinnedStream& pin : perfbench::kPinned) {
    if (pin.dataset == workload.dataset &&
        pin.method == ToString(workload.method) && pin.seed == seed) {
      return Reference{pin.digest, pin.count,
                       {pin.auc1, pin.auc5, pin.auc10, pin.recall_ec10}};
    }
  }
  return std::nullopt;
}

/// The reference stream of the workload's (dataset, method) at `seed`:
/// pinned when pinned.h lists the seed, else `drained` when given, else
/// computed by an untimed drain.
Reference FindReference(const DatasetBundle& bundle, const Workload& workload,
                        std::uint64_t seed,
                        const StreamFold* drained = nullptr) {
  if (const std::optional<Reference> pinned = PinnedReference(workload, seed)) {
    std::printf("reference pinned\n");
    return *pinned;
  }
  if (drained != nullptr) {
    std::printf("reference in-process drain\n");
    return {drained->digest(), drained->count(),
            perfbench::ComputeQuality(drained->prefix(), bundle.truth)};
  }
  std::printf("reference computed\n");
  return ComputeReference(bundle, workload);
}

/// Checks one drained stream against the reference; prints what differs.
bool Matches(const char* pass, const StreamFold& fold,
             const DatasetBundle& bundle, const Reference& reference) {
  const Quality quality = perfbench::ComputeQuality(fold.prefix(),
                                                    bundle.truth);
  const bool ok = fold.digest() == reference.digest &&
                  fold.count() == reference.count &&
                  quality == reference.quality;
  std::printf("check %s digest %016" PRIx64 " count %" PRIu64
              " auc1 %.6f auc5 %.6f auc10 %.6f recall_ec10 %.6f %s\n",
              pass, fold.digest(), fold.count(), quality.auc1, quality.auc5,
              quality.auc10, quality.recall_ec10, ok ? "ok" : "MISMATCH");
  if (!ok) {
    std::printf("  expected digest %016" PRIx64 " count %" PRIu64
                " auc1 %.6f auc5 %.6f auc10 %.6f recall_ec10 %.6f\n",
                reference.digest, reference.count, reference.quality.auc1,
                reference.quality.auc5, reference.quality.auc10,
                reference.quality.recall_ec10);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Metric report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string MetricsJson() const {
    std::string json = "{";
    char value[64];
    for (const Metric& m : metrics) {
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (json.size() > 1) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              m.unit + "\"}";
    }
    return json + "}";
  }

  void Print() const {
    for (const Metric& m : metrics) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                MetricsJson().c_str());
  }
};

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

/// Full cycles per run at least. A dbpedia cycle takes 15-20 s, so a
/// dbpedia run makes two in --seconds 30; a cddb cycle and its extra
/// set-ups take 5-7 s, so a cddb run makes four to six.
constexpr std::size_t kMinCycles = 2;

void RunEndToEnd(const DatasetBundle& bundle, const Workload& workload,
                 const Args& args, Report& report) {
  // Another cycle (with its extra set-ups) starts only if one as long as
  // the last still ends within --seconds, so a run lasts about --seconds.
  const std::uint64_t budget_ns = args.seconds * 1'000'000'000ull;
  const std::uint64_t start = Now();
  std::vector<Cycle> cycles;
  std::vector<double> setup;
  std::uint64_t last_ns = 0;
  while (cycles.size() < kMinCycles ||
         Now() - start + last_ns <= budget_ns) {
    const std::uint64_t cycle_start = Now();
    cycles.push_back(RunInProcess(bundle, workload, {}));
    setup.push_back(cycles.back().setup_s);
    for (std::size_t k = 0; k < workload.extra_setups; ++k) {
      const std::uint64_t t0 = Now();
      const std::unique_ptr<Resolver> resolver =
          CreateOrDie(bundle.store, MakeOptions(workload, kThreads));
      setup.push_back(Seconds(Now() - t0));
    }
    last_ns = Now() - cycle_start;
  }

  const Reference reference = FindReference(bundle, workload, args.seed);
  std::vector<double> drain, rss;
  std::array<std::vector<double>, kNumPriorities> p50;
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    const Cycle& cycle = cycles[c];
    const std::string pass = "cycle" + std::to_string(c);
    report.correct &= Matches(pass.c_str(), cycle.fold, bundle, reference);
    std::printf("%s setup %.3f s drain %.3f s ec10 %.3f s rss %.1f MB "
                "p99 %.3f/%.3f/%.3f ms\n",
                pass.c_str(), cycle.setup_s, cycle.drain_s, cycle.ec10_s,
                cycle.peak_rss_mb, TailPercentile(cycle.latency_ms[0], 0.99),
                TailPercentile(cycle.latency_ms[1], 0.99),
                TailPercentile(cycle.latency_ms[2], 0.99));
    report.attempted += cycle.attempts;
    report.failed += cycle.failures;
    drain.push_back(cycle.drain_s);
    rss.push_back(cycle.peak_rss_mb);
    for (std::size_t p = 0; p < kNumPriorities; ++p) {
      p50[p].push_back(Median(cycle.latency_ms[p]));
    }
  }
  std::printf("cycles %zu set-ups %zu requests %" PRIu64 "\n",
              cycles.size(), setup.size(), report.attempted);
  report.Add("setup_s", Median(setup), "s");
  report.Add("drain_s", Median(drain), "s");
  report.Add("peak_rss_mb", Median(rss), "MB");
  report.Add("served_share",
             static_cast<double>(report.attempted - report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, report.attempted)),
             "ratio");
  // Each cycle's median latency per class, then the median over cycles.
  // Tail percentiles are left to the traced run: over loopback they track
  // the host's thread wake-up delays, which swing too much to bound.
  for (std::size_t p = 0; p < kNumPriorities; ++p) {
    report.Add(std::string(kClasses[p].metric) + "_p50_ms", Median(p50[p]),
               "ms");
  }
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.
// ---------------------------------------------------------------------------

struct ComposeResult {
  StreamFold fold;
  StreamFold wire_fold;  // the same slices after encode + decode
  double token_blocking_s = 0.0;
  double purging_s = 0.0;
  double filtering_s = 0.0;
  double build_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t cardinality = 0;
  std::vector<double> refill_us;
  double refill_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t slices = 0;

  explicit ComposeResult(std::uint64_t prefix)
      : fold(prefix), wire_fold(prefix) {}
};

/// Runs the layers the resolver composes, one public call at a time:
/// TokenBlocking -> BlockPurging -> BlockFiltering -> the method's
/// constructor -> ProduceBatch until exhausted. The stream is cut into the
/// callers' slice sizes, and each slice goes through the wire codec
/// (EncodeResolveResultFrame, DecodeResolveResult). Both the composed and
/// the decoded stream must reproduce the end-to-end digest.
ComposeResult Compose(const DatasetBundle& bundle, const Workload& workload,
                      obs::Registry& trace) {
  ComposeResult out(perfbench::QualityPrefixLength(bundle.truth));
  const ResolverOptions options = MakeOptions(workload, kThreads);
  const TokenWorkflowOptions& workflow = options.workflow;
  const Span root(&trace, "perfbench/compose");
  // Times one public call and records it as a span, from one clock read
  // on either side.
  const auto timed = [&](const char* name, double& seconds, auto&& call) {
    const obs::Stopwatch::TimePoint start = obs::Stopwatch::Now();
    call();
    const obs::Stopwatch::TimePoint end = obs::Stopwatch::Now();
    trace.RecordSpan(name, start, end);
    const double s = obs::Stopwatch::Seconds(start, end);
    seconds += s;
    return s;
  };

  std::optional<BlockCollection> token_blocks;
  timed("blocking/TokenBlocking", out.token_blocking_s, [&] {
    TokenBlockingOptions token_blocking = workflow.token_blocking;
    token_blocking.num_threads = kThreads;
    token_blocks.emplace(TokenBlocking(bundle.store, token_blocking));
  });
  BlockCollection blocks = std::move(*token_blocks);
  if (workflow.enable_purging) {
    timed("blocking/BlockPurging", out.purging_s, [&] {
      BlockPurgingOptions purging = workflow.purging;
      purging.num_threads = kThreads;
      blocks = BlockPurging(blocks, bundle.store.size(), purging);
    });
  }
  if (workflow.enable_filtering) {
    timed("blocking/BlockFiltering", out.filtering_s, [&] {
      BlockFilteringOptions filtering = workflow.filtering;
      filtering.num_threads = kThreads;
      blocks = BlockFiltering(blocks, filtering);
    });
  }
  out.blocks = blocks.size();
  out.cardinality = blocks.AggregateCardinality();

  std::unique_ptr<BatchSource> source;
  if (workload.method == MethodId::kPps) {
    timed("progressive/PpsEmitter::PpsEmitter", out.build_s, [&] {
      PpsOptions pps;
      pps.scheme = options.scheme;
      pps.kmax = options.pps_kmax;
      pps.num_threads = kThreads;
      source = std::make_unique<PpsEmitter>(bundle.store, std::move(blocks),
                                            pps);
    });
  } else {
    timed("progressive/PbsEmitter::PbsEmitter", out.build_s, [&] {
      PbsOptions pbs;
      pbs.scheme = options.scheme;
      pbs.num_threads = kThreads;
      source = std::make_unique<PbsEmitter>(bundle.store, blocks, pbs);
    });
  }

  std::size_t next_class = 0;
  std::vector<Comparison> slice;
  const auto ship = [&] {  // one served slice through the wire codec
    ResolveResult result;
    result.ticket = out.slices++;
    result.comparisons = std::move(slice);
    slice = {};
    std::string frame;
    timed("net/EncodeResolveResultFrame", out.encode_s,
          [&] { frame = net::EncodeResolveResultFrame(result); });
    out.frame_bytes += frame.size();
    std::optional<Result<ResolveResult>> decoded;
    timed("net/DecodeResolveResult", out.decode_s, [&] {
      decoded.emplace(
          net::DecodeResolveResult(std::string_view(frame).substr(4)));
    });
    if (decoded->ok()) out.wire_fold.Fold(decoded->value().comparisons);
    next_class = (next_class + 1) % kClasses.size();
  };
  ComparisonList batch;
  for (;;) {
    bool more = false;
    const double seconds =
        timed("progressive/BatchSource::ProduceBatch", out.refill_s,
              [&] { more = source->ProduceBatch(batch); });
    if (!more) break;
    out.refill_us.push_back(seconds * 1e6);
    while (!batch.Empty()) {
      slice.push_back(batch.PopFirst());
      if (slice.size() == kClasses[next_class].size) {
        out.fold.Fold(slice);
        ship();
      }
    }
  }
  out.fold.Fold(slice);
  ship();
  return out;
}

/// Per-call cost of QosAdmissionController::Resolve minus Resolver::Serve,
/// microseconds, on zero-budget requests: both admit and return an empty
/// slice, so the difference is the serving layer's admission work alone.
/// Interleaved rounds; the median round difference is reported.
double ResolveOverheadUs(Resolver& resolver,
                         serving::QosAdmissionController& qos) {
  constexpr int kRounds = 21;
  constexpr int kCalls = 1000;
  ResolveRequest request;  // budget 0
  std::vector<double> diffs;
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t start = Now();
    for (int k = 0; k < kCalls; ++k) (void)resolver.Serve(request);
    const std::uint64_t plain = Now() - start;
    start = Now();
    for (int k = 0; k < kCalls; ++k) (void)qos.Resolve(request);
    const std::uint64_t gated = Now() - start;
    diffs.push_back((static_cast<double>(gated) - static_cast<double>(plain)) /
                    kCalls / 1e3);
  }
  return Median(diffs);
}

void RunTraced(const DatasetBundle& bundle, const Workload& workload,
               const Args& args, Report& report) {
  obs::Registry trace;
  const std::string name(workload.name);

  // The stream is drained five ways; every drain must reproduce it. Over
  // the wire first, then in process with telemetry attached, then the
  // workload's own in-process cycle untraced and traced, back to back, and
  // last the layers composed call by call. The in-process 4-thread
  // resolver then serves the admission-overhead comparison. A one-thread
  // set-up (no drain, which would add a sixth full pass to a run that
  // must stay well inside its time limit) gives the set-up speed-up.
  double resolve_overhead_us = 0.0;
  const auto admission = [&](Resolver& resolver) {
    serving::QosAdmissionController qos(resolver, {});
    resolve_overhead_us = ResolveOverheadUs(resolver, qos);
  };
  const Cycle wire = RunWire(bundle, workload, {});
  const std::uint64_t serial_start = Now();
  CreateOrDie(bundle.store, MakeOptions(workload, 1));
  const double serial_create_s = Seconds(Now() - serial_start);
  obs::Registry registry;
  const Cycle observed =
      RunInProcess(bundle, workload, {.telemetry = &registry});
  const Cycle local =
      RunInProcess(bundle, workload, {.after_drain = admission});
  const Cycle traced = RunInProcess(bundle, workload, {.trace = &trace});
  const ComposeResult composed = Compose(bundle, workload, trace);

  // The five drains take different paths and check each other, so an
  // unpinned seed needs no extra reference drain here.
  const Reference reference =
      FindReference(bundle, workload, args.seed, &local.fold);
  const std::pair<const char*, const StreamFold*> streams[] = {
      {"wire", &wire.fold},         {"in-process", &local.fold},
      {"telemetry", &observed.fold}, {"traced", &traced.fold},
      {"composed", &composed.fold},  {"wire-codec", &composed.wire_fold}};
  for (const auto& [pass, fold] : streams) {
    report.correct &= Matches(pass, *fold, bundle, reference);
  }
  for (const Cycle* cycle : {&wire, &observed, &local, &traced}) {
    report.attempted += cycle->attempts;
    report.failed += cycle->failures;
  }

  const double count = static_cast<double>(reference.count);
  const auto sum_s = [](const std::vector<std::uint64_t>& ns) {
    double total = 0.0;
    for (std::uint64_t v : ns) total += Seconds(v);
    return total;
  };
  report.Add("blocking.token_blocking_s", composed.token_blocking_s, "s");
  report.Add("blocking.purging_s", composed.purging_s, "s");
  report.Add("blocking.filtering_s", composed.filtering_s, "s");
  report.Add("blocking.blocks", static_cast<double>(composed.blocks), "count");
  report.Add("blocking.cardinality", static_cast<double>(composed.cardinality),
             "count");
  report.Add("progressive.build_s", composed.build_s, "s");
  report.Add("progressive.refill_s", composed.refill_s, "s");
  report.Add("progressive.refills",
             static_cast<double>(composed.refill_us.size()), "count");
  report.Add("progressive.cmp_per_refill",
             count / static_cast<double>(
                         std::max<std::size_t>(1, composed.refill_us.size())),
             "count");
  report.Add("progressive.refill_p99_us",
             TailPercentile(composed.refill_us, 0.99), "us");
  const Quality quality =
      perfbench::ComputeQuality(local.fold.prefix(), bundle.truth);
  report.Add("progressive.auc1", quality.auc1, "ratio");
  report.Add("progressive.auc5", quality.auc5, "ratio");
  report.Add("progressive.auc10", quality.auc10, "ratio");
  report.Add("progressive.recall_ec10", quality.recall_ec10, "ratio");
  const double serve_s = sum_s(local.serve_ns);
  report.Add("engine.serve_s", serve_s, "s");
  report.Add("engine.serve_calls", static_cast<double>(local.serve_ns.size()),
             "count");
  report.Add("engine.time_to_ec10_s", local.ec10_s, "s");
  std::uint64_t admitted = 0, sheds = 0, evictions = 0;
  for (const serving::ClassStats& s : wire.qos) {
    admitted += s.admitted;
    sheds += s.sheds;
    evictions += s.evictions;
  }
  report.Add("serving.resolve_overhead_us", resolve_overhead_us, "us");
  report.Add("serving.admitted", static_cast<double>(admitted), "count");
  report.Add("serving.sheds", static_cast<double>(sheds), "count");
  report.Add("serving.evictions", static_cast<double>(evictions), "count");
  report.Add("net.encode_ns_per_cmp", composed.encode_s * 1e9 / count, "ns");
  report.Add("net.decode_ns_per_cmp", composed.decode_s * 1e9 / count, "ns");
  report.Add("net.bytes_per_cmp",
             static_cast<double>(wire.server.bytes_in + wire.server.bytes_out) /
                 count,
             "B");
  report.Add("net.errors",
             static_cast<double>(wire.server.read_errors +
                                 wire.server.write_errors +
                                 wire.server.protocol_errors),
             "count");
  report.Add("net.loopback_ratio", wire.drain_s / local.drain_s, "ratio");
  for (std::size_t p = 0; p < kNumPriorities; ++p) {
    report.Add("request." + std::string(kClasses[p].metric) + "_p99_ms",
               TailPercentile(wire.latency_ms[p], 0.99), "ms");
  }
  report.Add("parallel.setup_speedup", serial_create_s / local.create_s,
             "ratio");
  report.Add("obs.overhead_ratio", observed.drain_s / local.drain_s, "ratio");
  report.Add("trace.overhead_ratio",
             (traced.setup_s + traced.drain_s) /
                 (local.setup_s + local.drain_s),
             "ratio");

  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string stem = args.trace_dir + "/" + name + "-seed" +
                           std::to_string(args.seed);
  bool summary_ok = false;
  if (std::FILE* f = std::fopen((stem + ".summary.json").c_str(), "w")) {
    summary_ok = std::fprintf(f, "%s\n", report.MetricsJson().c_str()) > 0;
    summary_ok = std::fclose(f) == 0 && summary_ok;
  }
  if (!trace.WriteTraceJson(stem + ".trace.json") || !summary_ok) {
    std::fprintf(stderr, "cannot write the trace under %s\n",
                 args.trace_dir.c_str());
    report.correct = false;
  } else {
    std::printf("trace %s.trace.json summary %s.summary.json\n", stem.c_str(),
                stem.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload '" + args.workload + "'");

  Result<DatasetBundle> generated =
      GenerateDataset(workload->dataset, {.seed = args.seed, .scale = 1.0});
  if (!generated.ok()) {
    std::fprintf(stderr, "GenerateDataset: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const DatasetBundle& bundle = generated.value();

  if (args.print_reference) {
    const Reference r = ComputeReference(bundle, *workload);
    std::printf("    {\"%s\", \"%s\", %" PRIu64 ", 0x%016" PRIx64 "ull, %" PRIu64
                ", %.17g, %.17g, %.17g, %.17g},\n",
                std::string(workload->dataset).c_str(),
                std::string(ToString(workload->method)).c_str(), args.seed,
                r.digest, r.count, r.quality.auc1, r.quality.auc5,
                r.quality.auc10, r.quality.recall_ec10);
    return 0;
  }

  std::printf("workload %s seed %" PRIu64 " profiles %zu matches %zu\n",
              args.workload.c_str(), args.seed, bundle.store.size(),
              bundle.truth.num_matches());
  Report report;
  if (args.trace) {
    RunTraced(bundle, *workload, args, report);
  } else {
    RunEndToEnd(bundle, *workload, args, report);
  }
  report.Print();
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
