// Emission-phase throughput bench: the pay-as-you-go part of progressive
// ER the paper actually measures recall against (Alg. 6) — how fast can
// the engine *emit* once initialization is done?
//
// One drain per thread count. PBS/PPS refills are pure functions of
// their cursor, so the engine runs them on `threads` workers through the
// ordered refill map (src/parallel/ordered_map.h); the consumer pops
// finished windows in cursor order. The first --threads value is the
// reference ("emit" row, speedup 1.00x); the other rows report its wall
// time over theirs.
//
// Each configuration also runs a telemetry-overhead drain ("emit_obs"
// rows): the same drain with a live obs::Registry attached, reporting the
// on/off wall-clock ratio as an "overhead" extra plus the refill map's
// health read off the registry (ready-window quantiles, stall/wait
// counts). The on and off repeats are interleaved, alternating which
// runs first, so run order does not bias the ratio.
//
// Every row must emit the *bit-identical* comparison stream (same pairs,
// same weights, same order); the bench folds every emission into an
// FNV-1a digest and fails (exit 1) on any divergence.
//
//   bench_emission_throughput [--scale=S] [--dataset=NAME] [--method=M]
//                             [--repeat=R] [--threads=T1,T2,...]
//                             [--budget=N] [--json=PATH]
//
// --json emits {dataset, scale, threads, path, wall_ms, speedup}
// records (schema: bench/BENCH.md). Speedup needs spare physical cores;
// on a 1-core machine it stays near 1.0x while the digests still pin
// correctness.
//
// The timer covers the drain only — workers start on the first windows
// during engine construction, before the timer. With the default
// --budget=0 (drain dry) that head start is a few windows per worker,
// noise against millions of emissions; a small --budget makes the
// multi-thread numbers mostly prefetched-for-free.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace {

using namespace sper;

double Millis(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

using sper::bench::DrainResult;

/// Builds the resolver, then times the emission drain only — initialization is
/// bench_parallel_scaling's job. A non-null `registry` attaches a
/// telemetry scope (the "_obs" paths); the drained stream must stay
/// bit-identical either way.
DrainResult RunOnce(const ProfileStore& store, MethodId method,
                    std::size_t threads, std::uint64_t budget,
                    obs::Registry* registry = nullptr) {
  ResolverOptions options;
  options.method = method;
  options.num_threads = threads;
  options.budget = budget;
  if (registry != nullptr) {
    options.telemetry = obs::TelemetryScope(registry);
  }
  std::unique_ptr<Resolver> engine =
      sper::bench::CreateResolverOrDie(store, options);

  DrainResult result;
  const auto start = std::chrono::steady_clock::now();
  while (std::optional<Comparison> c = engine->Next()) {
    result.Fold(*c);
  }
  result.wall_ms = Millis(start);
  return result;
}

/// The refill-map observations of one instrumented run ("pipeline.*"
/// metrics; absent for the sort-based methods, which read as zero).
void AppendRefillExtras(const obs::Registry& registry,
                        sper::bench::JsonRecord& record) {
  obs::HistogramSnapshot snap;
  if (const obs::Histogram* h =
          registry.FindHistogram("pipeline.ring_occupancy")) {
    snap = h->Snapshot();
  }
  std::uint64_t stalls = 0;
  if (const obs::Counter* c =
          registry.FindCounter("pipeline.producer_stalls")) {
    stalls = c->value();
  }
  std::uint64_t waits = 0;
  if (const obs::Counter* c = registry.FindCounter("pipeline.consumer_waits")) {
    waits = c->value();
  }
  record.extras.emplace_back("ring_occupancy_p50",
                             static_cast<double>(snap.p50));
  record.extras.emplace_back("ring_occupancy_p99",
                             static_cast<double>(snap.p99));
  record.extras.emplace_back("producer_stalls", static_cast<double>(stalls));
  record.extras.emplace_back("consumer_waits", static_cast<double>(waits));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 3;
  std::string dataset_name = "dbpedia";
  std::string method_name = "pps";
  std::string json_path;
  std::vector<std::size_t> thread_counts = {1, 4};
  std::uint64_t budget = 0;  // 0 = drain the method dry
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      dataset_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--method=", 9) == 0) {
      method_name = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = sper::bench::ParseSizeList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      budget = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
          "[--repeat=R] [--threads=T1,T2,...] [--budget=N] "
          "[--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }
  if (thread_counts.empty() ||
      std::find(thread_counts.begin(), thread_counts.end(), 0u) !=
          thread_counts.end()) {
    std::fprintf(stderr, "--threads needs counts >= 1\n");
    return 2;
  }

  const std::optional<MethodId> method = ParseMethodId(method_name);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", method_name.c_str());
    return 2;
  }
  DatagenOptions gen;
  gen.scale = scale;
  Result<DatasetBundle> dataset = GenerateDataset(dataset_name, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;
  std::printf("dataset %s: %zu profiles (scale %.2f, %s), method %s, "
              "budget %llu, hardware threads %u\n",
              dataset.value().name.c_str(), store.size(), scale,
              ToString(store.er_type()),
              std::string(ToString(*method)).c_str(),
              static_cast<unsigned long long>(budget),
              std::thread::hardware_concurrency());

  // Best-of-`repeat` drains with telemetry off and on, interleaved:
  // repeat r runs off-then-on when r is even and on-then-off when odd, so
  // neither side always inherits the other's warm allocator and caches
  // (--repeat=1 leaves the off-then-on order). The kept registry belongs
  // to the best observed run.
  struct BestPair {
    DrainResult plain;
    DrainResult observed;
    std::unique_ptr<obs::Registry> registry;
  };
  const auto best_pair = [&](std::size_t threads) {
    BestPair best;
    for (int r = 0; r < repeat; ++r) {
      for (int k = 0; k < 2; ++k) {
        const bool observed = (k == 1) == (r % 2 == 0);
        auto run_registry =
            observed ? std::make_unique<obs::Registry>() : nullptr;
        DrainResult run =
            RunOnce(store, *method, threads, budget, run_registry.get());
        DrainResult& kept = observed ? best.observed : best.plain;
        if (r == 0 || run.wall_ms < kept.wall_ms) {
          kept = run;
          if (observed) best.registry = std::move(run_registry);
        }
      }
    }
    return best;
  };

  std::vector<sper::bench::JsonRecord> records;
  TextTable table({"threads", "emitted", "emission (ms)", "speedup",
                   "digest"});
  bool ok = true;
  DrainResult reference;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const std::size_t threads = thread_counts[t];
    const BestPair pair = best_pair(threads);
    const DrainResult& plain = pair.plain;
    if (t == 0) reference = plain;
    const bool match = plain.SameStream(reference);
    ok = ok && match;
    const double speedup =
        plain.wall_ms > 0 ? reference.wall_ms / plain.wall_ms : 0.0;
    table.AddRow({std::to_string(threads), std::to_string(plain.emitted),
                  FormatDouble(plain.wall_ms, 1),
                  FormatDouble(speedup, 2) + "x",
                  t == 0 ? "reference" : (match ? "match" : "MISMATCH")});
    records.push_back({dataset.value().name, scale, threads, "emit",
                       plain.wall_ms, speedup, 0, {}});

    // Telemetry-overhead configuration: the same drain with a live
    // registry attached. The stream must stay bit-identical and the
    // overhead (obs/off wall-clock ratio) near 1.0 — the acceptance bar
    // for the instrumentation being a pure observer.
    const DrainResult& observed = pair.observed;
    const bool obs_match = observed.SameStream(reference);
    ok = ok && obs_match;
    const double overhead =
        plain.wall_ms > 0 ? observed.wall_ms / plain.wall_ms : 0.0;
    table.AddRow({std::to_string(threads) + " (obs)",
                  std::to_string(observed.emitted),
                  FormatDouble(observed.wall_ms, 1),
                  FormatDouble(overhead, 3) + "x ovh",
                  obs_match ? "match" : "MISMATCH"});
    sper::bench::JsonRecord record{
        dataset.value().name, scale, threads, "emit_obs", observed.wall_ms,
        observed.wall_ms > 0 ? reference.wall_ms / observed.wall_ms : 0.0,
        0, {}};
    record.extras.emplace_back("overhead", overhead);
    AppendRefillExtras(*pair.registry, record);
    records.push_back(std::move(record));
  }
  table.Print();
  std::printf("\ndigest = FNV-1a over every emitted (i, j, weight); "
              "\"match\" means the stream is\nbit-identical to the first "
              "thread count's.\n");

  if (!json_path.empty() &&
      !sper::bench::WriteJsonRecords(json_path, records)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: emission diverged across thread counts\n");
    return 1;
  }
  return 0;
}
