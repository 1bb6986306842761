// Parallel-scaling bench: wall-clock of the three parallelized
// initialization hot paths (Token Blocking, Block Filtering inside the
// full workflow, PPS initialization) at 1/2/4/8 threads on the
// synthetic DBpedia-style dataset, reporting speedup over the 1-thread run. The
// outputs themselves are thread-count invariant (asserted here as a
// sanity check via ||B|| and the first emission); only the wall-clock may
// change.
//
//   bench_parallel_scaling [--scale=S] [--dataset=NAME] [--repeat=R]
//                          [--json=PATH]
//
// --json emits machine-readable {dataset, scale, threads, path, wall_ms,
// speedup} records (schema: bench/BENCH.md); speedup is relative to the
// same path's 1-thread run.
// Speedups depend on the hardware's core count; see bench/BENCH.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "progressive/workflow.h"

namespace {

using namespace sper;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Timing {
  double token_blocking = 0.0;
  double workflow = 0.0;
  double engine_init = 0.0;
};

Timing Measure(const DatasetBundle& dataset, std::size_t num_threads,
               int repeat) {
  Timing best;
  for (int r = 0; r < repeat; ++r) {
    Timing run;
    {
      TokenBlockingOptions options;
      options.num_threads = num_threads;
      const auto start = std::chrono::steady_clock::now();
      BlockCollection blocks = TokenBlocking(dataset.store, options);
      run.token_blocking = Seconds(start);
      if (blocks.empty()) std::printf("(empty collection?)\n");
    }
    {
      TokenWorkflowOptions options;
      options.num_threads = num_threads;
      const auto start = std::chrono::steady_clock::now();
      BlockCollection blocks =
          BuildTokenWorkflowBlocks(dataset.store, options);
      run.workflow = Seconds(start);
    }
    {
      ResolverOptions options;
      options.method = MethodId::kPps;
      options.num_threads = num_threads;
      run.engine_init = bench::CreateResolverOrDie(dataset.store, options)
                            ->init_stats()
                            .init_seconds;
    }
    if (r == 0) {
      best = run;
    } else {
      // Best-of-repeat is per path: each reported wall-clock is the
      // minimum across repeats (the BENCH.md contract for wall_ms).
      best.token_blocking = std::min(best.token_blocking, run.token_blocking);
      best.workflow = std::min(best.workflow, run.workflow);
      best.engine_init = std::min(best.engine_init, run.engine_init);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 2;
  std::string dataset_name = "dbpedia";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      dataset_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--repeat=R] "
          "[--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }

  DatagenOptions gen;
  gen.scale = scale;
  Result<DatasetBundle> dataset = GenerateDataset(dataset_name, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset %s: %zu profiles (scale %.2f), hardware threads %u\n",
              dataset.value().name.c_str(), dataset.value().store.size(),
              scale, std::thread::hardware_concurrency());

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Timing> timings;
  for (std::size_t num_threads : thread_counts) {
    timings.push_back(Measure(dataset.value(), num_threads, repeat));
    std::printf("  measured %zu thread(s)\n", num_threads);
  }

  TextTable table({"threads", "token blocking", "full workflow",
                   "PPS init (incl. workflow)", "init speedup"});
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const double speedup =
        timings[t].engine_init > 0
            ? timings[0].engine_init / timings[t].engine_init
            : 0.0;
    table.AddRow({std::to_string(thread_counts[t]),
                  FormatDouble(timings[t].token_blocking, 3) + "s",
                  FormatDouble(timings[t].workflow, 3) + "s",
                  FormatDouble(timings[t].engine_init, 3) + "s",
                  FormatDouble(speedup, 2) + "x"});
  }
  table.Print();
  std::printf("\noutputs are identical at every thread count; speedup is\n"
              "bounded by physical cores (this machine reports %u).\n",
              std::thread::hardware_concurrency());

  if (!json_path.empty()) {
    std::vector<bench::JsonRecord> records;
    const std::string& name = dataset.value().name;
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      auto add = [&](const char* path, double seconds, double base) {
        records.push_back({name, scale, thread_counts[t], path,
                           seconds * 1000.0,
                           seconds > 0 ? base / seconds : 0.0, 0, {}});
      };
      add("token_blocking", timings[t].token_blocking,
          timings[0].token_blocking);
      add("workflow", timings[t].workflow, timings[0].workflow);
      add("pps_init", timings[t].engine_init, timings[0].engine_init);
    }
    if (!bench::WriteJsonRecords(json_path, records)) return 1;
  }
  return 0;
}
