// Figure 1: the motivation plot. Schema-based Progressive Sorted
// Neighborhood (PSN) with its literature blocking keys on the four
// structured datasets — recall vs the normalized number of comparisons
// ec*. The ideal method reaches recall 1.0 at ec* = 1; PSN needs orders
// of magnitude more comparisons and stalls below full recall.
//
//   $ ./bench_fig01_psn_motivation [--scale=S] [--ecmax=E]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);
  const double ecmax = args.ecmax > 0 ? args.ecmax : 100.0;

  std::printf("Figure 1: PSN recall progressiveness on structured datasets\n"
              "(ideal = 1.000 from ec* = 1 on)\n");

  const std::vector<double> grid = {1, 2, 5, 10, 20, 50, ecmax};
  std::vector<RunResult> runs;
  std::vector<std::string> names;
  for (const std::string& name : StructuredDatasetNames()) {
    DatagenOptions gen;
    gen.scale = args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    EvalOptions options;
    options.ecstar_max = ecmax;
    options.auc_at = {1.0, 10.0};
    ProgressiveEvaluator evaluator(dataset.value().truth, options);
    ResolverOptions config = ConfigFor(name);
    config.method = MethodId::kPsn;
    RunResult run = evaluator.Run(
        [&] { return MakeResolver(dataset.value(), config); });
    run.method = name;  // column = dataset (all runs are PSN)
    runs.push_back(std::move(run));
  }
  PrintRecallTable("PSN recall by dataset (columns) vs ec* (rows)", grid,
                   runs);

  std::printf("\nReading: even at ec* = 10 (ten comparisons per existing "
              "match),\nPSN misses a large share of matches on cora/cddb — "
              "the gap the\nschema-agnostic methods close.\n");
  return 0;
}
