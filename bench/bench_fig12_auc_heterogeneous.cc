// Figure 12: mean normalized AUC at ec* = 1, 5, 10, 20 across the three
// heterogeneous datasets, plus the per-dataset breakdown.
//
//   $ ./bench_fig12_auc_heterogeneous [--scale=S]

#include <map>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  std::printf("Figure 12: mean AUC*_m over the heterogeneous datasets\n");

  const std::vector<double> auc_at = {1.0, 5.0, 10.0, 20.0};
  std::map<MethodId, std::vector<RunResult>> per_method;

  for (const std::string& name : HeterogeneousDatasetNames()) {
    DatagenOptions gen;
    gen.scale = args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    EvalOptions options;
    options.ecstar_max = 20.0;
    options.auc_at = auc_at;
    ProgressiveEvaluator evaluator(dataset.value().truth, options);
    ResolverOptions config = ConfigFor(name);

    std::vector<RunResult> runs;
    for (MethodId id : HeterogeneousMethodSet()) {
      if (id == MethodId::kSaPsab && name != "movies") continue;
      config.method = id;
      RunResult run = evaluator.Run(
          [&] { return MakeResolver(dataset.value(), config); });
      per_method[id].push_back(run);
      runs.push_back(std::move(run));
    }
    PrintAucTable(name, auc_at, runs);
  }

  std::printf("\n== mean AUC*_m across all heterogeneous datasets ==\n"
              "(SA-PSAB averaged over movies only — it cannot scale to the "
              "other two)\n");
  std::vector<std::string> headers = {"method"};
  for (double at : auc_at) headers.push_back("AUC*@" + FormatDouble(at, 0));
  TextTable table(headers);
  for (MethodId id : HeterogeneousMethodSet()) {
    std::vector<std::string> row = {std::string(ToString(id))};
    for (double mean : MeanAucAcrossRuns(per_method[id])) {
      row.push_back(FormatDouble(mean, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  std::printf("\nExpected shape (paper Fig. 12): PPS the best performer at "
              "every AUC*@ec* level.\n");
  return 0;
}
