// Ablation: the three method-specific knobs the paper discusses —
// GS-PSN's window range wmax (Sec. 5.1.2), PPS's per-profile budget Kmax
// (Sec. 5.2.2) and SA-PSAB's minimum suffix length lmin (Sec. 4.2).
//
//   $ ./bench_ablation_params [--scale=S]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  DatagenOptions gen;
  gen.scale = args.scale;
  Result<DatasetBundle> cora = GenerateDataset("cora", gen);
  Result<DatasetBundle> restaurant = GenerateDataset("restaurant", gen);
  if (!cora.ok() || !restaurant.ok()) return 1;

  EvalOptions options;
  options.ecstar_max = 10.0;
  options.auc_at = {1.0, 5.0};

  {
    std::printf("== GS-PSN wmax sweep (cora) ==\n");
    ProgressiveEvaluator evaluator(cora.value().truth, options);
    TextTable table({"wmax", "AUC*@1", "AUC*@5", "recall@10", "init (s)"});
    for (std::size_t wmax : {2u, 5u, 10u, 20u, 50u}) {
      ResolverOptions config;
      config.method = MethodId::kGsPsn;
      config.gs_wmax = wmax;
      RunResult run =
          evaluator.Run([&] { return MakeResolver(cora.value(), config); });
      table.AddRow({std::to_string(wmax), FormatDouble(run.auc_norm[0], 3),
                    FormatDouble(run.auc_norm[1], 3),
                    FormatDouble(run.final_recall, 3),
                    FormatDouble(run.init_seconds, 2)});
    }
    table.Print();
    std::printf("Reading: small wmax exhausts early (recall cap); large "
                "wmax costs\ninit time and memory for little early-quality "
                "gain — the paper picks 20.\n\n");
  }

  {
    std::printf("== PPS Kmax sweep (cora) ==\n");
    ProgressiveEvaluator evaluator(cora.value().truth, options);
    TextTable table({"Kmax", "AUC*@1", "AUC*@5", "recall@10"});
    for (std::size_t kmax : {1u, 5u, 10u, 50u, 500u}) {
      ResolverOptions config;
      config.pps_kmax = kmax;
      RunResult run =
          evaluator.Run([&] { return MakeResolver(cora.value(), config); });
      table.AddRow({std::to_string(kmax), FormatDouble(run.auc_norm[0], 3),
                    FormatDouble(run.auc_norm[1], 3),
                    FormatDouble(run.final_recall, 3)});
    }
    table.Print();
    std::printf("Reading: tiny Kmax truncates neighborhoods (recall cap); "
                "large Kmax\ndilutes early quality with low-weight "
                "comparisons.\n\n");
  }

  {
    std::printf("== SA-PSAB lmin sweep (restaurant) ==\n");
    ProgressiveEvaluator evaluator(restaurant.value().truth, options);
    TextTable table({"lmin", "nodes", "total comparisons", "AUC*@1",
                     "AUC*@5", "recall@10", "init (s)"});
    for (std::size_t lmin : {2u, 3u, 4u, 6u}) {
      ResolverOptions config;
      config.method = MethodId::kSaPsab;
      config.suffix.lmin = lmin;
      SuffixForest forest =
          SuffixForest::Build(restaurant.value().store, config.suffix);
      RunResult run = evaluator.Run(
          [&] { return MakeResolver(restaurant.value(), config); });
      table.AddRow({std::to_string(lmin), FormatCount(forest.nodes().size()),
                    FormatCount(forest.TotalComparisons()),
                    FormatDouble(run.auc_norm[0], 3),
                    FormatDouble(run.auc_norm[1], 3),
                    FormatDouble(run.final_recall, 3),
                    FormatDouble(run.init_seconds, 2)});
    }
    table.Print();
    std::printf(
        "Reading: the capped early budget is served entirely by the leaf\n"
        "layer (full tokens), so early quality is lmin-invariant; lmin\n"
        "instead governs the forest size and the flood of near-root\n"
        "comparisons a full run would have to wade through.\n");
  }
  return 0;
}
