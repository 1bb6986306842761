// The quality the benchmark computes from the ec* <= 10 prefix it keeps of
// a sliced Serve() drain (stream.h) must equal ProgressiveEvaluator::Run
// over the live resolver, for the two methods the benchmark runs.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/evaluator.h"
#include "stream.h"

namespace sper {
namespace perfbench {
namespace {

std::unique_ptr<Resolver> MakeResolver(const DatasetBundle& bundle,
                                       MethodId method) {
  ResolverOptions options;
  options.method = method;
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(bundle.store, options);
  EXPECT_TRUE(resolver.ok());
  return std::move(resolver).value();
}

void ExpectSameAsEvaluator(const char* dataset, MethodId method,
                           double scale) {
  Result<DatasetBundle> generated =
      GenerateDataset(dataset, {.seed = 7, .scale = scale});
  ASSERT_TRUE(generated.ok());
  const DatasetBundle& bundle = generated.value();

  EvalOptions eval;
  eval.ecstar_max = kQualityEcStar;
  eval.auc_at = {1.0, 5.0, 10.0};
  const RunResult expected =
      ProgressiveEvaluator(bundle.truth, eval).Run([&] {
        return std::unique_ptr<ProgressiveEmitter>(
            MakeResolver(bundle, method));
      });
  ASSERT_EQ(expected.auc_norm.size(), 3u);

  // The benchmark's path: sliced Serve() calls folded in order.
  std::unique_ptr<Resolver> resolver = MakeResolver(bundle, method);
  StreamFold fold(QualityPrefixLength(bundle.truth));
  for (;;) {
    ResolveRequest request;
    request.budget = 1000;
    const ResolveResult result = resolver->Serve(request);
    fold.Fold(result.comparisons);
    if (result.stream_exhausted || result.comparisons.empty()) break;
  }
  const Quality quality = ComputeQuality(fold.prefix(), bundle.truth);
  EXPECT_EQ(quality.auc1, expected.auc_norm[0]);
  EXPECT_EQ(quality.auc5, expected.auc_norm[1]);
  EXPECT_EQ(quality.auc10, expected.auc_norm[2]);
  EXPECT_EQ(quality.recall_ec10, expected.final_recall);
  EXPECT_GT(quality.auc10, 0.0);
}

TEST(StreamQualityTest, PpsMatchesEvaluator) {
  ExpectSameAsEvaluator("cora", MethodId::kPps, 1.0);
}

TEST(StreamQualityTest, PbsMatchesEvaluator) {
  ExpectSameAsEvaluator("cddb", MethodId::kPbs, 0.2);
}

// The digest is FNV-1a over (i, j, weight bits), independent of slicing.
TEST(StreamFoldTest, DigestIgnoresSliceBoundaries) {
  const std::vector<Comparison> items = {
      {1, 2, 0.5}, {3, 4, 0.25}, {0, 5, 1.0}, {2, 7, 0.125}};
  StreamFold whole(2);
  whole.Fold(items);
  StreamFold sliced(2);
  sliced.Fold(std::span(items).first(1));
  sliced.Fold(std::span(items).subspan(1, 2));
  sliced.Fold(std::span(items).subspan(3));
  EXPECT_EQ(whole.digest(), sliced.digest());
  EXPECT_EQ(whole.count(), 4u);
  EXPECT_EQ(sliced.prefix().size(), 2u);
  StreamFold reordered;
  reordered.Fold(std::vector<Comparison>{items[1], items[0]});
  StreamFold ordered;
  ordered.Fold(std::span(items).first(2));
  EXPECT_NE(reordered.digest(), ordered.digest());
}

}  // namespace
}  // namespace perfbench
}  // namespace sper
