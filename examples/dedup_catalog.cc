// Pay-as-you-go deduplication of a dirty catalog (the paper's motivating
// scenario: "the catalog update in large online retailers that is carried
// out every few hours"). A restaurant-guide-style catalog is deduplicated
// under a fixed comparison budget with LS-PSN served through the Resolver
// API; a Jaccard match function scores each emitted pair.
//
//   $ ./dedup_catalog [budget]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "matching/match_function.h"

namespace {

std::unique_ptr<sper::Resolver> MakeLsPsnResolver(
    const sper::ProfileStore& store, std::uint64_t budget) {
  sper::ResolverOptions options;
  options.method = sper::MethodId::kLsPsn;
  options.budget = budget;  // the global pay-as-you-go cap
  sper::Result<std::unique_ptr<sper::Resolver>> created =
      sper::Resolver::Create(store, options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(created).value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sper;

  // A zero or negative argument means "spend nothing" (ResolverOptions::
  // budget uses 0 as the *unlimited* sentinel, so it must not get a raw 0).
  const long long raw_budget = argc > 1 ? std::atoll(argv[1]) : 250;
  const std::uint64_t budget =
      raw_budget > 0 ? static_cast<std::uint64_t>(raw_budget) : 0;
  if (budget == 0) {
    std::printf("budget 0: nothing to resolve.\n");
    return 0;
  }

  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;
  const GroundTruth& truth = dataset.value().truth;
  std::printf("catalog: %zu listings, %zu known duplicate pairs\n",
              store.size(), truth.num_matches());
  std::printf("budget:  %llu comparisons (%.1fx the duplicate count)\n\n",
              static_cast<unsigned long long>(budget),
              static_cast<double>(budget) /
                  static_cast<double>(truth.num_matches()));

  // The serving shape of the paper's model: a long-lived resolver owns
  // the ranked stream; the consumer draws batches until its budget is
  // spent. Here the nightly dedup job draws 50 comparisons per request.
  std::unique_ptr<Resolver> resolver = MakeLsPsnResolver(store, budget);
  JaccardMatch match(store);

  std::size_t found = 0;
  std::uint64_t emitted = 0;
  std::uint64_t requests = 0;
  std::printf("first few detected duplicates (jaccard >= 0.5):\n");
  for (;;) {
    ResolveResult batch = resolver->Serve({/*budget=*/50, /*max_batch=*/0});
    ++requests;
    emitted += batch.comparisons.size();
    for (const Comparison& c : batch.comparisons) {
      const double similarity = match.Similarity(c.i, c.j);
      if (similarity < 0.5) continue;  // the match function's decision
      ++found;
      if (found <= 5) {
        const Profile& a = store.profile(c.i);
        const Profile& b = store.profile(c.j);
        std::printf("  %.2f  \"%s\"\n        \"%s\"\n", similarity,
                    a.ConcatenatedValues().c_str(),
                    b.ConcatenatedValues().c_str());
      }
    }
    if (batch.budget_exhausted || batch.stream_exhausted) break;
  }

  // How well did the budgeted pass do against the ground truth? Guard the
  // degenerate case: budget 0 would be the *unlimited* sentinel.
  std::size_t true_found = 0;
  if (emitted > 0) {
    std::unique_ptr<Resolver> recount = MakeLsPsnResolver(store, emitted);
    while (std::optional<Comparison> c = recount->Next()) {
      if (truth.AreMatching(c->i, c->j)) ++true_found;
    }
  }
  std::printf(
      "\nafter %llu comparisons (%llu requests): %zu pairs flagged by the "
      "match function\n",
      static_cast<unsigned long long>(emitted),
      static_cast<unsigned long long>(requests),
      found);
  std::printf("ground-truth recall within the budget: %.1f%%\n",
              100.0 * static_cast<double>(true_found) /
                  static_cast<double>(truth.num_matches()));
  std::printf(
      "(batch ER would need all %zu profile pairs to guarantee the same)\n",
      store.size() * (store.size() - 1) / 2);
  return 0;
}
