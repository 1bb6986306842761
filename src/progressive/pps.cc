#include "progressive/pps.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"

namespace sper {

namespace {

/// Algorithm 5's per-node facts, computed independently per profile.
struct NodeInit {
  double likelihood = 0.0;
  Comparison top;
  bool has_neighbors = false;
};

}  // namespace

PpsEmitter::PpsEmitter(const ProfileStore& store, BlockCollection blocks,
                       const PpsOptions& options)
    : store_(store),
      blocks_(std::move(blocks)),
      index_(blocks_, store.size()),
      weighter_(blocks_, index_, store, options.scheme,
                options.num_threads, options.telemetry),
      options_(options),
      rank_(store.size(), UINT32_MAX) {
  obs::ScopedPhase phase(options_.telemetry, "profile_scheduling");
  // Algorithm 5: one pass over every node's neighborhood computes the
  // duplication likelihood (mean incident-edge weight) and the node's
  // top-weighted comparison. Nodes are independent, so the pass runs over
  // static profile chunks with per-chunk accumulators; results land in a
  // per-node slot and are reduced below in id order, making the outcome
  // identical at every thread count.
  std::vector<NodeInit> nodes(store_.size());
  ParallelForChunks(
      store_.size(), options_.num_threads,
      [&](std::size_t /*chunk*/, IndexRange range) {
        // Dense dirty-array accumulator per chunk: peak memory is
        // 8 B * |P| per thread, traded for hash-free O(1) accumulation
        // on the hottest loop of the whole initialization. Size
        // num_threads accordingly on huge stores.
        std::vector<double> weights(store_.size(), 0.0);
        std::vector<ProfileId> touched;
        touched.reserve(store_.size());
        const bool clean_clean = blocks_.er_type() == ErType::kCleanClean;
        for (std::size_t idx = range.begin; idx < range.end; ++idx) {
          const ProfileId i = static_cast<ProfileId>(idx);
          // Algorithm 5 line 10, partition-aware: Clean-Clean scans only
          // the opposite-source range of each block (no comparability
          // branch); Dirty keeps only the j != i check.
          if (clean_clean) {
            for (BlockId b : index_.BlocksOf(i)) {
              const double share = weighter_.BlockContribution(b);
              for (ProfileId j : blocks_.OppositeSource(b, i)) {
                if (weights[j] == 0.0) touched.push_back(j);
                weights[j] += share;
              }
            }
          } else {
            for (BlockId b : index_.BlocksOf(i)) {
              const double share = weighter_.BlockContribution(b);
              for (ProfileId j : blocks_.members(b)) {
                if (j == i) continue;
                if (weights[j] == 0.0) touched.push_back(j);
                weights[j] += share;
              }
            }
          }
          if (touched.empty()) continue;

          double likelihood_sum = 0.0;
          Comparison top;
          bool has_top = false;
          for (ProfileId j : touched) {
            const double w = weighter_.Finalize(i, j, weights[j]);
            likelihood_sum += w;
            const Comparison candidate(i, j, w);
            if (!has_top || ByWeightDesc()(candidate, top)) {
              top = candidate;
              has_top = true;
            }
            weights[j] = 0.0;
          }
          nodes[i].likelihood =
              likelihood_sum / static_cast<double>(touched.size());
          nodes[i].top = top;
          nodes[i].has_neighbors = true;
          touched.clear();
        }
      });

  std::vector<Comparison> top_comparisons;
  for (ProfileId i = 0; i < store_.size(); ++i) {
    if (!nodes[i].has_neighbors) continue;
    sorted_profiles_.emplace_back(i, nodes[i].likelihood);
    top_comparisons.push_back(nodes[i].top);
  }
  // topComparisonsSet: a set, so the same pair contributed from both
  // endpoints is stored once. Dedup by the canonical pair key with a
  // stable sort + unique (first-encountered survives, as with a hash
  // set's first insert) — deliberately not an unordered container, whose
  // iteration order would otherwise feed the initial list
  // (tools/lint_determinism.py rule unordered-iteration).
  std::stable_sort(top_comparisons.begin(), top_comparisons.end(),
                   [](const Comparison& a, const Comparison& b) {
                     return PairKey(a.i, a.j) < PairKey(b.i, b.j);
                   });
  top_comparisons.erase(
      std::unique(top_comparisons.begin(), top_comparisons.end(),
                  [](const Comparison& a, const Comparison& b) {
                    return PairKey(a.i, a.j) == PairKey(b.i, b.j);
                  }),
      top_comparisons.end());

  // Sort profiles by decreasing duplication likelihood (deterministic tie
  // on id) and the initial Comparison List by decreasing weight.
  std::sort(sorted_profiles_.begin(), sorted_profiles_.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  for (std::size_t p = 0; p < sorted_profiles_.size(); ++p) {
    rank_[sorted_profiles_[p].first] = static_cast<std::uint32_t>(p);
  }
  std::sort(top_comparisons.begin(), top_comparisons.end(), ByWeightDesc());
  initial_.assign(top_comparisons.begin(), top_comparisons.end());
}

void PpsEmitter::RefillAt(std::size_t k, RefillScratch& scratch,
                          ComparisonList& out) const {
  if (k == 0) {
    out.AppendShared(initial_);
    return;
  }
  const ProfileId i = sorted_profiles_[k - 1].first;
  const std::uint32_t rank_i = static_cast<std::uint32_t>(k - 1);
  std::vector<double>& weights = scratch.weights;
  std::vector<ProfileId>& touched = scratch.touched;
  if (weights.size() != store_.size()) weights.assign(store_.size(), 0.0);
  // Gather unchecked comparable neighbors (Algorithm 6 lines 9-14): a
  // neighbor of smaller rank was processed earlier, had higher
  // duplication likelihood, and its Kmax best comparisons already covered
  // this pair with more reliable evidence. Partition-aware like the init
  // pass; rank_[i] == rank_i, so the Dirty scan needs no separate j != i
  // test.
  if (blocks_.er_type() == ErType::kCleanClean) {
    for (BlockId b : index_.BlocksOf(i)) {
      const double share = weighter_.BlockContribution(b);
      for (ProfileId j : blocks_.OppositeSource(b, i)) {
        if (rank_[j] <= rank_i) continue;
        if (weights[j] == 0.0) touched.push_back(j);
        weights[j] += share;
      }
    }
  } else {
    for (BlockId b : index_.BlocksOf(i)) {
      const double share = weighter_.BlockContribution(b);
      for (ProfileId j : blocks_.members(b)) {
        if (rank_[j] <= rank_i) continue;
        if (weights[j] == 0.0) touched.push_back(j);
        weights[j] += share;
      }
    }
  }

  // SortedStack (lines 15-18): the reusable bounded top-k buffer keeps
  // the Kmax top-weighted comparisons without a per-refill heap
  // allocation; its ascending drain is appended reversed (ByWeightDesc is
  // total, so the result is bit-identical to the min-heap reference).
  TopKBuffer& topk = scratch.topk;
  topk.Reset(options_.kmax);
  for (ProfileId j : touched) {
    topk.Push(Comparison(i, j, weighter_.Finalize(i, j, weights[j])));
    weights[j] = 0.0;
  }
  touched.clear();
  out.AppendAscending(topk.SortedAscending());
}

}  // namespace sper
