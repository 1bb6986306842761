#include "progressive/pps.h"

#include <algorithm>
#include <cstdint>
#include <span>
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

/// Profiles per range a node-pass worker claims: small enough to even out
/// skewed neighborhoods, large enough to keep cursor traffic negligible.
constexpr std::size_t kNodeGrain = 256;

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
  // top-weighted comparison. Nodes are independent but their
  // neighborhoods differ widely in size, so workers claim small id
  // ranges from a shared cursor rather than one static chunk each. Every
  // result lands in its node's own slot and is reduced below in id
  // order, so the outcome is identical at every thread count and under
  // every schedule.
  std::vector<NodeInit> nodes(store_.size());
  // One dense dirty-array accumulator per worker (8 B * |P| each):
  // hash-free O(1) accumulation on the hottest loop of the whole
  // initialization, allocated on the worker's first range.
  struct Scratch {
    std::vector<double> weights;
    std::vector<ProfileId> touched;  // grows only; see `touch` below
  };
  std::vector<Scratch> scratch(std::max<std::size_t>(options_.num_threads, 1));
  const bool clean_clean = blocks_.er_type() == ErType::kCleanClean;
  ParallelForDynamic(
      store_.size(), options_.num_threads, kNodeGrain,
      [&](std::size_t worker, IndexRange range) {
        std::vector<double>& weights = scratch[worker].weights;
        std::vector<ProfileId>& touched = scratch[worker].touched;
        if (weights.empty()) weights.assign(store_.size(), 0.0);
        for (std::size_t idx = range.begin; idx < range.end; ++idx) {
          const ProfileId i = static_cast<ProfileId>(idx);
          // Adds `share` to every neighbor in `js`, listing each one the
          // first time it is touched. The list is grown once per block,
          // so the loop appends with a plain store and no capacity check:
          // every neighbor is written, only a first touch advances the
          // count.
          std::size_t num_touched = 0;
          const auto touch = [&](std::span<const ProfileId> js,
                                 double share) {
            if (touched.size() < num_touched + js.size()) {
              touched.resize(2 * (num_touched + js.size()));
            }
            ProfileId* out = touched.data();
            for (ProfileId j : js) {
              out[num_touched] = j;
              num_touched += weights[j] == 0.0 ? 1 : 0;
              weights[j] += share;
            }
          };
          // Algorithm 5 line 10, partition-aware: Clean-Clean scans only
          // the opposite-source range of each block (no comparability
          // branch); Dirty scans the members before and after i.
          for (BlockId b : index_.BlocksOf(i)) {
            const double share = weighter_.BlockContribution(b);
            if (clean_clean) {
              touch(blocks_.OppositeSource(b, i), share);
            } else {
              const std::span<const ProfileId> ps = blocks_.members(b);
              const std::size_t at = static_cast<std::size_t>(
                  std::lower_bound(ps.begin(), ps.end(), i) - ps.begin());
              touch(ps.first(at), share);
              touch(ps.subspan(at + 1), share);
            }
          }
          if (num_touched == 0) continue;

          double likelihood_sum = 0.0;
          Comparison top;
          bool has_top = false;
          for (std::size_t t = 0; t < num_touched; ++t) {
            const ProfileId j = touched[t];
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
              likelihood_sum / static_cast<double>(num_touched);
          nodes[i].top = top;
          nodes[i].has_neighbors = true;
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
