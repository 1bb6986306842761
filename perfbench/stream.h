#ifndef SPER_PERFBENCH_STREAM_H_
#define SPER_PERFBENCH_STREAM_H_

// What the benchmark checks about a drained comparison stream: its FNV-1a
// digest and count (bit identity), and the paper's quality metrics over
// its ec* <= 10 prefix, computed after the clock stops.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/ground_truth.h"
#include "eval/evaluator.h"
#include "progressive/emitter.h"

namespace sper {
namespace perfbench {

/// ec* horizon of the quality metrics: AUC*@{1,5,10} and recall at 10.
inline constexpr double kQualityEcStar = 10.0;

/// The paper's quality of one stream prefix.
struct Quality {
  double auc1 = 0.0;
  double auc5 = 0.0;
  double auc10 = 0.0;
  double recall_ec10 = 0.0;

  bool operator==(const Quality&) const = default;
};

/// Comparisons in the ec* <= 10 prefix: round(10 * |D_P|), the cap
/// ProgressiveEvaluator applies for ecstar_max = 10.
inline std::uint64_t QualityPrefixLength(const GroundTruth& truth) {
  return static_cast<std::uint64_t>(
      kQualityEcStar * static_cast<double>(truth.num_matches()) + 0.5);
}

/// AUC*@{1,5,10} and recall@10 of `prefix`: the prefix replayed through
/// ProgressiveEvaluator::Run with ecstar_max = 10 and auc_at = {1, 5, 10}.
inline Quality ComputeQuality(std::span<const Comparison> prefix,
                              const GroundTruth& truth) {
  struct Replay : ProgressiveEmitter {
    explicit Replay(std::span<const Comparison> items) : items(items) {}
    std::optional<Comparison> Next() override {
      if (next == items.size()) return std::nullopt;
      return items[next++];
    }
    std::string_view name() const override { return "replay"; }
    std::span<const Comparison> items;
    std::size_t next = 0;
  };
  EvalOptions options;
  options.ecstar_max = kQualityEcStar;
  options.auc_at = {1.0, 5.0, 10.0};
  const RunResult run = ProgressiveEvaluator(truth, options).Run(
      [&] { return std::make_unique<Replay>(prefix); });
  return {run.auc_norm[0], run.auc_norm[1], run.auc_norm[2],
          run.final_recall};
}

/// A stream reduced to what the correctness gate compares: FNV-1a over
/// every (i, j, weight bits), the count, and the ec* <= 10 prefix kept for
/// the quality computation.
class StreamFold {
 public:
  explicit StreamFold(std::uint64_t prefix_length = 0)
      : prefix_length_(prefix_length) {
    prefix_.reserve(prefix_length);
  }

  void Fold(std::span<const Comparison> slice) {
    for (const Comparison& c : slice) {
      Mix(c.i);
      Mix(c.j);
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(c.weight));
      std::memcpy(&bits, &c.weight, sizeof(bits));
      Mix(bits);
    }
    if (prefix_.size() < prefix_length_) {
      const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
          slice.size(), prefix_length_ - prefix_.size()));
      prefix_.insert(prefix_.end(), slice.begin(), slice.begin() + take);
    }
    count_ += slice.size();
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t count() const { return count_; }
  const std::vector<Comparison>& prefix() const { return prefix_; }

 private:
  void Mix(std::uint64_t v) {
    digest_ ^= v;
    digest_ *= 1099511628211ull;  // FNV-1a prime
  }

  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t count_ = 0;
  std::uint64_t prefix_length_;
  std::vector<Comparison> prefix_;
};

}  // namespace perfbench
}  // namespace sper

#endif  // SPER_PERFBENCH_STREAM_H_
