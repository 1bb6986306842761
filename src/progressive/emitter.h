#ifndef SPER_PROGRESSIVE_EMITTER_H_
#define SPER_PROGRESSIVE_EMITTER_H_

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/types.h"
#include "progressive/comparison_list.h"
#include "progressive/top_k.h"

/// \file emitter.h
/// The streaming interface every progressive method implements.
///
/// The paper splits a progressive method into an *initialization phase*
/// (build data structures, produce the overall best comparison) and an
/// *emission phase* (return the next best comparison on demand). Here the
/// constructor is the initialization phase and Next() the emission phase —
/// the RocksDB-iterator idiom for the paper's pay-as-you-go contract: the
/// caller can stop after any number of Next() calls.

namespace sper {

/// Pull-based stream of comparisons in non-increasing estimated matching
/// likelihood (within each internal refill batch).
///
/// Lifetime: emitters keep a reference to the ProfileStore they were
/// constructed with (like a RocksDB Iterator references its DB). The
/// store must outlive the emitter; do not pass a temporary.
class ProgressiveEmitter {
 public:
  virtual ~ProgressiveEmitter() = default;

  /// Emission phase: the next best comparison, or std::nullopt once the
  /// method is exhausted. Naïve methods (SA-PSN, SA-PSAB) may emit the
  /// same pair more than once, exactly as in the paper; callers that need
  /// distinct pairs deduplicate via PairKey.
  virtual std::optional<Comparison> Next() = 0;

  /// Short method acronym, e.g. "PPS".
  virtual std::string_view name() const = 0;
};

/// Working memory of one refill: the sparse neighborhood accumulator
/// (weights[] of PPS Algorithm 6), the profiles it touched, and the
/// bounded top-k buffer that replaces the SortedStack. Every thread that
/// runs refills owns one; an emitter sizes it from its store on first use,
/// so each worker allocates it once, in the worker.
struct RefillScratch {
  std::vector<double> weights;
  std::vector<ProfileId> touched;
  TopKBuffer topk;
};

/// Capability of the Comparison-List methods (PBS, PPS): the emission
/// phase as a sequence of refills indexed by a *refill cursor*. Each
/// refill is a pure function of its cursor — it reads only state fixed by
/// the initialization phase — so refills may run on any number of threads
/// at once (one RefillScratch each), and concatenating them in cursor
/// order is exactly the serial Next() stream. The ordered refill map
/// (parallel/ordered_map.h) runs them that way for the engine.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// Number of refill cursors; RefillAt accepts [0, num_refills()).
  virtual std::size_t num_refills() const = 0;

  /// Appends refill `k` to `out`, in non-increasing likelihood order (it
  /// may be empty). Const and thread-safe for distinct `scratch`es.
  virtual void RefillAt(std::size_t k, RefillScratch& scratch,
                        ComparisonList& out) const = 0;

  /// Serial view: fills `out` (previous content discarded) with the next
  /// *non-empty* refill, in cursor order. Returns false once the method
  /// is exhausted. One caller at a time; shares its cursor with the
  /// emitter's Next(), so do not interleave the two.
  bool ProduceBatch(ComparisonList& out);

 protected:
  /// Next() of the refill-based emitters: pops the current serial batch,
  /// producing the next one when it runs dry.
  std::optional<Comparison> NextFromRefills();

 private:
  std::size_t serial_cursor_ = 0;
  RefillScratch serial_scratch_;
  ComparisonList serial_batch_;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_EMITTER_H_
