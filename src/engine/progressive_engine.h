#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/comparison.h"
#include "core/profile_store.h"
#include "core/status.h"
#include "core/types.h"
#include "engine/options.h"
#include "obs/telemetry.h"
#include "parallel/cancel.h"
#include "parallel/ordered_map.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"
#include "progressive/gs_psn.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/sa_psab.h"
#include "progressive/workflow.h"
#include "sorted/neighbor_list.h"

/// \file progressive_engine.h
/// The one-call facade over the whole library: profiles in, ranked
/// comparisons out. The engine wires the Token Blocking Workflow,
/// meta-blocking edge weighting and the chosen progressive method behind a
/// single constructor, runs every initialization hot path on
/// `num_threads` threads (identical output at every thread count), and
/// enforces an optional pay-as-you-go comparison budget on emission.
///
/// Emission of the batch methods (PBS, PPS) runs on `num_threads` workers
/// too: the refills are pure functions of their cursor, so an ordered map
/// (parallel/ordered_map.h) computes windows of consecutive refills in
/// parallel, a bounded number of windows ahead of the consumer, and Next()
/// pops from them strictly in cursor order. The emitted sequence is
/// bit-identical at every thread count. The sort-based methods emit
/// inline.
///
/// Beyond the stream, the engine carries the serving contract the
/// `Resolver` builds on: the budget, an emission counter, initialization
/// diagnostics, cancellable pulls (Pull), sticky failure containment
/// (status) and graceful teardown (Drain).

namespace sper {

/// Aggregate facts about an engine's initialization phase (diagnostics /
/// benches).
struct InitStats {
  /// Wall-clock seconds spent in the engine's constructor; the per-phase
  /// breakdown is in the telemetry registry's "phase.<name>_seconds"
  /// gauges.
  double init_seconds = 0.0;
  /// |B| of the workflow collection (0 for the sort-based methods).
  std::size_t num_blocks = 0;
  /// ||B|| of the workflow collection (0 for the sort-based methods).
  std::uint64_t aggregate_cardinality = 0;
};

/// Outcome of one ProgressiveEngine::Pull.
enum class PullStatus {
  kOk,         // `out` holds the next comparison of the stream
  kExhausted,  // stream over (source drained, budget spent, or engine
               // drained) — terminal for this request AND the stream
  kCancelled,  // the token fired first; the stream is fully intact and the
               // next Pull (any token) continues bit-identically
  kError,      // the engine is poisoned — see status(); terminal, sticky
};

/// Facade emitter: owns the inner method emitter and its inputs. Being a
/// ProgressiveEmitter itself, it composes with every existing consumer
/// (evaluator, benches, dedup loops).
///
/// Direct construction is internal: public callers use
/// `Resolver::Create` (engine/resolver.h), which validates options first.
///
/// Not thread-safe: one consumer drains Next()/Pull() at a time (the
/// Resolver serializes concurrent requests on top of this). Drain() must
/// likewise be externally serialized against pulls — the Resolver does so
/// via its admission queue.
class ProgressiveEngine : public ProgressiveEmitter {
 public:
  /// Initialization phase: builds blocking structures (in parallel when
  /// options.num_threads > 1) and the method emitter; for the batch
  /// methods it also starts the options.num_threads refill workers. The
  /// store must outlive the engine. `options` must pass Validate().
  ProgressiveEngine(const ProfileStore& store, ResolverOptions options);

  /// Emission phase: the next best comparison, honoring the budget.
  std::optional<Comparison> Next() override {
    Comparison out;
    return Pull(out, CancelToken()) == PullStatus::kOk
               ? std::optional<Comparison>(out)
               : std::nullopt;
  }

  /// The inner method's acronym, e.g. "PPS".
  std::string_view name() const override { return inner_->name(); }

  /// The cancellable pull: like Next(), but gives up (kCancelled) when
  /// `token` fires at a batch boundary, and reports producer failures as
  /// kError instead of throwing. A null token never fires, making this a
  /// strict superset of Next(). Charges the budget and short-circuits the
  /// poisoned and drained states.
  PullStatus Pull(Comparison& out, const CancelToken& token) {
    if (!status_.ok()) return PullStatus::kError;
    if (drained_ || BudgetExhausted()) return PullStatus::kExhausted;
    const PullStatus pulled = PullUnbudgeted(out, token);
    if (pulled == PullStatus::kOk) ++emitted_;
    return pulled;
  }

  /// Comparisons emitted so far.
  std::uint64_t emitted() const { return emitted_; }

  /// True once the configured pay-as-you-go budget has been spent (never
  /// for budget 0, which means unlimited).
  bool BudgetExhausted() const {
    return options_.budget != 0 && emitted_ >= options_.budget;
  }

  /// Initialization diagnostics.
  const InitStats& init_stats() const { return stats_; }

  /// The configuration the engine was built with.
  const ResolverOptions& options() const { return options_; }

  /// Why the engine is poisoned; ok() while healthy. Sticky: once a
  /// producer failure is contained here, every later Pull returns kError
  /// with this same status.
  const Status& status() const { return status_; }

  /// Stops the stream for good: stops and joins the refill workers and
  /// makes every later Pull return kExhausted. Idempotent; must not race
  /// Pull (see class comment).
  void Drain();

 private:
  /// The inner method's next comparison (off the refill map's windows, or
  /// inline for the sort-based methods), ignoring the budget. Checks
  /// `token` at batch granularity and contains failures by poisoning.
  PullStatus PullUnbudgeted(Comparison& out, const CancelToken& token);

  /// Contains a refill or Next() failure: sticky status with the refill
  /// cursor.
  PullStatus Poison(std::size_t refill, std::exception_ptr error);

  using RefillMap = OrderedMap<ComparisonList, RefillScratch>;

  ResolverOptions options_;
  InitStats stats_;
  /// Sticky poison; set (once) by PullUnbudgeted on producer failure.
  Status status_ = Status::Ok();
  /// Set by Drain(); flips the stream to kExhausted.
  bool drained_ = false;
  std::uint64_t emitted_ = 0;
  std::unique_ptr<ProgressiveEmitter> inner_;
  /// Registry sinks of the refill map; declared before refills_, which
  /// holds a pointer to it for its lifetime.
  OrderedMapMetrics refill_metrics_;
  /// The batch methods' refills on num_threads workers; nullptr for the
  /// sort-based methods. Declared after inner_, so its workers (which run
  /// inner_'s refills) are joined before inner_ is destroyed.
  std::unique_ptr<RefillMap> refills_;
  /// The window Next() is draining (owned by refills_); caching it keeps
  /// the map's lock off the per-comparison path.
  ComparisonList* window_ = nullptr;
};

}  // namespace sper

#endif  // SPER_ENGINE_PROGRESSIVE_ENGINE_H_
