#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/profile_store.h"
#include "core/status.h"
#include "core/types.h"
#include "engine/method.h"
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

/// One timed step of an engine's initialization. Phase names are the
/// telemetry phase names ("token_blocking", "block_purging",
/// "block_filtering", "method_build").
struct InitPhase {
  std::string name;
  double seconds = 0.0;
};

/// Aggregate facts about an engine's initialization phase (diagnostics /
/// benches).
struct InitStats {
  /// Wall-clock seconds spent in the engine's constructor; the per-phase
  /// breakdown is in `phases`.
  double init_seconds = 0.0;
  /// |B| of the workflow collection (0 for the sort-based methods).
  std::size_t num_blocks = 0;
  /// ||B|| of the workflow collection (0 for the sort-based methods).
  std::uint64_t aggregate_cardinality = 0;
  /// Per-phase breakdown of init_seconds, in execution order.
  std::vector<InitPhase> phases;
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

/// Everything one engine instance needs to run one progressive ER task.
///
/// This is the *internal* per-engine configuration: public callers go
/// through `ResolverOptions` + `Resolver::Create` (engine/resolver.h),
/// which validates the configuration and lowers it to this struct.
struct EngineConfig {
  /// Progressive method to run.
  MethodId method = MethodId::kPps;

  /// Threads used by the initialization phase (token-index build, block
  /// filtering, edge weighting) and, for the batch methods, the refill
  /// workers of emission. 0 means "one thread".
  std::size_t num_threads = 1;

  /// Maximum number of comparisons Next() will emit; 0 = unlimited. This
  /// is the paper's pay-as-you-go budget expressed at the API boundary:
  /// once exhausted, Next() returns nullopt even if the method could
  /// continue.
  std::uint64_t budget = 0;

  /// Blocking workflow for the equality-based methods (PBS, PPS).
  TokenWorkflowOptions workflow;
  /// Blocking-graph edge-weighting scheme for PBS/PPS.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// PPS comparisons retained per profile.
  std::size_t pps_kmax = 100;
  /// GS-PSN window range.
  std::size_t gs_wmax = 20;
  /// SA-PSAB suffix forest parameters.
  SuffixForestOptions suffix;
  /// Neighbor List construction for the sort-based methods.
  NeighborListOptions list;
  /// Schema-based blocking key; required by kPsn, ignored otherwise.
  SchemaKeyFn schema_key;
  /// Telemetry sink (phase timers, refill-map health metrics, spans).
  /// Default-constructed = disabled; the emitted stream is bit-identical
  /// either way.
  obs::TelemetryScope telemetry;
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
  /// store must outlive the engine. kPsn requires options.schema_key.
  ProgressiveEngine(const ProfileStore& store, EngineConfig options);

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

  EngineConfig options_;
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
