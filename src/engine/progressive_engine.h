#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/profile_store.h"
#include "core/types.h"
#include "engine/engine.h"
#include "engine/method.h"
#include "obs/telemetry.h"
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

namespace sper {

/// Everything one engine instance needs to run one progressive ER task.
///
/// This is the *internal* per-engine configuration: public callers go
/// through `ResolverOptions` + `Resolver::Create` (engine/resolver.h),
/// which validates the configuration and picks the engine
/// implementation. (The old deprecated `EngineOptions` /
/// `ShardedEngineOptions` public shims were removed in PR 8.)
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
  /// either way. ShardedEngine hands each shard a "shard<S>."-prefixed
  /// sub-scope of the resolver's scope.
  obs::TelemetryScope telemetry;
  /// Names this engine instance in contained-failure messages and
  /// fault-injection seams ("shard0" makes the refill seam
  /// "refill.shard0"); empty = a plain unlabeled engine ("refill").
  std::string instance_label;
};

/// Facade emitter: owns the inner method emitter and its inputs. Being a
/// ProgressiveEmitter itself, it composes with every existing consumer
/// (evaluator, benches, dedup loops).
///
/// Direct construction is internal: public callers use
/// `Resolver::Create` (engine/resolver.h), which validates options and
/// picks plain vs sharded serving; ProgressiveEngine remains the plain
/// implementation behind that factory.
class ProgressiveEngine : public BudgetedEngine {
 public:
  /// Initialization phase: builds blocking structures (in parallel when
  /// options.num_threads > 1) and the method emitter; for the batch
  /// methods it also starts the options.num_threads refill workers. The
  /// store must outlive the engine. kPsn requires options.schema_key.
  ProgressiveEngine(const ProfileStore& store, EngineConfig options);

  /// The inner method's acronym, e.g. "PPS".
  std::string_view name() const override { return inner_->name(); }

  /// A plain engine serves one logical shard.
  std::size_t num_shards() const override { return 1; }

  /// Stops the stream: stops and joins the refill workers and flips the
  /// engine to exhausted. Idempotent.
  void Drain() override;

 private:
  /// The inner method's next comparison (off the refill map's windows, or
  /// inline for the sort-based methods); budget and poison accounting
  /// live in BudgetedEngine::Pull().
  PullStatus PullUnbudgeted(Comparison& out,
                            const CancelToken& token) override;

  /// Contains a refill or Next() failure: sticky status with instance
  /// label and refill cursor.
  PullStatus Poison(std::size_t refill, std::exception_ptr error);

  using RefillMap = OrderedMap<ComparisonList, RefillScratch>;

  EngineConfig options_;
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
