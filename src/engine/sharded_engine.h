#ifndef SPER_ENGINE_SHARDED_ENGINE_H_
#define SPER_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/profile_store.h"
#include "core/store_partition.h"
#include "engine/engine.h"
#include "engine/progressive_engine.h"
#include "obs/telemetry.h"
#include "parallel/ordered_merge.h"
#include "progressive/emitter.h"

/// \file sharded_engine.h
/// Sharded serving (ROADMAP "Sharded serving"): hash-partition the
/// ProfileStore into S shard-local stores, run one ProgressiveEngine per
/// shard, and merge the per-shard ranked streams into one global emission
/// order. Initialization — the expensive blocking / meta-blocking phase —
/// runs per shard, with the shard constructions themselves fanned out on
/// the ThreadPool; the merged emission is one pull-based stream in
/// *original* profile ids.
///
/// Shard refills run *in parallel*: every shard engine runs its refills on
/// its own max(1, num_threads / S) workers (ProgressiveEngine), so when
/// the k-way merge pops a shard head, the refill it triggers is usually a
/// pop from that shard's finished windows.
///
/// Determinism contract: the merged stream depends only on (store,
/// options.num_shards, engine options) — never on thread count or timing.
/// For num_shards == 1 it is bit-identical to a plain ProgressiveEngine
/// with the same engine options. Note that for S > 1 the stream is a
/// different (still deterministic) order than unsharded: each shard ranks
/// comparisons against its own sub-collection, and only intra-shard pairs
/// are candidates — the standard recall trade-off of hash sharding.

namespace sper {

/// One ProgressiveEngine per hash shard behind a deterministic k-way
/// merged stream, expressed in the original store's profile ids.
///
/// Direct construction is internal: public callers use
/// `Resolver::Create` with `ResolverOptions::num_shards > 1`
/// (engine/resolver.h); ShardedEngine remains the sharded implementation
/// behind that factory.
class ShardedEngine : public BudgetedEngine {
 public:
  /// Partitions the store into `num_shards` hash shards (0 and 1 both
  /// mean "one shard"), then constructs the per-shard engines
  /// concurrently on a ThreadPool. The store must outlive the engine
  /// only for construction; shards own copies of their profiles.
  ///
  /// `config` is the per-shard engine configuration, reinterpreted at
  /// the sharded level: `config.budget` is the *global* pay-as-you-go
  /// budget across all shards (inner engines run unbudgeted; the merged
  /// stream is capped); `config.num_threads` is the total thread budget
  /// — shard initializations run concurrently and split it evenly, and
  /// each non-barren shard engine gets max(1, num_threads / S) refill
  /// workers (so at least one thread per such shard; the emitted stream
  /// is identical at every thread count).
  ShardedEngine(const ProfileStore& store, EngineConfig config,
                std::size_t num_shards);

  /// The underlying method's acronym, e.g. "PPS".
  std::string_view name() const override;

  /// Number of shards (== options.num_shards, at least 1).
  std::size_t num_shards() const override { return shards_.size(); }

  /// Stops the stream: drains every shard engine, joining its refill
  /// workers. Idempotent.
  void Drain() override;

 private:
  /// The globally next best comparison (original ids) off the k-way
  /// merge; the global budget is charged in BudgetedEngine::Pull(). A
  /// shard pull that gives up (token fired) surfaces as kCancelled with
  /// the merge heap, priming cursor, and pending refill intact; a shard
  /// that poisoned itself surfaces as kError with its status adopted.
  PullStatus PullUnbudgeted(Comparison& out,
                            const CancelToken& token) override;

  EngineConfig config_;
  std::vector<StoreShard> shards_;
  std::vector<std::unique_ptr<ProgressiveEngine>> engines_;
  KWayMerge<Comparison, ByWeightDesc> merge_;
  /// Per-*stream* draw counters ("merge.shard<S>.draws", stream order —
  /// barren shards register no stream); empty when telemetry is off.
  std::vector<obs::Counter*> draw_counters_;
  /// The token of the pull in flight, read by the merge-stream lambdas
  /// (set at the top of each PullUnbudgeted; engines are single-consumer
  /// so no synchronization is needed).
  CancelToken request_token_;
};

}  // namespace sper

#endif  // SPER_ENGINE_SHARDED_ENGINE_H_
