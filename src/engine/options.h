#ifndef SPER_ENGINE_OPTIONS_H_
#define SPER_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "blocking/suffix_forest.h"
#include "core/status.h"
#include "core/types.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "progressive/workflow.h"
#include "sorted/neighbor_list.h"

/// \file options.h
/// The paper's seven progressive methods and the one configuration
/// struct every caller fills to run one of them (the paper's Sec. 7
/// "Parameter configuration"). `ProgressiveEngine` consumes it directly;
/// engine/resolver.h re-exports it for `Resolver::Create`.

namespace sper {

/// The seven methods of the evaluation (Figs. 9-13).
enum class MethodId {
  kPsn,     // schema-based baseline
  kSaPsn,   // naïve, similarity
  kSaPsab,  // naïve, equality/hierarchy
  kLsPsn,   // advanced, similarity (local)
  kGsPsn,   // advanced, similarity (global)
  kPbs,     // advanced, equality (block-centric)
  kPps,     // advanced, equality (profile-centric)
};

/// Method acronym as printed in the paper.
std::string_view ToString(MethodId id);

/// True for the Comparison-List methods (PBS, PPS), whose emitters expose
/// their refills (BatchSource), so the engine runs them on num_threads
/// workers; the other methods emit inline.
bool MethodHasBatchRefills(MethodId id);

/// Inverse of ToString ("PPS", "SA-PSN", ...); nullopt for unknown names.
std::optional<MethodId> ParseMethodId(std::string_view name);

/// Everything one progressive ER task needs: the one configuration
/// struct, validated by Validate() (Resolver::Create calls it) and
/// handed unchanged to the engine. Defaults are the paper's settings.
struct ResolverOptions {
  /// Progressive method to run.
  MethodId method = MethodId::kPps;

  /// Threads for the initialization phase (token-index build, block
  /// filtering, edge weighting) and the refill workers of the batch
  /// methods (PBS, PPS). The emitted stream is bit-identical at every
  /// setting. Must be in [1, kMaxThreads] — 0 is rejected by Validate()
  /// rather than silently meaning "one thread".
  std::size_t num_threads = 1;

  /// Global pay-as-you-go budget: maximum comparisons the resolver will
  /// emit across all requests and drains; 0 = unlimited.
  std::uint64_t budget = 0;

  /// Blocking workflow for the equality-based methods (PBS, PPS; paper:
  /// purge 10%, filter 80%).
  TokenWorkflowOptions workflow;
  /// Blocking-graph edge-weighting scheme for PBS/PPS (paper: ARCS).
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// PPS comparisons retained per profile (PPS only; must be > 0).
  std::size_t pps_kmax = 100;
  /// GS-PSN window range (paper: 20 structured, 200 large).
  std::size_t gs_wmax = 20;
  /// SA-PSAB suffix forest parameters.
  SuffixForestOptions suffix;
  /// Neighbor List construction for the sort-based methods (tie
  /// shuffling seed etc.).
  NeighborListOptions list;
  /// Schema-based blocking key; required by kPsn, ignored otherwise.
  SchemaKeyFn schema_key;

  /// Telemetry sink: hand a scope into an obs::Registry to record
  /// per-phase init timings ("phase.<name>_seconds" gauges), refill-map
  /// health and per-request session metrics ("session.queue_wait_ns",
  /// "session.service_ns", "session.slice_comparisons" histograms plus
  /// "session.resolve" spans). Default-constructed = disabled; the
  /// emitted stream is bit-identical either way.
  obs::TelemetryScope telemetry;

  /// Validation bounds (shared with the CLI's strict flag parsing).
  static constexpr std::size_t kMaxThreads = 256;

  /// OK iff the configuration is servable; otherwise an InvalidArgument
  /// Status naming the offending field. Called by Resolver::Create.
  Status Validate() const;
};

}  // namespace sper

#endif  // SPER_ENGINE_OPTIONS_H_
