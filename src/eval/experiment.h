#ifndef SPER_EVAL_EXPERIMENT_H_
#define SPER_EVAL_EXPERIMENT_H_

#include <memory>
#include <string_view>
#include <vector>

#include "blocking/suffix_forest.h"
#include "datagen/dataset.h"
#include "engine/method.h"
#include "engine/resolver.h"
#include "metablocking/edge_weighting.h"
#include "progressive/emitter.h"
#include "progressive/workflow.h"
#include "sorted/neighbor_list.h"

/// \file experiment.h
/// Method registry for the benchmark harness: constructs any of the
/// paper's seven progressive methods against a DatasetBundle with one
/// shared configuration (the paper's Sec. 7 "Parameter configuration").
/// MethodId itself lives in engine/method.h; resolvers are built through
/// the unified Resolver serving API (engine/resolver.h).

namespace sper {

/// Shared method configuration (defaults = the paper's settings).
struct MethodConfig {
  /// GS-PSN window range (paper: 20 structured, 200 large).
  std::size_t gs_wmax = 20;
  /// PPS comparisons retained per profile.
  std::size_t pps_kmax = 100;
  /// SA-PSAB suffix forest parameters.
  SuffixForestOptions suffix;
  /// Edge weighting for PBS/PPS (paper: ARCS).
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// Token Blocking Workflow for PBS/PPS (paper: purge 10%, filter 80%).
  TokenWorkflowOptions workflow;
  /// Neighbor List construction (tie shuffling seed etc.).
  NeighborListOptions list;
  /// Threads for the initialization phase and the PBS/PPS refill
  /// workers (1 = one thread; emitted sequences are identical at every
  /// thread count).
  std::size_t num_threads = 1;
  /// Global pay-as-you-go budget (ResolverOptions::budget): maximum
  /// comparisons emitted across the whole run; 0 = unlimited.
  std::uint64_t budget = 0;
  /// Telemetry sink (ResolverOptions::telemetry): default = disabled.
  obs::TelemetryScope telemetry;
};

/// The ResolverOptions equivalent of a MethodConfig for one method on one
/// dataset (the dataset supplies the PSN schema key). MethodConfig is the
/// old lenient surface: out-of-range thread counts are
/// normalized into ResolverOptions' validated ranges rather than
/// rejected, so every config the harness ever ran keeps running.
ResolverOptions ToResolverOptions(MethodId id, const DatasetBundle& dataset,
                                  const MethodConfig& config);

/// Builds the requested resolver on the dataset via Resolver::Create. The
/// construction cost is the method's full initialization phase, including
/// blocking for the equality-based methods. Returns nullptr for PSN on
/// datasets without a literature blocking key (the heterogeneous ones);
/// degenerate method knobs (e.g. pps_kmax = 0) abort with the Create()
/// error printed.
std::unique_ptr<Resolver> MakeResolver(MethodId id,
                                       const DatasetBundle& dataset,
                                       const MethodConfig& config);

/// The methods compared on structured datasets (Figs. 9-10), paper order.
const std::vector<MethodId>& StructuredMethodSet();
/// The schema-agnostic methods compared on heterogeneous datasets
/// (Figs. 11-12).
const std::vector<MethodId>& HeterogeneousMethodSet();

}  // namespace sper

#endif  // SPER_EVAL_EXPERIMENT_H_
