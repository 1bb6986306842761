#include "eval/experiment.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sper {

ResolverOptions ToResolverOptions(MethodId id, const DatasetBundle& dataset,
                                  const MethodConfig& config) {
  ResolverOptions options;
  options.method = id;
  options.num_threads = config.num_threads;
  options.budget = config.budget;
  options.workflow = config.workflow;
  options.scheme = config.scheme;
  options.pps_kmax = config.pps_kmax;
  options.gs_wmax = config.gs_wmax;
  options.suffix = config.suffix;
  options.list = config.list;
  options.schema_key = dataset.psn_key;
  options.telemetry = config.telemetry;
  // MethodConfig is the old lenient surface (the engines historically
  // accepted any thread count, with 0 meaning one); ResolverOptions
  // validates instead, so normalize into range here at the boundary —
  // MakeResolver must not start rejecting configs that used to run.
  if (options.num_threads == 0) options.num_threads = 1;
  options.num_threads =
      std::min(options.num_threads, ResolverOptions::kMaxThreads);
  return options;
}

std::unique_ptr<Resolver> MakeResolver(MethodId id,
                                       const DatasetBundle& dataset,
                                       const MethodConfig& config) {
  if (id == MethodId::kPsn && !dataset.psn_key) return nullptr;
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(dataset.store, ToResolverOptions(id, dataset, config));
  if (!resolver.ok()) {
    // Only reachable for degenerate method knobs (e.g. pps_kmax = 0);
    // the serving-shape knobs are normalized above. Name the reason
    // before the check aborts.
    std::fprintf(stderr, "MakeResolver: %s\n",
                 resolver.status().ToString().c_str());
    SPER_CHECK(false && "MethodConfig produced an invalid resolver");
  }
  return std::move(resolver).value();
}

const std::vector<MethodId>& StructuredMethodSet() {
  static const std::vector<MethodId> methods = {
      MethodId::kPsn,   MethodId::kSaPsn, MethodId::kSaPsab,
      MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs,
      MethodId::kPps};
  return methods;
}

const std::vector<MethodId>& HeterogeneousMethodSet() {
  static const std::vector<MethodId> methods = {
      MethodId::kSaPsn, MethodId::kSaPsab, MethodId::kLsPsn,
      MethodId::kGsPsn, MethodId::kPbs,    MethodId::kPps};
  return methods;
}

}  // namespace sper
