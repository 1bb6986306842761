#ifndef SPER_EVAL_EXPERIMENT_H_
#define SPER_EVAL_EXPERIMENT_H_

#include <memory>
#include <vector>

#include "datagen/dataset.h"
#include "engine/resolver.h"

/// \file experiment.h
/// Method registry for the benchmark harness: builds a Resolver for any
/// of the paper's seven progressive methods against a DatasetBundle from
/// one shared ResolverOptions (the paper's Sec. 7 "Parameter
/// configuration").

namespace sper {

/// Builds a resolver for `options.method` on the dataset via
/// Resolver::Create; the dataset supplies the PSN schema key, everything
/// else comes from `options` as the caller set it. The construction cost
/// is the method's full initialization phase, including blocking for the
/// equality-based methods. Returns nullptr for PSN on datasets without a
/// literature blocking key (the heterogeneous ones); an invalid `options`
/// aborts with the Create() error printed.
std::unique_ptr<Resolver> MakeResolver(const DatasetBundle& dataset,
                                       ResolverOptions options);

/// The methods compared on structured datasets (Figs. 9-10), paper order.
const std::vector<MethodId>& StructuredMethodSet();
/// The schema-agnostic methods compared on heterogeneous datasets
/// (Figs. 11-12).
const std::vector<MethodId>& HeterogeneousMethodSet();

}  // namespace sper

#endif  // SPER_EVAL_EXPERIMENT_H_
