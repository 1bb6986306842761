#include "eval/experiment.h"

#include <cstdio>
#include <utility>

namespace sper {

std::unique_ptr<Resolver> MakeResolver(const DatasetBundle& dataset,
                                       ResolverOptions options) {
  if (options.method == MethodId::kPsn && !dataset.psn_key) return nullptr;
  options.schema_key = dataset.psn_key;
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(dataset.store, std::move(options));
  if (!resolver.ok()) {
    std::fprintf(stderr, "MakeResolver: %s\n",
                 resolver.status().ToString().c_str());
    SPER_CHECK(false && "MakeResolver: invalid ResolverOptions");
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
