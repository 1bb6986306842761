#ifndef SPER_ENGINE_METHOD_H_
#define SPER_ENGINE_METHOD_H_

#include <optional>
#include <string_view>

/// \file method.h
/// Identifiers of the paper's seven progressive methods. Lives in the
/// engine layer so both the ProgressiveEngine facade and the eval harness
/// name methods the same way; eval/experiment.h re-exports it.

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

}  // namespace sper

#endif  // SPER_ENGINE_METHOD_H_
