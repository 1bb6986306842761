#ifndef SPER_OBS_TELEMETRY_H_
#define SPER_OBS_TELEMETRY_H_

#include <string>
#include <string_view>
#include <utility>

#include "obs/clock.h"
#include "obs/registry.h"

/// \file telemetry.h
/// The instrumentation seam that library code holds: a TelemetryScope is
/// a Registry handle that flows through options structs
/// (ResolverOptions -> workflow / emitter options). Code
/// instruments unconditionally against the scope; the scope decides
/// whether anything happens. The off-mode is a default-constructed scope:
/// it has no registry, so counter()/gauge()/histogram() return nullptr
/// and RecordSpan is a no-op — instrumented sites cost one pointer test.
///
/// ScopedPhase is the RAII phase timer built on top: it times a named
/// phase and records gauge "phase.<name>_seconds" plus a span into the
/// scope — the one phase-timing path.

namespace sper {
namespace obs {

/// A handle into a Registry. Copyable and cheap; disabled when
/// default-constructed (no registry).
class TelemetryScope {
 public:
  TelemetryScope() = default;
  explicit TelemetryScope(Registry* registry) : registry_(registry) {}

  bool enabled() const { return registry_ != nullptr; }
  Registry* registry() const { return registry_; }

  /// Get-or-create the named metric; nullptr when disabled.
  Counter* counter(std::string_view name) const {
    return enabled() ? registry_->counter(name) : nullptr;
  }
  Gauge* gauge(std::string_view name) const {
    return enabled() ? registry_->gauge(name) : nullptr;
  }
  Histogram* histogram(std::string_view name) const {
    return enabled() ? registry_->histogram(name) : nullptr;
  }

  /// Records the named span; no-op when disabled.
  void RecordSpan(std::string_view name, Stopwatch::TimePoint start,
                  Stopwatch::TimePoint end, std::string args_json = {}) const {
    if (enabled()) {
      registry_->RecordSpan(name, start, end, std::move(args_json));
    }
  }

 private:
  Registry* registry_ = nullptr;
};

/// RAII timer for one named phase: on destruction records gauge
/// "phase.<name>_seconds" and a span "<name>" into the scope; a no-op
/// beyond one clock read when the scope is disabled.
class ScopedPhase {
 public:
  ScopedPhase(const TelemetryScope& scope, std::string_view name)
      : scope_(scope), name_(name) {}

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (!scope_.enabled()) return;
    const Stopwatch::TimePoint end = Stopwatch::Now();
    scope_.gauge("phase." + name_ + "_seconds")
        ->Add(Stopwatch::Seconds(watch_.start(), end));
    scope_.RecordSpan(name_, watch_.start(), end);
  }

 private:
  const TelemetryScope& scope_;
  std::string name_;
  Stopwatch watch_;
};

}  // namespace obs
}  // namespace sper

#endif  // SPER_OBS_TELEMETRY_H_
