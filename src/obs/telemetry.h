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
/// (ResolverOptions -> EngineConfig -> workflow / emitter options). Code
/// instruments unconditionally against the scope; the scope decides
/// whether anything happens. The off-mode is a default-constructed scope:
/// it has no registry, so counter()/gauge()/histogram() return nullptr
/// and RecordSpan is a no-op — instrumented sites cost one pointer test.
///
/// ScopedPhase is the RAII phase timer built on top: it times a named
/// phase, records gauge "phase.<name>_seconds" plus a span into the
/// scope, and always fills an optional double* out-param — so diagnostics
/// like InitStats keep their numbers even with telemetry off.

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

/// RAII timer for one named phase: on destruction (or Stop()) records
/// gauge "phase.<name>_seconds" and a span "<name>" into the scope, and
/// fills *out_seconds when given. The out-param is filled even when the
/// scope is disabled — callers use it to populate always-on diagnostics
/// such as InitStats.
class ScopedPhase {
 public:
  ScopedPhase(const TelemetryScope& scope, std::string_view name,
              double* out_seconds = nullptr)
      : scope_(scope), name_(name), out_seconds_(out_seconds) {}

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() { Stop(); }

  /// Ends the phase early (idempotent).
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    const Stopwatch::TimePoint end = Stopwatch::Now();
    const double seconds = Stopwatch::Seconds(watch_.start(), end);
    if (out_seconds_ != nullptr) *out_seconds_ = seconds;
    if (scope_.enabled()) {
      std::string gauge_name = "phase.";
      gauge_name += name_;
      gauge_name += "_seconds";
      scope_.gauge(gauge_name)->Add(seconds);
      scope_.RecordSpan(name_, watch_.start(), end);
    }
  }

 private:
  const TelemetryScope& scope_;
  std::string name_;
  double* out_seconds_;
  Stopwatch watch_;
  bool stopped_ = false;
};


}  // namespace obs
}  // namespace sper

#endif  // SPER_OBS_TELEMETRY_H_
