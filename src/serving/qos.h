#ifndef SPER_SERVING_QOS_H_
#define SPER_SERVING_QOS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "engine/resolver.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "serving/token_bucket.h"
#include "serving/wrr.h"

/// \file qos.h
/// The overload-control layer in front of a Resolver: a
/// QosAdmissionController decides — *before* a request takes a resolver
/// ticket — whether it runs now, waits, or fails fast. Four mechanisms
/// compose, applied in this order:
///
///   1. per-client rate limiting: a deterministic token bucket per
///      ClientId (serving/token_bucket.h); over-rate requests are shed
///      with ResourceExhausted and a `retry_after_ms` backoff hint that
///      grows exponentially under consecutive sheds;
///   2. load shedding: once total queue depth or the EWMA-estimated queue
///      wait exceeds its bound, new requests are shed instead of queued —
///      the queue stays short enough that admitted interactive requests
///      keep their tail latency (BENCH_loadgen.json measures exactly
///      this: shedding on cuts interactive p99 under overload);
///   3. priority scheduling: admitted requests wait in one FIFO lane per
///      Priority class, and a smooth weighted-round-robin scheduler
///      (serving/wrr.h, default weights 8/2/1) picks which lane
///      dispatches next — interactive work dominates without starving
///      batch (the WRR cycle bounds every class's share);
///   4. doomed-request eviction: a request whose deadline will expire
///      before its estimated service start is failed immediately
///      (kEvicted: the deadline is missed, as with kDeadlineExpired)
///      instead of occupying a queue slot it can never use.
///
/// Dispatch is serialized: one request holds the resolver at a time, so
/// the resolver's ticket order *is* the WRR dispatch order and the
/// bit-identity guarantee survives — concatenating admitted slices in
/// ticket order still equals one un-batched drain. Shed, evicted and
/// rejected requests never take a ticket and never consume the stream.
///
/// Time is read through an injected obs::ClockSource, so tests drive the
/// whole controller from an obs::ManualClock and every admit/shed/evict
/// decision is deterministic. Composes with Resolver::Drain() and
/// poisoned engines: queued requests dispatched into a draining/poisoned
/// resolver come back kRejected exactly as direct callers would.
///
/// Fault seams (obs/fault_injection.h): "qos.admit" on every entering
/// request, "qos.shed" on the shed path, "qos.evict" on the eviction
/// path — all hit outside the controller mutex.

namespace sper {
namespace serving {

/// Configuration of a QosAdmissionController. Defaults are servable.
struct QosOptions {
  /// WRR weight per priority class, indexed by Priority. Zero weights are
  /// treated as 1 by the scheduler; Validate() rejects all-zero.
  std::array<std::uint32_t, kNumPriorities> weights = {8, 2, 1};

  /// Shed once this many requests are queued (all classes combined);
  /// 0 = unbounded depth.
  std::size_t max_queue_depth = 256;

  /// Shed once the EWMA-estimated queue wait for a new request exceeds
  /// this; 0 = no wait bound. The estimate is
  /// (queued + in_service) * ewma_service_time.
  std::uint64_t max_queue_wait_ms = 0;

  /// Per-client token bucket: sustained requests/second and burst size.
  /// rate 0 disables rate limiting.
  double client_rate = 0.0;
  double client_burst = 8.0;

  /// Master switch for mechanisms 2 and 4 (depth/wait shedding and
  /// doomed eviction). Rate limiting (1) and priority scheduling (3)
  /// stay active regardless — the benchmark's "shedding off" arm is this
  /// switch off, which is also plain-FIFO-with-lanes behavior.
  bool shed_enabled = true;

  /// Eviction sub-switch (only meaningful when shed_enabled).
  bool evict_doomed = true;

  /// Backoff hint growth for kShed results: hint =
  /// max(bucket_refill_ms, base << consecutive_sheds), capped.
  std::uint64_t retry_after_base_ms = 1;
  std::uint64_t retry_after_cap_ms = 1000;

  /// Time source for every QoS decision. Defaults to the process
  /// monotonic clock; tests inject an obs::ManualClock.
  const obs::ClockSource* clock = nullptr;

  /// Metric sink: per-class counters "qos.<class>.admitted" / ".sheds" /
  /// ".evictions", per-class histogram "qos.<class>.queue_wait_ns",
  /// gauge "qos.queue_depth", counter "qos.rate_limited".
  obs::TelemetryScope telemetry;

  /// OK iff the configuration is servable (some weight positive, burst
  /// >= 1 when rate limiting, cap >= base).
  Status Validate() const;
};

/// Aggregate per-class observable state, independent of telemetry (tests
/// read these; the metric sinks mirror them).
struct ClassStats {
  std::uint64_t admitted = 0;   // dispatched into the resolver
  std::uint64_t sheds = 0;      // depth/wait sheds + rate-limit sheds
  std::uint64_t evictions = 0;  // doomed-request evictions
  std::uint64_t queued = 0;     // currently waiting in the lane
};

/// The admission controller. Thread-safe: Resolve() may be called from
/// any number of client threads; the controller serializes dispatch into
/// the underlying resolver. The resolver must outlive the controller.
class QosAdmissionController {
 public:
  /// `options` must Validate(); SPER_CHECK-enforced.
  QosAdmissionController(Resolver& resolver, QosOptions options);

  /// Serves one request under QoS. Blocking for admitted requests (lane
  /// wait + serve); immediate for shed/evicted ones. See the file
  /// comment for the decision order.
  ResolveResult Resolve(const ResolveRequest& request);

  /// Per-class counters, consistent snapshot.
  ClassStats stats(Priority priority) const;

  /// Total requests currently queued across all lanes.
  std::size_t queue_depth() const;

  /// Test hook: while paused, queued requests accumulate instead of
  /// dispatching; un-pausing dispatches the backlog in WRR order. Lets a
  /// deterministic test stage a known queue mix and observe the exact
  /// dispatch order / eviction decisions.
  void SetDispatchPaused(bool paused);

  /// Seeds the EWMA service-time estimate that queue-wait shedding and
  /// doomed-request eviction reason with (normally learned from completed
  /// serves). Lets an operator pre-load the model at startup — and lets a
  /// ManualClock test exercise the estimate-driven paths, which would
  /// otherwise see an estimate of zero forever.
  void PrimeServiceEstimate(std::uint64_t service_ns);

  const QosOptions& options() const { return options_; }

 private:
  /// One blocked Resolve() call, living on its caller's stack. The
  /// pointer stays in exactly one lane until the waiter is selected or
  /// evicted, and the caller cannot return (destroying it) before then.
  struct Waiter {
    std::uint64_t enqueue_ns = 0;
    std::uint64_t deadline_ns = 0;  // absolute (clock domain); 0 = none
    bool selected = false;
    bool evicted = false;
  };

  /// Selects and wakes the next waiter (WRR over non-empty lanes),
  /// evicting doomed lane heads along the way. No-op while paused, while
  /// a request is in service, or when every lane is empty.
  void DispatchNextLocked() SPER_REQUIRES(mutex_);

  /// Estimated queue wait of a request entering now, behind `ahead`
  /// requests (queued plus any in service).
  std::uint64_t EstimatedWaitNs(std::size_t ahead) const SPER_REQUIRES(mutex_);

  /// Exponential backoff hint for a client's n-th consecutive shed.
  std::uint64_t BackoffMs(std::uint32_t consecutive_sheds) const;

  /// Builds the kShed result (ResourceExhausted + retry hint) and bumps
  /// the shed accounting for (client, priority).
  ResolveResult ShedLocked(ClientId client, Priority priority,
                           std::string reason, std::uint64_t bucket_wait_ms)
      SPER_REQUIRES(mutex_);

  Resolver& resolver_;
  const QosOptions options_;
  const obs::ClockSource* clock_;  // never null after construction

  mutable Mutex mutex_;
  CondVar cv_;

  /// Per-client rate-limit + backoff state. std::map (not unordered) so
  /// any future iteration is deterministic by ClientId.
  struct ClientState {
    TokenBucket bucket;
    std::uint32_t consecutive_sheds = 0;
  };
  std::map<ClientId, ClientState> clients_ SPER_GUARDED_BY(mutex_);

  std::array<std::deque<Waiter*>, kNumPriorities> lanes_
      SPER_GUARDED_BY(mutex_);
  SmoothWeightedRoundRobin<kNumPriorities> wrr_ SPER_GUARDED_BY(mutex_);
  std::size_t queued_total_ SPER_GUARDED_BY(mutex_) = 0;
  bool in_service_ SPER_GUARDED_BY(mutex_) = false;
  bool paused_ SPER_GUARDED_BY(mutex_) = false;

  /// EWMA of resolver service time, new = (3*old + sample) / 4; 0 until
  /// the first completion.
  std::uint64_t ewma_service_ns_ SPER_GUARDED_BY(mutex_) = 0;

  std::array<ClassStats, kNumPriorities> stats_ SPER_GUARDED_BY(mutex_);

  /// Metric sinks (nullptr when telemetry is disabled).
  std::array<obs::Counter*, kNumPriorities> admitted_metric_{};
  std::array<obs::Counter*, kNumPriorities> sheds_metric_{};
  std::array<obs::Counter*, kNumPriorities> evictions_metric_{};
  std::array<obs::Histogram*, kNumPriorities> queue_wait_metric_{};
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Counter* rate_limited_metric_ = nullptr;
};

}  // namespace serving
}  // namespace sper

#endif  // SPER_SERVING_QOS_H_
