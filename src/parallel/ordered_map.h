#ifndef SPER_PARALLEL_ORDERED_MAP_H_
#define SPER_PARALLEL_ORDERED_MAP_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/clock.h"
#include "obs/fault_injection.h"
#include "obs/metrics.h"
#include "parallel/cancel.h"

/// \file ordered_map.h
/// The ordered parallel map behind emission: computes f(0), f(1), ...,
/// f(n-1) on N worker threads and hands the results to one consumer
/// strictly in index order. The engines run the refills of the batch
/// methods (PPS, PBS) through it — each refill is a pure function of its
/// cursor (progressive/emitter.h, BatchSource), so the consumer sees
/// exactly the serial stream at every worker count.
///
/// Work is claimed in *windows* of kWindow consecutive indexes from a
/// shared counter; a window's outputs are appended, in index order, into
/// one reusable Batch slot. A worker may claim window w only while
/// w < consumed + num_threads * kSlotsPerWorker, where `consumed` counts
/// the windows the consumer has released — that bound is the
/// backpressure: a slow consumer never has more than that many windows
/// computed or in flight, and slots are reused without allocation once
/// warm. The consumer takes windows strictly in order, waiting (with a
/// cancellable, deadline-aware wait) when the next one is unfinished.

namespace sper {

/// Runtime-health metric sinks of one OrderedMap. All pointers are
/// optional (nullptr = not recorded); the owner must keep them alive for
/// the map's lifetime. Recording adds relaxed updates only, never extra
/// synchronization, so the output is identical with or without them.
struct OrderedMapMetrics {
  /// Windows completed by the workers.
  obs::Counter* batches = nullptr;
  /// Claims that found the window bound reached and had to wait
  /// (consumption is the bottleneck).
  obs::Counter* producer_stalls = nullptr;
  /// Consumer calls that found the next window unfinished and had to wait
  /// (production is the bottleneck).
  obs::Counter* consumer_waits = nullptr;
  /// Wall nanoseconds per item (one refill).
  obs::Histogram* refill_ns = nullptr;
  /// Finished windows ahead of the consumer, observed after each window
  /// completes (0..num_threads * kSlotsPerWorker).
  obs::Histogram* ring_occupancy = nullptr;
};

/// How the map stopped early: the index of the item whose computation
/// threw, and the captured exception. `exception == nullptr` means no
/// item has failed (so far).
struct OrderedMapError {
  std::size_t index = 0;
  std::exception_ptr exception;
};

/// Ordered N-worker map over the indexes [0, num_items). `Batch` must
/// provide Clear(); `Scratch` is default-constructed once per worker, in
/// the worker thread, and passed to every call that worker makes.
template <typename Batch, typename Scratch>
class OrderedMap {
 public:
  /// Appends item `index`'s output to `out`.
  using Produce =
      std::function<void(std::size_t index, Scratch& scratch, Batch& out)>;

  /// Consecutive indexes per claim and per Batch slot.
  static constexpr std::size_t kWindow = 16;
  /// Windows each worker may have claimed or finished ahead of the
  /// consumer.
  static constexpr std::size_t kSlotsPerWorker = 4;

  /// Starts `num_threads` workers (at least 1). `fault_site`, when
  /// non-empty, names the fault-injection seam fired before each item,
  /// on the worker (fault builds only; see obs/fault_injection.h).
  OrderedMap(std::size_t num_items, std::size_t num_threads, Produce produce,
             const OrderedMapMetrics* metrics = nullptr,
             std::string fault_site = {})
      : num_items_(num_items),
        num_windows_((num_items + kWindow - 1) / kWindow),
        produce_(std::move(produce)),
        metrics_(metrics),
        fault_site_(std::move(fault_site)),
        batches_(std::max<std::size_t>(1, num_threads) * kSlotsPerWorker),
        slots_(batches_.size()) {
    const std::size_t workers = std::max<std::size_t>(1, num_threads);
    workers_.reserve(workers);
    try {
      for (std::size_t t = 0; t < workers; ++t) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    } catch (...) {
      Shutdown();  // join the workers already started
      throw;
    }
  }

  /// Stops and joins the workers (see Shutdown()).
  ~OrderedMap() { Shutdown(); }

  OrderedMap(const OrderedMap&) = delete;
  OrderedMap& operator=(const OrderedMap&) = delete;

  /// Consumer: releases the window returned by the previous call and
  /// returns the next one, in index order, waiting until it is finished.
  /// Returns nullptr when
  ///   - `token` fires first: *expired = true, nothing is lost — the next
  ///     call waits for the same window again;
  ///   - the map is exhausted or shut down: *expired = false;
  ///   - an item of the window threw: *expired = false and error() says
  ///     which (sticky; every window before it was returned normally).
  /// A null token waits without polling; a deadline is honored via a
  /// timed wait, an explicit Cancel() within kCancelPollInterval.
  Batch* Next(const CancelToken& token, bool* expired) {
    *expired = false;
    MutexLock lock(mutex_);
    if (holding_) {
      holding_ = false;
      ++consumed_;
      can_claim_.NotifyOne();
    }
    const bool waited = !CanConsumeLocked();
    while (!CanConsumeLocked()) {
      if (!token.valid()) {
        window_done_.Wait(lock);
        continue;
      }
      if (token.cancelled()) {
        *expired = true;
        break;
      }
      auto wake = CancelToken::Clock::now() + kCancelPollInterval;
      if (token.has_deadline()) wake = std::min(wake, token.deadline());
      window_done_.WaitUntil(lock, wake);
    }
    if (waited && metrics_ != nullptr && metrics_->consumer_waits != nullptr) {
      metrics_->consumer_waits->Add();
    }
    if (*expired || stopped_ || consumed_ >= num_windows_) return nullptr;
    const std::size_t slot = consumed_ % batches_.size();
    if (slots_[slot].error != nullptr) return nullptr;
    holding_ = true;
    --finished_ahead_;
    return &batches_[slot];
  }

  /// The failure that stopped the stream, once Next() returned nullptr
  /// for it; `.exception == nullptr` otherwise.
  OrderedMapError error() const {
    MutexLock lock(mutex_);
    if (stopped_ || consumed_ >= num_windows_) return {};
    const SlotState& state = slots_[consumed_ % batches_.size()];
    if (state.window != consumed_ || state.error == nullptr) return {};
    return {state.error_index, state.error};
  }

  /// Stops the workers and joins them: no new window is claimed, windows
  /// in progress are finished, and every later Next() returns nullptr.
  /// Consumer side only; idempotent.
  void Shutdown() {
    {
      MutexLock lock(mutex_);
      stopped_ = true;
    }
    can_claim_.NotifyAll();
    window_done_.NotifyAll();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  /// Readiness of one slot: which window it last finished, and how.
  struct SlotState {
    std::size_t window = static_cast<std::size_t>(-1);
    std::exception_ptr error;
    std::size_t error_index = 0;
  };

  /// A worker may claim the next window, or must exit.
  bool CanClaimLocked() const SPER_REQUIRES(mutex_) {
    return MustExitLocked() || next_claim_ < consumed_ + batches_.size();
  }

  bool MustExitLocked() const SPER_REQUIRES(mutex_) {
    return stopped_ || failed_ || next_claim_ >= num_windows_;
  }

  /// The consumer has something to see: its window, or end/abort.
  bool CanConsumeLocked() const SPER_REQUIRES(mutex_) {
    return stopped_ || consumed_ >= num_windows_ ||
           slots_[consumed_ % batches_.size()].window == consumed_;
  }

  void WorkerLoop() {
    Scratch scratch;
    for (;;) {
      std::size_t window = 0;
      {
        MutexLock lock(mutex_);
        const bool stalled = !CanClaimLocked();
        while (!CanClaimLocked()) can_claim_.Wait(lock);
        if (MustExitLocked()) return;
        window = next_claim_++;
        if (stalled && metrics_ != nullptr &&
            metrics_->producer_stalls != nullptr) {
          metrics_->producer_stalls->Add();
        }
      }
      const std::size_t slot = window % batches_.size();
      Batch& out = batches_[slot];
      out.Clear();
      const std::size_t end = std::min(num_items_, (window + 1) * kWindow);
      std::size_t index = window * kWindow;
      std::exception_ptr error;
      try {
        for (; index < end; ++index) {
          SPER_FAULT_HIT(fault_site_);
          if (metrics_ == nullptr || metrics_->refill_ns == nullptr) {
            produce_(index, scratch, out);
          } else {
            const obs::Stopwatch watch;
            produce_(index, scratch, out);
            metrics_->refill_ns->Record(watch.ElapsedNanos());
          }
        }
      } catch (...) {
        error = std::current_exception();
      }
      {
        MutexLock lock(mutex_);
        SlotState& state = slots_[slot];
        state.window = window;
        state.error = error;
        state.error_index = index;
        // After a failure no later window matters: the consumer stops at
        // the first failed one. Windows before it are already claimed.
        if (error != nullptr) failed_ = true;
        ++finished_ahead_;
        if (metrics_ != nullptr) {
          if (metrics_->batches != nullptr) metrics_->batches->Add();
          if (metrics_->ring_occupancy != nullptr) {
            metrics_->ring_occupancy->Record(finished_ahead_);
          }
        }
      }
      window_done_.NotifyOne();
      if (error != nullptr) can_claim_.NotifyAll();
    }
  }

  const std::size_t num_items_;
  const std::size_t num_windows_;
  const Produce produce_;
  const OrderedMapMetrics* const metrics_;
  const std::string fault_site_;

  mutable Mutex mutex_;
  CondVar can_claim_;
  CondVar window_done_;
  /// Window outputs, slot w % size for window w. Deliberately NOT
  /// guarded: a worker fills its slot outside the lock between claim and
  /// completion, the consumer reads it between Next() and the following
  /// Next(); the claim bound keeps the two on distinct slots, and the
  /// mutex around every transition orders the handoff.
  std::vector<Batch> batches_;
  std::vector<SlotState> slots_ SPER_GUARDED_BY(mutex_);
  std::size_t next_claim_ SPER_GUARDED_BY(mutex_) = 0;
  /// Windows the consumer has released.
  std::size_t consumed_ SPER_GUARDED_BY(mutex_) = 0;
  /// Finished windows the consumer has not taken yet (telemetry:
  /// ring_occupancy).
  std::size_t finished_ahead_ SPER_GUARDED_BY(mutex_) = 0;
  /// The consumer holds window `consumed_` (returned by the last Next()).
  bool holding_ SPER_GUARDED_BY(mutex_) = false;
  bool failed_ SPER_GUARDED_BY(mutex_) = false;
  bool stopped_ SPER_GUARDED_BY(mutex_) = false;
  /// Declared last: constructed after every field the workers read.
  std::vector<std::thread> workers_;
};

}  // namespace sper

#endif  // SPER_PARALLEL_ORDERED_MAP_H_
