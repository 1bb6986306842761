#include "engine/progressive_engine.h"

#include <cctype>
#include <exception>
#include <string>
#include <utility>

#include "core/macros.h"
#include "progressive/ls_psn.h"
#include "progressive/psn.h"
#include "progressive/sa_psn.h"

namespace sper {

std::string_view ToString(MethodId id) {
  switch (id) {
    case MethodId::kPsn:
      return "PSN";
    case MethodId::kSaPsn:
      return "SA-PSN";
    case MethodId::kSaPsab:
      return "SA-PSAB";
    case MethodId::kLsPsn:
      return "LS-PSN";
    case MethodId::kGsPsn:
      return "GS-PSN";
    case MethodId::kPbs:
      return "PBS";
    case MethodId::kPps:
      return "PPS";
  }
  return "?";
}

bool MethodHasBatchRefills(MethodId id) {
  return id == MethodId::kPbs || id == MethodId::kPps;
}

std::optional<MethodId> ParseMethodId(std::string_view name) {
  // Case-insensitive, and '_' is accepted for '-' so shell-friendly
  // spellings like "pps" or "sa_psn" parse.
  const auto canonical = [](std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '_') c = '-';
      out.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    return out;
  };
  const std::string wanted = canonical(name);
  for (MethodId id :
       {MethodId::kPsn, MethodId::kSaPsn, MethodId::kSaPsab,
        MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs, MethodId::kPps}) {
    if (wanted == ToString(id)) return id;
  }
  return std::nullopt;
}

ProgressiveEngine::ProgressiveEngine(const ProfileStore& store,
                                     ResolverOptions options)
    : options_(std::move(options)) {
  const obs::Stopwatch init_watch;
  const obs::TelemetryScope& scope = options_.telemetry;

  // The blocking workflow of the equality-based methods; it times its own
  // steps, and finer method sub-phases ("block_scheduling",
  // "edge_weighting", "profile_scheduling") are timed by the callees.
  std::optional<BlockCollection> workflow_blocks;
  if (MethodHasBatchRefills(options_.method)) {
    TokenWorkflowOptions workflow = options_.workflow;
    workflow.num_threads = options_.num_threads;
    workflow.telemetry = scope;
    workflow_blocks.emplace(BuildTokenWorkflowBlocks(store, workflow));
    stats_.num_blocks = workflow_blocks->size();
    stats_.aggregate_cardinality = workflow_blocks->AggregateCardinality();
  }

  {
    obs::ScopedPhase method_phase(scope, "method_build");
    switch (options_.method) {
    case MethodId::kPsn:
      SPER_CHECK(options_.schema_key != nullptr &&
                 "kPsn requires ResolverOptions::schema_key");
      inner_ = std::make_unique<PsnEmitter>(store, options_.schema_key,
                                            options_.list);
      break;
    case MethodId::kSaPsn:
      inner_ = std::make_unique<SaPsnEmitter>(store, options_.list);
      break;
    case MethodId::kSaPsab:
      inner_ = std::make_unique<SaPsabEmitter>(store, options_.suffix);
      break;
    case MethodId::kLsPsn:
      inner_ = std::make_unique<LsPsnEmitter>(store, options_.list);
      break;
    case MethodId::kGsPsn: {
      GsPsnOptions gs;
      gs.wmax = options_.gs_wmax;
      gs.list = options_.list;
      inner_ = std::make_unique<GsPsnEmitter>(store, gs);
      break;
    }
    case MethodId::kPbs: {
      PbsOptions pbs;
      pbs.scheme = options_.scheme;
      pbs.num_threads = options_.num_threads;
      pbs.telemetry = scope;
      inner_ = std::make_unique<PbsEmitter>(store, *workflow_blocks, pbs);
      break;
    }
    case MethodId::kPps: {
      PpsOptions pps;
      pps.scheme = options_.scheme;
      pps.kmax = options_.pps_kmax;
      pps.num_threads = options_.num_threads;
      pps.telemetry = scope;
      inner_ = std::make_unique<PpsEmitter>(store,
                                            std::move(*workflow_blocks), pps);
      break;
    }
    }
  }
  SPER_CHECK(inner_ != nullptr && "unknown method");

  // The batch methods' refills run on num_threads workers, in windows of
  // consecutive cursors handed to Next() strictly in cursor order.
  if (const auto* source = dynamic_cast<const BatchSource*>(inner_.get());
      source != nullptr) {
    if (scope.enabled()) {
      refill_metrics_.batches = scope.counter("pipeline.batches");
      refill_metrics_.producer_stalls =
          scope.counter("pipeline.producer_stalls");
      refill_metrics_.consumer_waits =
          scope.counter("pipeline.consumer_waits");
      refill_metrics_.refill_ns = scope.histogram("pipeline.refill_ns");
      refill_metrics_.ring_occupancy =
          scope.histogram("pipeline.ring_occupancy");
    }
    refills_ = std::make_unique<RefillMap>(
        source->num_refills(), options_.num_threads,
        [source](std::size_t k, RefillScratch& scratch, ComparisonList& out) {
          source->RefillAt(k, scratch, out);
        },
        scope.enabled() ? &refill_metrics_ : nullptr, "refill");
  }

  stats_.init_seconds = init_watch.ElapsedSeconds();
  scope.RecordSpan("init", init_watch.start(), obs::Stopwatch::Now());
  if (obs::Gauge* total = scope.gauge("phase.init_seconds");
      total != nullptr) {
    total->Add(stats_.init_seconds);
  }
}

PullStatus ProgressiveEngine::Poison(std::size_t refill,
                                     std::exception_ptr error) {
  std::string what = "unknown error";
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  status_ = Status::Internal("refill failed (engine, batch " +
                             std::to_string(refill) + "): " + what);
  return PullStatus::kError;
}

PullStatus ProgressiveEngine::PullUnbudgeted(Comparison& out,
                                             const CancelToken& token) {
  if (refills_ == nullptr) {
    // Sort-based methods: every Next() is one bounded unit of work.
    if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
    try {
      std::optional<Comparison> next = inner_->Next();
      if (!next.has_value()) return PullStatus::kExhausted;
      out = *next;
      return PullStatus::kOk;
    } catch (...) {
      return Poison(emitted(), std::current_exception());
    }
  }
  // window_ caches the window being drained so the map (and its mutex)
  // is only touched once per window, not once per comparison.
  while (window_ == nullptr || window_->Empty()) {
    bool expired = false;
    window_ = refills_->Next(token, &expired);
    if (window_ == nullptr) {
      if (expired) return PullStatus::kCancelled;
      // End of stream: clean exhaustion or a contained refill failure.
      OrderedMapError error = refills_->error();
      if (error.exception != nullptr) {
        return Poison(error.index, std::move(error.exception));
      }
      return PullStatus::kExhausted;
    }
  }
  out = window_->PopFirst();
  return PullStatus::kOk;
}

void ProgressiveEngine::Drain() {
  drained_ = true;
  if (refills_ != nullptr) refills_->Shutdown();
}

}  // namespace sper
