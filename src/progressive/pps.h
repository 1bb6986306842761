#ifndef SPER_PROGRESSIVE_PPS_H_
#define SPER_PROGRESSIVE_PPS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/profile_index.h"
#include "core/profile_store.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"

/// \file pps.h
/// Progressive Profile Scheduling (PPS, paper Sec. 5.2.2, Algorithms 5-6).
///
/// Entity-centric: every profile gets a *duplication likelihood* — the
/// average weight of its incident blocking-graph edges — and profiles are
/// resolved in decreasing order of it (the Sorted Profile List). The
/// initialization phase additionally collects the single best comparison
/// of every node, so the globally best edges are emitted first; during
/// emission each profile contributes its Kmax best comparisons, skipping
/// neighbors that were already processed (checkedEntities).
///
/// checkedEntities is not state that refills have to thread through one
/// another: when the profile at Sorted Profile List position p is
/// processed, exactly the profiles at positions 0..p have been processed.
/// So a neighbor j counts as checked iff rank(j) <= rank(i), a fact fixed
/// by the initialization phase, and every refill is a pure function of
/// its cursor (see BatchSource).

namespace sper {

/// Options of PPS.
struct PpsOptions {
  /// Blocking-graph edge-weighting scheme.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// Top-weighted comparisons kept per profile during emission. Must
  /// exceed the largest plausible equivalence-cluster size, or recall is
  /// capped (a cluster of k duplicates needs up to k-1 emissions from one
  /// profile). Use SIZE_MAX to retain whole neighborhoods (then every
  /// graph edge is eventually emitted — the Same Eventual Quality
  /// configuration).
  std::size_t kmax = 100;
  /// Threads for the initialization phase (per-profile duplication
  /// likelihoods + top comparisons). The emitted sequence is identical at
  /// every thread count. (Emission threads are the engine's: refills are
  /// independent, see BatchSource.)
  std::size_t num_threads = 1;
  /// Telemetry sink for the initialization phase timers
  /// ("edge_weighting", "profile_scheduling").
  obs::TelemetryScope telemetry;
};

/// The PPS emitter.
class PpsEmitter : public ProgressiveEmitter, public BatchSource {
 public:
  /// Initialization phase (Algorithm 5): builds the Profile Index over
  /// `blocks`, computes per-profile duplication likelihoods, the Sorted
  /// Profile List and the top-weighted comparison of every node. Takes the
  /// collection by value (move it in to avoid the copy).
  PpsEmitter(const ProfileStore& store, BlockCollection blocks,
             const PpsOptions& options = {});

  /// Emission phase (Algorithm 6): pops from the Comparison List; when it
  /// empties, processes the next profile of the Sorted Profile List,
  /// gathering its Kmax best comparisons among not-yet-checked neighbors.
  std::optional<Comparison> Next() override { return NextFromRefills(); }

  /// The initial top-comparison list, then one refill per Sorted Profile
  /// List entry.
  std::size_t num_refills() const override {
    return sorted_profiles_.size() + 1;
  }

  /// Refill 0 is the initial top-comparison list (served in place, not
  /// copied); refill k >= 1 processes the profile at Sorted Profile List
  /// position k - 1, gathering its Kmax best comparisons among neighbors
  /// of larger rank.
  void RefillAt(std::size_t k, RefillScratch& scratch,
                ComparisonList& out) const override;

  std::string_view name() const override { return "PPS"; }

  /// The Sorted Profile List as (profile, duplication likelihood) pairs in
  /// processing order (diagnostics / tests).
  const std::vector<std::pair<ProfileId, double>>& sorted_profiles() const {
    return sorted_profiles_;
  }

 private:
  const ProfileStore& store_;
  BlockCollection blocks_;
  ProfileIndex index_;
  EdgeWeighter weighter_;
  PpsOptions options_;

  std::vector<std::pair<ProfileId, double>> sorted_profiles_;
  /// Sorted Profile List position of every profile; UINT32_MAX for the
  /// profiles without neighbors (never anyone's neighbor, never checked).
  /// Replaces the checkedEntities array of Algorithm 6.
  std::vector<std::uint32_t> rank_;
  /// Refill 0: every node's top comparison, deduplicated, in emission
  /// order.
  std::vector<Comparison> initial_;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_PPS_H_
