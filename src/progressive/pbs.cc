#include "progressive/pbs.h"

#include "blocking/block_scheduling.h"

namespace sper {

PbsEmitter::PbsEmitter(const ProfileStore& store,
                       const BlockCollection& blocks,
                       const PbsOptions& options)
    : store_(store),
      scheduled_(BlockScheduling(blocks, options.telemetry)),
      index_(scheduled_, store.size()),
      weighter_(scheduled_, index_, store, options.scheme,
                options.num_threads, options.telemetry) {}

void PbsEmitter::ProcessBlock(BlockId id, ComparisonList& out) const {
  const std::size_t from = out.size();
  scheduled_.ForEachComparison(id, [&](ProfileId i, ProfileId j) {
    // One pass over the two block lists serves both operations of the
    // Profile Index: the LeCoBI repetition test (is `id` the least common
    // block of i and j?) and Edge Weighting (accumulate contributions).
    BlockId least = kInvalidBlock;
    double accumulated = 0.0;
    index_.ForEachCommonBlock(i, j, [&](BlockId b) {
      if (least == kInvalidBlock) least = b;
      accumulated += weighter_.BlockContribution(b);
    });
    // least < id would mean the pair already appeared in an earlier block
    // (repeated comparison); least > id is impossible because `id`
    // contains both profiles.
    if (least != id) return;
    out.Add(Comparison(i, j, weighter_.Finalize(i, j, accumulated)));
  });
  out.SortDescending(from);
}

void PbsEmitter::RefillAt(std::size_t k, RefillScratch& /*scratch*/,
                          ComparisonList& out) const {
  ProcessBlock(static_cast<BlockId>(k), out);
}

}  // namespace sper
