#include "blocking/block_filtering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "blocking/profile_index.h"
#include "core/types.h"
#include "parallel/parallel_for.h"

namespace sper {

BlockCollection BlockFiltering(const BlockCollection& input,
                               const BlockFilteringOptions& options) {
  // Pass 1: every profile's blocks, as the counting-sort CSR of the
  // Profile Index. Profile ids are dense, so the index is sized by the
  // largest member id.
  ProfileId num_profiles = 0;
  for (ProfileId p : input.all_members()) {
    num_profiles = std::max(num_profiles, p + 1);
  }
  const ProfileIndex index(input, num_profiles);

  // A block's rank among a profile's blocks: by size, ties on block id.
  // The key is unique per block, so "the ceil(ratio*|B_i|) smallest" is
  // exactly the set of blocks whose key is at most the retained-th
  // smallest one.
  const auto rank_key = [&input](BlockId b) {
    return (static_cast<std::uint64_t>(input.block_size(b)) << 32) | b;
  };

  // Pass 2 (parallel over profiles): each profile's cutoff key. A profile
  // keeps block b iff rank_key(b) <= cutoff[p]; every profile owns its
  // slot.
  std::vector<std::uint64_t> cutoff(num_profiles, UINT64_MAX);
  ParallelForChunks(
      num_profiles, options.num_threads,
      [&](std::size_t /*chunk*/, IndexRange range) {
        std::vector<std::uint64_t> keys;
        for (std::size_t p = range.begin; p < range.end; ++p) {
          const std::span<const BlockId> blocks =
              index.BlocksOf(static_cast<ProfileId>(p));
          const std::size_t retained = static_cast<std::size_t>(
              std::ceil(options.ratio * static_cast<double>(blocks.size())));
          if (retained >= blocks.size()) continue;
          if (retained == 0) {
            cutoff[p] = 0;
            continue;
          }
          keys.clear();
          for (BlockId b : blocks) keys.push_back(rank_key(b));
          std::nth_element(keys.begin(), keys.begin() + (retained - 1),
                           keys.end());
          cutoff[p] = keys[retained - 1];
        }
      });

  // Pass 3 (parallel over blocks): how many members of each source every
  // block keeps, hence its filtered cardinality.
  struct Kept {
    std::uint32_t n1 = 0;
    std::uint32_t n2 = 0;
  };
  const auto count_kept = [&](BlockId b, std::span<const ProfileId> range) {
    const std::uint64_t key = rank_key(b);
    std::uint32_t n = 0;
    for (ProfileId p : range) n += key <= cutoff[p] ? 1 : 0;
    return n;
  };
  std::vector<Kept> kept(input.size());
  ParallelFor(input.size(), options.num_threads, [&](std::size_t i) {
    const BlockId b = static_cast<BlockId>(i);
    kept[b] = {count_kept(b, input.source1(b)),
               count_kept(b, input.source2(b))};
  });

  // The surviving blocks (non-zero filtered cardinality) keep their
  // relative order; their CSR offsets follow from the kept counts.
  std::vector<BlockId> survivors;
  std::vector<std::uint64_t> member_offsets{0};
  std::vector<std::uint64_t> key_offsets{0};
  for (BlockId b = 0; b < input.size(); ++b) {
    const Kept k = kept[b];
    if (BlockCollection::CardinalityOf(input.er_type(), k.n1, k.n2) == 0) {
      continue;
    }
    survivors.push_back(b);
    member_offsets.push_back(member_offsets.back() + k.n1 + k.n2);
    key_offsets.push_back(key_offsets.back() + input.key(b).size());
  }

  // Pass 4 (parallel over surviving blocks): write the kept members in
  // place, each block into its own range.
  std::vector<ProfileId> members(member_offsets.back());
  ParallelFor(survivors.size(), options.num_threads, [&](std::size_t s) {
    const BlockId b = survivors[s];
    const std::uint64_t key = rank_key(b);
    std::uint64_t out = member_offsets[s];
    for (ProfileId p : input.members(b)) {
      if (key <= cutoff[p]) members[out++] = p;
    }
  });
  std::string key_arena;
  key_arena.reserve(key_offsets.back());
  for (BlockId b : survivors) key_arena += input.key(b);

  return BlockCollection::FromCsr(input.er_type(), input.split_index(),
                                  std::move(members),
                                  std::move(member_offsets),
                                  std::move(key_arena), std::move(key_offsets));
}

}  // namespace sper
