#include "blocking/block_collection.h"

#include <algorithm>
#include <utility>

namespace sper {

BlockCollection::BlockShape BlockCollection::Shape(
    std::span<const ProfileId> members) const {
  const std::uint64_t n = members.size();
  const std::uint64_t n1 =
      er_type_ == ErType::kDirty
          ? n
          : static_cast<std::uint64_t>(
                std::lower_bound(members.begin(), members.end(),
                                 split_index_) -
                members.begin());
  return {n1, CardinalityOf(er_type_, n1, n - n1)};
}

std::uint64_t BlockCollection::ComputeCardinality(
    std::span<const ProfileId> members) const {
  return Shape(members).cardinality;
}

BlockId BlockCollection::Add(std::string_view key,
                             std::span<const ProfileId> members) {
  SPER_DCHECK(std::is_sorted(members.begin(), members.end()));
  // One lower_bound per block at build time buys branch-free scans on
  // every later traversal.
  const BlockShape shape = Shape(members);
  const std::uint64_t begin = members_.size();
  members_.insert(members_.end(), members.begin(), members.end());
  member_offsets_.push_back(members_.size());
  split_offsets_.push_back(begin + shape.source1);
  key_arena_.append(key);
  key_offsets_.push_back(key_arena_.size());
  cardinalities_.push_back(shape.cardinality);
  aggregate_cardinality_ += shape.cardinality;
  return static_cast<BlockId>(cardinalities_.size() - 1);
}

BlockCollection BlockCollection::FromCsr(
    ErType er_type, ProfileId split_index, std::vector<ProfileId> members,
    std::vector<std::uint64_t> member_offsets, std::string key_arena,
    std::vector<std::uint64_t> key_offsets) {
  SPER_CHECK(!member_offsets.empty() &&
             member_offsets.size() == key_offsets.size() &&
             member_offsets.front() == 0 &&
             member_offsets.back() == members.size() &&
             key_offsets.front() == 0 &&
             key_offsets.back() == key_arena.size());
  BlockCollection out(er_type, split_index);
  out.members_ = std::move(members);
  out.member_offsets_ = std::move(member_offsets);
  out.key_arena_ = std::move(key_arena);
  out.key_offsets_ = std::move(key_offsets);
  const std::size_t num_blocks = out.member_offsets_.size() - 1;
  out.split_offsets_.resize(num_blocks);
  out.cardinalities_.resize(num_blocks);
  for (BlockId id = 0; id < num_blocks; ++id) {
    const std::span<const ProfileId> block = out.members(id);
    SPER_DCHECK(std::is_sorted(block.begin(), block.end()));
    const BlockShape shape = out.Shape(block);
    out.split_offsets_[id] = out.member_offsets_[id] + shape.source1;
    out.cardinalities_[id] = shape.cardinality;
    out.aggregate_cardinality_ += shape.cardinality;
  }
  return out;
}

void BlockCollection::Reserve(std::size_t num_blocks,
                              std::size_t total_members,
                              std::size_t total_key_bytes) {
  members_.reserve(total_members);
  member_offsets_.reserve(num_blocks + 1);
  split_offsets_.reserve(num_blocks);
  key_arena_.reserve(total_key_bytes);
  key_offsets_.reserve(num_blocks + 1);
  cardinalities_.reserve(num_blocks);
}

double BlockCollection::MeanBlockSize() const {
  if (empty()) return 0.0;
  return static_cast<double>(members_.size()) / static_cast<double>(size());
}

}  // namespace sper
