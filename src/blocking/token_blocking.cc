#include "blocking/token_blocking.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/parallel_for.h"

namespace sper {

namespace {

/// The tokenizer's byte rules (core/tokenizer.cc) as one table: 0 marks a
/// separator, any other value is the byte the token keeps. Built from
/// std::isalnum / std::tolower on every call, so it follows the same
/// locale as TokenizeValue.
using ByteMap = std::array<unsigned char, 256>;

ByteMap MakeByteMap(const TokenizerOptions& options) {
  ByteMap map{};
  for (int c = 0; c < 256; ++c) {
    if (std::isalnum(c) == 0) continue;
    map[c] = static_cast<unsigned char>(options.lowercase ? std::tolower(c)
                                                          : c);
  }
  return map;
}

/// FNV-1a over the token bytes, finished with a 64-bit mix so that both
/// the low bits (table slot) and the high bits (shard) are usable. Only
/// routes and groups keys: no output depends on its value.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FinishHash(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

constexpr std::uint32_t kNoId = UINT32_MAX;

/// Open-addressing set of token ids keyed by (hash, bytes); the ids index
/// the owner's own token arrays, which `bytes_of(id)` reads. Linear
/// probing over a power-of-two slot array at most half full: one flat
/// allocation instead of a node per key.
class TokenTable {
 public:
  /// Returns the id stored under `bytes`, or stores `fresh` under it and
  /// returns `fresh` when the token is new.
  template <typename BytesOf>
  std::uint32_t FindOrInsert(std::uint64_t hash, std::string_view bytes,
                             std::uint32_t fresh, const BytesOf& bytes_of) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(std::max<std::size_t>(
        64, 2 * slots_.size()));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.id == kNoId) {
        slot = {hash, fresh};
        ++size_;
        return fresh;
      }
      if (slot.hash == hash && bytes_of(slot.id) == bytes) return slot.id;
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kNoId;
  };

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    const std::size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNoId) continue;
      std::size_t s = slot.hash & mask;
      while (slots_[s].id != kNoId) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// How many profiles of each source hold a token.
struct SourceCounts {
  std::uint32_t n1 = 0;
  std::uint32_t n2 = 0;
};

/// A distinct token of one profile chunk: its hash, its bytes in the
/// chunk's arena, and its holders.
struct TokenInfo {
  std::uint64_t hash;
  std::uint64_t offset;
  std::uint32_t length;
  SourceCounts holders;
};

/// One (token, profile) membership, the token as a chunk-local id.
struct Posting {
  std::uint32_t token;
  ProfileId profile;
};

/// Phase 1 output of one static profile chunk: its distinct tokens,
/// interned once into a lowercase byte arena, and its memberships routed
/// by token hash into one posting list per shard, in profile order.
struct ChunkIndex {
  std::string arena;
  std::vector<TokenInfo> tokens;
  std::vector<std::vector<Posting>> postings;  // [shard]
  /// Chunk-local token id -> key id in the token's shard (phase 2).
  std::vector<std::uint32_t> shard_key;
};

/// Phase 2 output of one shard: its distinct keys across all chunks (the
/// bytes stay in the chunk arenas) and, after the global key sort, the
/// block id of every key that survived (kInvalidBlock otherwise).
struct ShardIndex {
  std::vector<std::string_view> bytes;
  std::vector<SourceCounts> holders;
  std::vector<std::uint32_t> survivors;
  std::vector<BlockId> block;
};

std::size_t ShardOf(std::uint64_t hash, std::size_t num_shards) {
  return static_cast<std::size_t>(((hash >> 32) * num_shards) >> 32);
}

/// Tokenizes profiles [range) into `chunk`. Every token is cut exactly as
/// TokenizeValue cuts it and looked up in the chunk's table; a profile's
/// repeat of a token it already holds is skipped via the token's
/// last-holder stamp, so each (token, profile) pair is posted once.
void IndexChunk(const ProfileStore& store, const TokenizerOptions& options,
                const ByteMap& byte_map, IndexRange range,
                std::size_t num_shards, ChunkIndex& chunk) {
  chunk.postings.resize(num_shards);
  TokenTable table;
  std::vector<ProfileId> last_holder;
  std::string current;
  const auto bytes_of = [&chunk](std::uint32_t id) {
    const TokenInfo& t = chunk.tokens[id];
    return std::string_view(chunk.arena).substr(t.offset, t.length);
  };
  for (std::size_t idx = range.begin; idx < range.end; ++idx) {
    const ProfileId p = static_cast<ProfileId>(idx);
    const bool source1 = store.InSource1(p);
    const auto emit = [&](std::uint64_t hash) {
      hash = FinishHash(hash);
      const std::uint32_t fresh = static_cast<std::uint32_t>(
          chunk.tokens.size());
      const std::uint32_t id = table.FindOrInsert(hash, current, fresh,
                                                  bytes_of);
      if (id == fresh) {
        chunk.tokens.push_back({hash, chunk.arena.size(),
                                static_cast<std::uint32_t>(current.size()),
                                SourceCounts{}});
        chunk.arena += current;
        last_holder.push_back(kInvalidProfile);
      }
      if (last_holder[id] == p) return;
      last_holder[id] = p;
      SourceCounts& holders = chunk.tokens[id].holders;
      ++(source1 ? holders.n1 : holders.n2);
      chunk.postings[ShardOf(hash, num_shards)].push_back({id, p});
    };
    for (const Attribute& a : store.profile(p).attributes()) {
      // Mirrors TokenizeValue branch for branch, including its final
      // length check on a value that ends in a separator.
      current.clear();
      std::uint64_t hash = kFnvBasis;
      for (unsigned char c : a.value) {
        const unsigned char kept = byte_map[c];
        if (kept != 0) {
          current.push_back(static_cast<char>(kept));
          hash = (hash ^ kept) * kFnvPrime;
        } else if (!current.empty()) {
          if (current.size() >= options.min_token_length) emit(hash);
          current.clear();
          hash = kFnvBasis;
        }
      }
      if (current.size() >= options.min_token_length) emit(hash);
    }
  }
  chunk.shard_key.assign(chunk.tokens.size(), kNoId);
}

/// Merges shard `s`'s tokens of every chunk, in chunk order, into the
/// shard's distinct keys with their summed source counts, and lists the
/// keys that yield at least one comparison.
void MergeShard(std::vector<ChunkIndex>& chunks, std::size_t s,
                std::size_t num_shards, ErType er_type, ShardIndex& shard) {
  TokenTable table;
  const auto bytes_of = [&shard](std::uint32_t id) { return shard.bytes[id]; };
  for (ChunkIndex& chunk : chunks) {
    for (std::uint32_t t = 0; t < chunk.tokens.size(); ++t) {
      const TokenInfo& token = chunk.tokens[t];
      if (ShardOf(token.hash, num_shards) != s) continue;
      const std::string_view bytes =
          std::string_view(chunk.arena).substr(token.offset, token.length);
      const std::uint32_t fresh = static_cast<std::uint32_t>(
          shard.bytes.size());
      const std::uint32_t id = table.FindOrInsert(token.hash, bytes, fresh,
                                                  bytes_of);
      if (id == fresh) {
        shard.bytes.push_back(bytes);
        shard.holders.emplace_back();
      }
      shard.holders[id].n1 += token.holders.n1;
      shard.holders[id].n2 += token.holders.n2;
      chunk.shard_key[t] = id;
    }
  }
  for (std::uint32_t k = 0; k < shard.holders.size(); ++k) {
    const SourceCounts holders = shard.holders[k];
    if (BlockCollection::CardinalityOf(er_type, holders.n1, holders.n2) > 0) {
      shard.survivors.push_back(k);
    }
  }
  shard.block.assign(shard.holders.size(), kInvalidBlock);
}

}  // namespace

// Three parallel phases around one serial key sort, on the same path at
// every thread count:
//   1. static profile chunks tokenize into chunk-local tables, posting
//      each (token, profile) pair once, routed by token hash to a shard;
//   2. each shard merges its tokens across chunks into distinct keys and
//      keeps only those with a non-zero cardinality;
//   3. the survivors alone are sorted by key bytes, which fixes block ids
//      and CSR offsets, and each shard then writes its postings straight
//      into the member array.
// Chunks are visited in profile order everywhere, so every block's
// members arrive ascending; the hash decides only which thread handles a
// key, never the output.
BlockCollection TokenBlocking(const ProfileStore& store,
                              const TokenBlockingOptions& options) {
  const std::size_t num_threads =
      std::max<std::size_t>(options.num_threads, 1);
  const std::size_t num_shards = num_threads;
  const ByteMap byte_map = MakeByteMap(options.tokenizer);
  const ErType er_type = store.er_type();

  std::vector<ChunkIndex> chunks(
      StaticChunks(store.size(), num_threads).size());
  ParallelForChunks(store.size(), num_threads,
                    [&](std::size_t c, IndexRange range) {
                      IndexChunk(store, options.tokenizer, byte_map, range,
                                 num_shards, chunks[c]);
                    });

  std::vector<ShardIndex> shards(num_shards);
  ParallelFor(num_shards, num_threads, [&](std::size_t s) {
    MergeShard(chunks, s, num_shards, er_type, shards[s]);
  });

  struct Survivor {
    std::string_view bytes;
    std::uint32_t shard;
    std::uint32_t key;
  };
  std::vector<Survivor> survivors;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    for (std::uint32_t k : shards[s].survivors) {
      survivors.push_back({shards[s].bytes[k], s, k});
    }
  }
  // Every key lives in exactly one shard, so the byte order is total.
  std::sort(survivors.begin(), survivors.end(),
            [](const Survivor& a, const Survivor& b) {
              return a.bytes < b.bytes;
            });

  std::vector<std::uint64_t> member_offsets(survivors.size() + 1, 0);
  std::vector<std::uint64_t> key_offsets(survivors.size() + 1, 0);
  std::size_t key_bytes = 0;
  for (const Survivor& v : survivors) key_bytes += v.bytes.size();
  std::string key_arena;
  key_arena.reserve(key_bytes);
  for (BlockId b = 0; b < survivors.size(); ++b) {
    ShardIndex& shard = shards[survivors[b].shard];
    const SourceCounts holders = shard.holders[survivors[b].key];
    shard.block[survivors[b].key] = b;
    member_offsets[b + 1] = member_offsets[b] + holders.n1 + holders.n2;
    key_arena += survivors[b].bytes;
    key_offsets[b + 1] = key_arena.size();
  }

  std::vector<ProfileId> members(member_offsets.back());
  ParallelFor(num_shards, num_threads, [&](std::size_t s) {
    const ShardIndex& shard = shards[s];
    // Write cursors of this shard's blocks only: no two shards share one.
    std::vector<std::uint64_t> cursor(shard.holders.size());
    for (std::uint32_t k : shard.survivors) {
      cursor[k] = member_offsets[shard.block[k]];
    }
    for (const ChunkIndex& chunk : chunks) {
      for (const Posting& posting : chunk.postings[s]) {
        const std::uint32_t k = chunk.shard_key[posting.token];
        if (shard.block[k] == kInvalidBlock) continue;
        members[cursor[k]++] = posting.profile;
      }
    }
  });

  return BlockCollection::FromCsr(er_type, store.split_index(),
                                  std::move(members),
                                  std::move(member_offsets),
                                  std::move(key_arena), std::move(key_offsets));
}

}  // namespace sper
