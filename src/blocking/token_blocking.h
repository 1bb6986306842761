#ifndef SPER_BLOCKING_TOKEN_BLOCKING_H_
#define SPER_BLOCKING_TOKEN_BLOCKING_H_

#include "blocking/block_collection.h"
#include "core/profile_store.h"
#include "core/tokenizer.h"

/// \file token_blocking.h
/// Schema-agnostic Standard Blocking, a.k.a. Token Blocking [18]:
/// one block per attribute-value token that appears in at least two
/// profiles (workflow step 1 in paper Sec. 7). The resulting blocks are
/// redundancy-positive: the more blocks two profiles share, the more
/// likely they match (the equality principle).

namespace sper {

/// Options for Token Blocking.
struct TokenBlockingOptions {
  /// How attribute values are split into tokens.
  TokenizerOptions tokenizer;
  /// Threads for the chunked tokenize / shard-merge build (0 or 1 = one
  /// thread, same path). The resulting collection is identical at every
  /// thread count.
  std::size_t num_threads = 1;
};

/// Builds the Token Blocking collection of a store. A token produces a
/// block iff the block would yield at least one valid comparison (>= 2
/// profiles for Dirty ER; >= 1 profile per source for Clean-Clean ER).
/// Blocks are ordered by key for determinism; profiles inside a block are
/// sorted ascending.
BlockCollection TokenBlocking(const ProfileStore& store,
                              const TokenBlockingOptions& options = {});

}  // namespace sper

#endif  // SPER_BLOCKING_TOKEN_BLOCKING_H_
