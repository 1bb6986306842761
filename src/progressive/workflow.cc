#include "progressive/workflow.h"

namespace sper {

BlockCollection BuildTokenWorkflowBlocks(const ProfileStore& store,
                                         const TokenWorkflowOptions& options) {
  BlockCollection blocks = [&] {
    obs::ScopedPhase phase(options.telemetry, "token_blocking");
    TokenBlockingOptions token_blocking = options.token_blocking;
    token_blocking.num_threads = options.num_threads;
    return TokenBlocking(store, token_blocking);
  }();
  if (options.enable_purging) {
    obs::ScopedPhase phase(options.telemetry, "block_purging");
    BlockPurgingOptions purging = options.purging;
    purging.num_threads = options.num_threads;
    blocks = BlockPurging(blocks, store.size(), purging);
  }
  if (options.enable_filtering) {
    obs::ScopedPhase phase(options.telemetry, "block_filtering");
    BlockFilteringOptions filtering = options.filtering;
    filtering.num_threads = options.num_threads;
    blocks = BlockFiltering(blocks, filtering);
  }
  return blocks;
}

}  // namespace sper
