#ifndef SPER_PARALLEL_PARALLEL_FOR_H_
#define SPER_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "parallel/thread_pool.h"

/// \file parallel_for.h
/// Deterministic data-parallel loops. ParallelFor splits an index range
/// into `num_threads` contiguous chunks with *static* chunking: chunk
/// boundaries depend only on (range size, num_threads), never on timing.
/// Call sites that accumulate per chunk and merge in chunk order therefore
/// produce bit-identical results at every thread count — the invariant the
/// whole library's determinism contract rests on (see
/// tests/determinism_test.cc, ThreadCountInvariance). ParallelForDynamic
/// trades that for load balance where every item owns its result slot.

namespace sper {

/// A contiguous half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
};

/// The static chunking used by ParallelFor: `n` items split into at most
/// `num_chunks` contiguous ranges whose sizes differ by at most one, in
/// index order. Exposed so call sites can pre-size per-chunk accumulators
/// and merge them deterministically.
inline std::vector<IndexRange> StaticChunks(std::size_t n,
                                            std::size_t num_chunks) {
  if (num_chunks == 0) num_chunks = 1;
  std::vector<IndexRange> chunks;
  if (n == 0) return chunks;
  if (num_chunks > n) num_chunks = n;
  const std::size_t base = n / num_chunks;
  const std::size_t remainder = n % num_chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t size = base + (c < remainder ? 1 : 0);
    chunks.push_back({begin, begin + size});
    begin += size;
  }
  return chunks;
}

/// Runs `fn(chunk_index, range)` over the static chunks of [0, n) on
/// `num_threads` threads (inline when 1 thread or a single chunk).
/// Exceptions from any chunk propagate to the caller (first captured one).
/// `fn` must not touch state shared with other chunks unless it is its own
/// chunk-indexed slot.
template <typename ChunkFn>
void ParallelForChunks(std::size_t n, std::size_t num_threads, ChunkFn&& fn) {
  const std::vector<IndexRange> chunks = StaticChunks(n, num_threads);
  if (chunks.empty()) return;
  if (num_threads <= 1 || chunks.size() == 1) {
    for (std::size_t c = 0; c < chunks.size(); ++c) fn(c, chunks[c]);
    return;
  }
  // The calling thread processes chunk 0 itself instead of idling in
  // Wait(), so only chunks.size() - 1 workers are spawned.
  ThreadPool pool(chunks.size() - 1);
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    pool.Submit([&fn, &chunks, c] { fn(c, chunks[c]); });
  }
  fn(std::size_t{0}, chunks[0]);
  pool.Wait();
}

/// Runs `fn(i)` for every i in [0, n), statically chunked over
/// `num_threads` threads. Iteration order inside a chunk is ascending.
template <typename Fn>
void ParallelFor(std::size_t n, std::size_t num_threads, Fn&& fn) {
  ParallelForChunks(n, num_threads,
                    [&fn](std::size_t /*chunk*/, IndexRange range) {
                      for (std::size_t i = range.begin; i < range.end; ++i) {
                        fn(i);
                      }
                    });
}

/// Runs `fn(worker, range)` over [0, n) cut into ranges of at most `grain`
/// items, which up to `num_threads` workers claim in index order from one
/// shared cursor: for loops whose per-item cost is too uneven for static
/// chunks. Which worker runs a range depends on timing, so `fn` may write
/// only per-item slots and its own `worker`-indexed state (worker <
/// max(num_threads, 1)); the result is then independent of the schedule.
template <typename Fn>
void ParallelForDynamic(std::size_t n, std::size_t num_threads,
                        std::size_t grain, Fn&& fn) {
  if (grain == 0) grain = 1;
  std::atomic<std::size_t> cursor{0};
  const std::size_t num_ranges = (n + grain - 1) / grain;
  const std::size_t workers = std::min(std::max<std::size_t>(num_threads, 1),
                                       num_ranges);
  ParallelForChunks(workers, workers,
                    [&](std::size_t worker, IndexRange /*one worker*/) {
                      for (;;) {
                        const std::size_t begin =
                            cursor.fetch_add(grain, std::memory_order_relaxed);
                        if (begin >= n) return;
                        fn(worker,
                           IndexRange{begin, std::min(n, begin + grain)});
                      }
                    });
}

/// Per-chunk accumulate + ordered merge: runs `accumulate(chunk_index,
/// range)` -> Accumulator over the static chunks of [0, n), then
/// concatenates the per-chunk results *in chunk order* into one vector.
/// Because chunk boundaries and merge order are both deterministic, the
/// output is independent of the thread count.
template <typename Accumulate>
auto AccumulateOrdered(std::size_t n, std::size_t num_threads,
                       Accumulate&& accumulate) {
  using Accumulator =
      decltype(accumulate(std::size_t{0}, IndexRange{0, 0}));
  const std::size_t num_chunks = StaticChunks(n, num_threads).size();
  std::vector<Accumulator> parts(num_chunks);
  ParallelForChunks(n, num_threads,
                    [&](std::size_t chunk, IndexRange range) {
                      parts[chunk] = accumulate(chunk, range);
                    });
  Accumulator merged;
  std::size_t total = 0;
  for (const Accumulator& part : parts) total += part.size();
  merged.reserve(total);
  for (Accumulator& part : parts) {
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  return merged;
}

}  // namespace sper

#endif  // SPER_PARALLEL_PARALLEL_FOR_H_
