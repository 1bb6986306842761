// The parallel runtime (src/parallel/) carries the library's determinism
// contract onto multiple threads: static chunking, per-chunk accumulation,
// ordered merges. These tests pin pool lifecycle, exception propagation and
// the chunking invariants every parallel call site relies on, and the
// dynamic schedule's claim-every-range-once contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace sper {
namespace {

TEST(ThreadPoolTest, ConstructsAndJoinsWithoutWork) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, ZeroThreadsIsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int t = 0; t < 100; ++t) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int t = 0; t < 10; ++t) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([&completed] { completed.fetch_add(1); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool survives a throwing task: later batches still run.
  pool.Submit([&completed] { completed.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(completed.load(), 3);
}

TEST(StaticChunksTest, CoversRangeWithBalancedContiguousChunks) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t threads : {1u, 2u, 4u, 8u, 13u}) {
      const std::vector<IndexRange> chunks = StaticChunks(n, threads);
      if (n == 0) {
        EXPECT_TRUE(chunks.empty());
        continue;
      }
      ASSERT_FALSE(chunks.empty());
      EXPECT_LE(chunks.size(), std::min(n, threads));
      std::size_t expected_begin = 0;
      std::size_t min_size = n, max_size = 0;
      for (const IndexRange& range : chunks) {
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_GT(range.size(), 0u);
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(StaticChunksTest, DependsOnlyOnSizeAndThreadCount) {
  const std::vector<IndexRange> a = StaticChunks(1234, 7);
  const std::vector<IndexRange> b = StaticChunks(1234, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].begin, b[c].begin);
    EXPECT_EQ(a[c].end, b[c].end);
  }
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const std::size_t n = 997;  // prime: uneven chunks
    std::vector<int> visits(n, 0);
    ParallelFor(n, threads, [&](std::size_t i) { ++visits[i]; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
              static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i], 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, ResultMatchesSequentialComputation) {
  const std::size_t n = 500;
  std::vector<std::uint64_t> serial(n), parallel(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = i * i + 7;
  ParallelFor(n, 4, [&](std::size_t i) { parallel[i] = i * i + 7; });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, PropagatesChunkException) {
  EXPECT_THROW(
      ParallelFor(100, 4,
                  [](std::size_t i) {
                    if (i == 42) throw std::runtime_error("bad index");
                  }),
      std::runtime_error);
}

TEST(ParallelForChunksTest, ChunkIndicesMatchStaticChunks) {
  const std::size_t n = 103;
  for (std::size_t threads : {1u, 3u, 8u}) {
    const std::vector<IndexRange> expected = StaticChunks(n, threads);
    std::vector<IndexRange> seen(expected.size());
    ParallelForChunks(n, threads, [&](std::size_t chunk, IndexRange range) {
      seen[chunk] = range;
    });
    for (std::size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(seen[c].begin, expected[c].begin);
      EXPECT_EQ(seen[c].end, expected[c].end);
    }
  }
}

TEST(ParallelForDynamicTest, ClaimsEveryIndexOnceWithinWorkerBounds) {
  for (std::size_t n : {0u, 1u, 255u, 256u, 997u}) {
    for (std::size_t threads : {0u, 1u, 3u, 8u}) {
      for (std::size_t grain : {0u, 1u, 64u, 256u}) {
        std::vector<int> visits(n, 0);
        const std::size_t max_workers = std::max<std::size_t>(threads, 1);
        std::vector<std::size_t> ranges_per_worker(max_workers, 0);
        ParallelForDynamic(
            n, threads, grain, [&](std::size_t worker, IndexRange range) {
              ASSERT_LT(worker, max_workers);
              ASSERT_GT(range.size(), 0u);
              ASSERT_LE(range.size(), std::max<std::size_t>(grain, 1));
              ++ranges_per_worker[worker];  // worker-owned slot
              for (std::size_t i = range.begin; i < range.end; ++i) {
                ++visits[i];  // per-item slot
              }
            });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[i], 1) << "n " << n << " threads " << threads
                                  << " grain " << grain << " index " << i;
        }
        const std::size_t g = std::max<std::size_t>(grain, 1);
        EXPECT_EQ(std::accumulate(ranges_per_worker.begin(),
                                  ranges_per_worker.end(), std::size_t{0}),
                  (n + g - 1) / g);
      }
    }
  }
}

TEST(ParallelForDynamicTest, PropagatesWorkerException) {
  EXPECT_THROW(ParallelForDynamic(1000, 4, 16,
                                  [](std::size_t, IndexRange range) {
                                    if (range.begin <= 500 && 500 < range.end) {
                                      throw std::runtime_error("bad range");
                                    }
                                  }),
               std::runtime_error);
}

TEST(AccumulateOrderedTest, MergeOrderIsThreadCountInvariant) {
  const std::size_t n = 1000;
  // Sequential reference: every index contributes (i, 3i) in order.
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t i = 0; i < n; ++i) expected.emplace_back(i, 3 * i);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto merged = AccumulateOrdered(
        n, threads, [](std::size_t /*chunk*/, IndexRange range) {
          std::vector<std::pair<std::size_t, std::size_t>> part;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            part.emplace_back(i, 3 * i);
          }
          return part;
        });
    EXPECT_EQ(merged, expected) << "threads " << threads;
  }
}

}  // namespace
}  // namespace sper
