// Ordered refill map suite. The contract under test
// (src/parallel/ordered_map.h + progressive/emitter.h + engine wiring):
//
// - the map hands every item's output to the consumer strictly in index
//   order at every worker count, including a window count that is not a
//   multiple of the workers, empty items and an empty map;
// - workers never run more than num_threads * kSlotsPerWorker windows
//   ahead of the consumer (the backpressure bound);
// - a waiting consumer honors its token (cancel and deadline) without
//   losing anything, a throwing item stops the stream at its window with
//   the item's index, and Shutdown() mid-stream joins the workers;
// - the engine's emission of PPS and PBS is *bit-identical* to the
//   emitter's serial Next() on Dirty and Clean-Clean stores at
//   num_threads 1/2/3/4/8, and so is the ProduceBatch serial view;
// - the budget and Drain() compose with the workers: abandoning a stream
//   mid-flight shuts down cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "parallel/cancel.h"
#include "parallel/ordered_map.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/workflow.h"

namespace sper {
namespace {

// ---------------------------------------------------------- map, unit

struct IntBatch {
  std::vector<int> items;
  void Clear() { items.clear(); }
};

struct NoScratch {};

using IntMap = OrderedMap<IntBatch, NoScratch>;
constexpr std::size_t kWindow = IntMap::kWindow;
constexpr std::size_t kSlotsPerWorker = IntMap::kSlotsPerWorker;

/// Drains the map front to back with a null token.
std::vector<int> DrainMap(IntMap& map) {
  std::vector<int> seen;
  bool expired = false;
  while (IntBatch* batch = map.Next(CancelToken(), &expired)) {
    seen.insert(seen.end(), batch->items.begin(), batch->items.end());
  }
  EXPECT_FALSE(expired);
  return seen;
}

TEST(OrderedMapTest, DeliversInIndexOrderAtEveryWorkerCount) {
  // 7 full windows plus a partial one: 8 windows, a multiple of neither
  // 3 nor 5 workers. Every third item is empty; item k emits k and, for
  // odd k, k again.
  const std::size_t num_items = 7 * kWindow + 5;
  std::vector<int> expected;
  for (std::size_t k = 0; k < num_items; ++k) {
    if (k % 3 == 0) continue;
    expected.push_back(static_cast<int>(k));
    if (k % 2 == 1) expected.push_back(static_cast<int>(k));
  }
  for (std::size_t threads : {1u, 2u, 3u, 4u, 5u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IntMap map(num_items, threads,
               [](std::size_t k, NoScratch&, IntBatch& out) {
                 if (k % 3 == 0) return;
                 out.items.push_back(static_cast<int>(k));
                 if (k % 2 == 1) out.items.push_back(static_cast<int>(k));
               });
    EXPECT_EQ(DrainMap(map), expected);
    bool expired = false;
    EXPECT_EQ(map.Next(CancelToken(), &expired), nullptr);  // sticky end
    EXPECT_EQ(map.error().exception, nullptr);
  }
}

TEST(OrderedMapTest, EmptyMapAndAllEmptyItems) {
  IntMap empty(0, 4, [](std::size_t, NoScratch&, IntBatch&) {});
  EXPECT_TRUE(DrainMap(empty).empty());

  // Every window comes back (empty), in order, and then the end.
  std::size_t windows = 0;
  IntMap silent(3 * kWindow + 1, 2,
                [](std::size_t, NoScratch&, IntBatch&) {});
  bool expired = false;
  while (IntBatch* batch = silent.Next(CancelToken(), &expired)) {
    EXPECT_TRUE(batch->items.empty());
    ++windows;
  }
  EXPECT_EQ(windows, 4u);
}

TEST(OrderedMapTest, ScratchIsPerWorkerAndReused) {
  // Each worker's scratch counts the items it produced; summed over the
  // stream, the per-item snapshots account for every item exactly once.
  struct Counter {
    int calls = 0;
  };
  const std::size_t num_items = 10 * kWindow;
  OrderedMap<IntBatch, Counter> map(
      num_items, 3, [](std::size_t, Counter& scratch, IntBatch& out) {
        out.items.push_back(++scratch.calls);
      });
  std::size_t items = 0;
  bool expired = false;
  while (IntBatch* batch = map.Next(CancelToken(), &expired)) {
    for (std::size_t k = 1; k < batch->items.size(); ++k) {
      // Within a window one worker counts up without gaps.
      EXPECT_EQ(batch->items[k], batch->items[k - 1] + 1);
    }
    items += batch->items.size();
  }
  EXPECT_EQ(items, num_items);
}

TEST(OrderedMapTest, WorkersStayWithinTheWindowBound) {
  constexpr std::size_t kThreads = 2;
  const std::size_t bound = kThreads * kSlotsPerWorker * kWindow;
  std::atomic<std::size_t> produced{0};
  IntMap map(1000 * kWindow, kThreads,
             [&produced](std::size_t k, NoScratch&, IntBatch& out) {
               out.items.push_back(static_cast<int>(k));
               produced.fetch_add(1, std::memory_order_relaxed);
             });
  // Without a consumer the workers fill every slot and then stall.
  while (produced.load(std::memory_order_relaxed) < bound) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(produced.load(std::memory_order_relaxed), bound);

  // Taking one window (and releasing it with the next call) frees one
  // more claim, never more.
  bool expired = false;
  ASSERT_NE(map.Next(CancelToken(), &expired), nullptr);
  ASSERT_NE(map.Next(CancelToken(), &expired), nullptr);
  while (produced.load(std::memory_order_relaxed) < bound + kWindow) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(produced.load(std::memory_order_relaxed), bound + kWindow);
}

TEST(OrderedMapTest, WaitingConsumerHonorsCancelAndDeadline) {
  std::atomic<bool> release{false};
  IntMap map(2 * kWindow, 2,
             [&release](std::size_t k, NoScratch&, IntBatch& out) {
               while (k == 0 && !release.load(std::memory_order_acquire)) {
                 std::this_thread::yield();
               }
               out.items.push_back(static_cast<int>(k));
             });
  bool expired = false;
  CancelSource source;
  source.Cancel();
  EXPECT_EQ(map.Next(source.token(), &expired), nullptr);
  EXPECT_TRUE(expired);

  const CancelToken deadline =
      CancelToken().WithDeadline(std::chrono::milliseconds(5));
  EXPECT_EQ(map.Next(deadline, &expired), nullptr);
  EXPECT_TRUE(expired);

  // Nothing was lost: once the item finishes, the stream resumes intact.
  release.store(true, std::memory_order_release);
  std::vector<int> expected(2 * kWindow);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    expected[k] = static_cast<int>(k);
  }
  EXPECT_EQ(DrainMap(map), expected);
}

TEST(OrderedMapTest, ThrowingItemStopsTheStreamWithItsIndex) {
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IntMap map(20 * kWindow, threads,
               [](std::size_t k, NoScratch&, IntBatch& out) {
                 if (k == 2 * kWindow + 5) {
                   throw std::runtime_error("item failed");
                 }
                 out.items.push_back(static_cast<int>(k));
               });
    // The two windows before the failing one arrive intact, then the
    // stream ends with the failing item's index.
    const std::vector<int> seen = DrainMap(map);
    ASSERT_EQ(seen.size(), 2 * kWindow);
    EXPECT_EQ(seen.back(), static_cast<int>(2 * kWindow - 1));
    const OrderedMapError error = map.error();
    ASSERT_NE(error.exception, nullptr);
    EXPECT_EQ(error.index, 2 * kWindow + 5);
    EXPECT_THROW(std::rethrow_exception(error.exception), std::runtime_error);
    // Sticky.
    bool expired = false;
    EXPECT_EQ(map.Next(CancelToken(), &expired), nullptr);
    EXPECT_NE(map.error().exception, nullptr);
  }
}

TEST(OrderedMapTest, ShutdownMidStreamJoinsTheWorkers) {
  std::atomic<std::size_t> produced{0};
  {
    IntMap map(100000 * kWindow, 4,
               [&produced](std::size_t k, NoScratch&, IntBatch& out) {
                 out.items.push_back(static_cast<int>(k));
                 produced.fetch_add(1, std::memory_order_relaxed);
               });
    bool expired = false;
    ASSERT_NE(map.Next(CancelToken(), &expired), nullptr);
    map.Shutdown();
    EXPECT_EQ(map.Next(CancelToken(), &expired), nullptr);
    EXPECT_FALSE(expired);
    map.Shutdown();  // idempotent
  }
  const std::size_t at_shutdown = produced.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(produced.load(), at_shutdown);  // the workers really exited
}

// ------------------------------------------- engine streams, bit-identical

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

ProfileStore CleanCleanStore() {
  DatagenOptions gen;
  gen.scale = 0.1;
  Result<DatasetBundle> ds = GenerateDataset("movies", gen);
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

std::vector<Comparison> Drain(ProgressiveEmitter* emitter,
                              std::size_t limit = SIZE_MAX) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter->Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

void ExpectSameSequence(const std::vector<Comparison>& a,
                        const std::vector<Comparison>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].i, b[k].i) << "position " << k;
    ASSERT_EQ(a[k].j, b[k].j) << "position " << k;
    ASSERT_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

/// The method's emitter built exactly as the engine builds it.
std::unique_ptr<ProgressiveEmitter> MakeEmitter(const ProfileStore& store,
                                                MethodId method) {
  BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
  if (method == MethodId::kPps) {
    return std::make_unique<PpsEmitter>(store, std::move(blocks));
  }
  return std::make_unique<PbsEmitter>(store, blocks);
}

struct StreamCase {
  MethodId method;
  bool clean_clean;
};

class OrderedRefillStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(OrderedRefillStreamTest, EveryThreadCountEmitsTheSerialStream) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  std::unique_ptr<ProgressiveEmitter> emitter =
      MakeEmitter(store, GetParam().method);
  const std::vector<Comparison> reference = Drain(emitter.get());
  ASSERT_GT(reference.size(), 0u);

  for (std::size_t num_threads : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    ResolverOptions config;
    config.method = GetParam().method;
    config.num_threads = num_threads;
    ProgressiveEngine engine(store, config);
    ExpectSameSequence(Drain(&engine), reference);
  }
}

TEST_P(OrderedRefillStreamTest, ProduceBatchConcatenatesToNext) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  std::unique_ptr<ProgressiveEmitter> reference_emitter =
      MakeEmitter(store, GetParam().method);
  const std::vector<Comparison> reference = Drain(reference_emitter.get());

  std::unique_ptr<ProgressiveEmitter> emitter =
      MakeEmitter(store, GetParam().method);
  BatchSource* source = dynamic_cast<BatchSource*>(emitter.get());
  ASSERT_NE(source, nullptr);
  std::vector<Comparison> batched;
  ComparisonList batch;
  while (source->ProduceBatch(batch)) {
    EXPECT_FALSE(batch.Empty()) << "ProduceBatch skips empty refills";
    while (!batch.Empty()) batched.push_back(batch.PopFirst());
  }
  ExpectSameSequence(batched, reference);
}

INSTANTIATE_TEST_SUITE_P(
    PpsAndPbs, OrderedRefillStreamTest,
    ::testing::Values(StreamCase{MethodId::kPps, false},
                      StreamCase{MethodId::kPps, true},
                      StreamCase{MethodId::kPbs, false},
                      StreamCase{MethodId::kPbs, true}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      std::string name(ToString(info.param.method));
      name += info.param.clean_clean ? "_CleanClean" : "_Dirty";
      return name;
    });

// --------------------------------------------- budget / shutdown composition

TEST(OrderedRefillEngineTest, BudgetExhaustionAbandonsTheWorkersCleanly) {
  const ProfileStore store = DirtyStore();
  ResolverOptions unbudgeted;
  unbudgeted.method = MethodId::kPps;
  unbudgeted.num_threads = 4;
  ProgressiveEngine full(store, unbudgeted);
  const std::vector<Comparison> reference = Drain(&full, 25);

  ResolverOptions options = unbudgeted;
  options.budget = 25;
  ProgressiveEngine engine(store, options);
  const std::vector<Comparison> emitted = Drain(&engine);
  EXPECT_EQ(emitted.size(), 25u);
  EXPECT_TRUE(engine.BudgetExhausted());
  EXPECT_FALSE(engine.Next().has_value());
  ExpectSameSequence(emitted, reference);
}  // both engines stop their workers mid-stream here

TEST(OrderedRefillEngineTest, DrainMidStreamStopsTheStream) {
  const ProfileStore store = DirtyStore();
  ResolverOptions config;
  config.method = MethodId::kPbs;
  config.num_threads = 4;
  ProgressiveEngine engine(store, config);
  ASSERT_TRUE(engine.Next().has_value());  // workers primed and running
  engine.Drain();
  EXPECT_FALSE(engine.Next().has_value());
  engine.Drain();  // idempotent
}

TEST(OrderedRefillEngineTest, SortBasedMethodsIgnoreThreadsForEmission) {
  const ProfileStore store = DirtyStore();
  ResolverOptions serial;
  serial.method = MethodId::kSaPsn;
  ProgressiveEngine reference(store, serial);

  ResolverOptions options = serial;
  options.num_threads = 4;
  ProgressiveEngine engine(store, options);
  ExpectSameSequence(Drain(&engine, 500), Drain(&reference, 500));
}

}  // namespace
}  // namespace sper
