// Telemetry must be a pure observer: attaching a TelemetryScope to a
// resolver records metrics and spans but MUST NOT perturb the emitted
// comparison stream — bit-identical with telemetry on or off at every
// serving shape (one or four refill workers). These tests
// pin that contract for both batch-refilling methods, plus the shape of
// what gets recorded (per-phase gauges, session histograms, spans).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/experiment.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace sper {
namespace {

std::vector<Comparison> Drain(ProgressiveEmitter* emitter,
                              std::size_t limit) {
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
    EXPECT_EQ(a[k].i, b[k].i) << "position " << k;
    EXPECT_EQ(a[k].j, b[k].j) << "position " << k;
    EXPECT_DOUBLE_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

struct Shape {
  MethodId method;
  std::size_t num_threads;
};

class TelemetryShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TelemetryShapeTest, StreamBitIdenticalWithTelemetryOnAndOff) {
  const Shape shape = GetParam();
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());

  ResolverOptions off;
  off.method = shape.method;
  off.num_threads = shape.num_threads;
  std::unique_ptr<Resolver> plain = MakeResolver(dataset.value(), off);
  ASSERT_NE(plain, nullptr);

  obs::Registry registry;
  ResolverOptions on = off;
  on.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> instrumented = MakeResolver(dataset.value(), on);
  ASSERT_NE(instrumented, nullptr);

  ExpectSameSequence(Drain(plain.get(), 5000),
                     Drain(instrumented.get(), 5000));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByShape, TelemetryShapeTest,
    ::testing::Values(Shape{MethodId::kPps, 1}, Shape{MethodId::kPps, 4},
                      Shape{MethodId::kPbs, 1}, Shape{MethodId::kPbs, 4}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      std::string name(ToString(info.param.method));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_threads" + std::to_string(info.param.num_threads);
    });

TEST(TelemetryInitStatsTest, PhaseGaugesSumBelowInitTotal) {
  // The registry is the one phase-timing path. The engine runs its
  // top-level phases sequentially, so every workflow step and
  // method_build has a non-negative gauge, and their sum stays below the
  // init total (which InitStats::init_seconds reports too).
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  double sum = 0.0;
  for (const char* phase :
       {"phase.token_blocking_seconds", "phase.block_purging_seconds",
        "phase.block_filtering_seconds", "phase.method_build_seconds"}) {
    const obs::Gauge* gauge = registry.FindGauge(phase);
    ASSERT_NE(gauge, nullptr) << phase;
    EXPECT_GE(gauge->value(), 0.0) << phase;
    sum += gauge->value();
  }
  const obs::Gauge* total = registry.FindGauge("phase.init_seconds");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), resolver->init_stats().init_seconds);
  EXPECT_LE(sum, total->value() + 1e-6);
}

TEST(TelemetrySessionTest, SessionHistogramsMatchRequestCount) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  constexpr std::uint64_t kRequests = 5;
  constexpr std::uint64_t kBudget = 100;
  std::uint64_t delivered = 0;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    delivered += resolver->Serve({kBudget, kBudget}).comparisons.size();
  }

  const obs::Counter* requests = registry.FindCounter("session.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value(), kRequests);
  for (const char* name :
       {"session.queue_wait_ns", "session.service_ns",
        "session.slice_comparisons"}) {
    const obs::Histogram* h = registry.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), kRequests) << name;
  }
  // Slice sizes are small integers (<= kBudget), so the histogram sum is
  // exact: it must equal the total comparisons actually delivered.
  const obs::Histogram* slices =
      registry.FindHistogram("session.slice_comparisons");
  EXPECT_EQ(slices->Snapshot().sum, delivered);
  EXPECT_EQ(delivered, kRequests * kBudget);  // stream has plenty left

  // One "session.resolve" span per request rides on top of the init
  // phase spans.
  EXPECT_GE(registry.num_spans(), kRequests);
}

TEST(TelemetrySessionTest, PipelineMetricsAppearWithRefillWorkers) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.num_threads = 4;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  ASSERT_FALSE(Drain(resolver.get(), 2000).empty());

  EXPECT_NE(registry.FindGauge("phase.init_seconds"), nullptr);
  const obs::Counter* batches = registry.FindCounter("pipeline.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->value(), 0u);
  EXPECT_NE(registry.FindHistogram("pipeline.ring_occupancy"), nullptr);
}

TEST(TelemetrySessionTest, SnapshotAndTraceExportWhileServing) {
  // Snapshotting a live resolver between requests must be safe and
  // reflect the requests served so far.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  ResolverOptions config;
  config.num_threads = 2;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  for (int r = 0; r < 3; ++r) {
    resolver->Serve({50, 50});
    const std::string json = registry.SnapshotJson();
    EXPECT_NE(json.find("\"session.requests\": " + std::to_string(r + 1)),
              std::string::npos)
        << json;
  }
}

}  // namespace
}  // namespace sper
