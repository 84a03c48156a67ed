#include "mcs/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mcs/exp/montecarlo.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::obs {
namespace {

TEST(MetricsTest, DisabledInstrumentsRecordNothing) {
  MetricsEnabledGuard guard(false);
  Counter counter;
  counter.add();
  counter.add(100);
  EXPECT_EQ(counter.value(), 0u);

  Timer timer;
  timer.record(1234);
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_EQ(timer.total_ns(), 0u);

  Histogram histogram;
  histogram.record(42);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
}

TEST(MetricsTest, EnabledCounterCounts) {
  MetricsEnabledGuard guard(true);
  Counter counter;
  counter.add();
  counter.add(9);
  EXPECT_EQ(counter.value(), 10u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsTest, GuardRestoresPreviousState) {
  const bool before = metrics_enabled();
  {
    MetricsEnabledGuard outer(true);
    EXPECT_TRUE(metrics_enabled());
    {
      MetricsEnabledGuard inner(false);
      EXPECT_FALSE(metrics_enabled());
    }
    EXPECT_TRUE(metrics_enabled());
  }
  EXPECT_EQ(metrics_enabled(), before);
}

TEST(MetricsTest, CounterIsExactUnderThreadPool) {
  MetricsEnabledGuard guard(true);
  Counter counter;
  constexpr std::size_t kIters = 10000;
  util::parallel_for(kIters, [&](std::size_t i) { counter.add(i % 3 + 1); });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kIters; ++i) expected += i % 3 + 1;
  EXPECT_EQ(counter.value(), expected);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  MetricsEnabledGuard guard(true);
  Histogram histogram;
  histogram.record(0);   // bucket 0
  histogram.record(1);   // bucket 1
  histogram.record(5);   // bit_width(5) = 3
  histogram.record(5);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(3), 2u);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 11u);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
}

TEST(MetricsTest, HistogramTracksRunningMax) {
  MetricsEnabledGuard guard(true);
  Histogram histogram;
  EXPECT_EQ(histogram.max(), 0u);
  histogram.record(7);
  histogram.record(3);
  EXPECT_EQ(histogram.max(), 7u);
  histogram.record(100);
  histogram.record(99);
  EXPECT_EQ(histogram.max(), 100u);
  histogram.reset();
  EXPECT_EQ(histogram.max(), 0u);
}

TEST(MetricsTest, HistogramMaxIsExactUnderThreadPool) {
  MetricsEnabledGuard guard(true);
  Histogram histogram;
  constexpr std::size_t kIters = 10000;
  util::parallel_for(kIters, [&](std::size_t i) { histogram.record(i); });
  EXPECT_EQ(histogram.max(), kIters - 1);
  EXPECT_EQ(histogram.count(), kIters);
}

TEST(MetricsTest, ScopedTimerRecordsOnlyWhenEnabled) {
  Timer timer;
  {
    MetricsEnabledGuard guard(false);
    ScopedTimer scoped(timer);
  }
  EXPECT_EQ(timer.count(), 0u);
  {
    MetricsEnabledGuard guard(true);
    ScopedTimer scoped(timer);
  }
  EXPECT_EQ(timer.count(), 1u);
}

TEST(RegistryTest, LookupIsStableByName) {
  Counter& a = registry().counter("test.registry.stable");
  Counter& b = registry().counter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  Timer& t1 = registry().timer("test.registry.timer");
  Timer& t2 = registry().timer("test.registry.timer");
  EXPECT_EQ(&t1, &t2);
  Histogram& h1 = registry().histogram("test.registry.hist");
  Histogram& h2 = registry().histogram("test.registry.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, SnapshotAndDeltas) {
  MetricsEnabledGuard guard(true);
  Counter& counter = registry().counter("test.registry.delta");
  const MetricsSnapshot before = registry().snapshot();
  counter.add(7);
  const MetricsSnapshot after = registry().snapshot();

  const auto deltas = counter_deltas(before, after);
  ASSERT_EQ(deltas.count("test.registry.delta"), 1u);
  EXPECT_EQ(deltas.at("test.registry.delta"), 7u);
  // Untouched counters do not appear.
  for (const auto& [name, delta] : deltas) EXPECT_GT(delta, 0u) << name;
}

TEST(RegistryTest, DeltaOfCounterRegisteredAfterBaseline) {
  MetricsEnabledGuard guard(true);
  const MetricsSnapshot before = registry().snapshot();
  registry().counter("test.registry.late").add(3);
  const auto deltas = counter_deltas(before, registry().snapshot());
  ASSERT_EQ(deltas.count("test.registry.late"), 1u);
  EXPECT_EQ(deltas.at("test.registry.late"), 3u);
}

TEST(MetricsTest, HistogramPercentileFromPow2Buckets) {
  MetricsEnabledGuard guard(true);
  Histogram histogram;
  EXPECT_EQ(histogram.percentile(0.5), 0u);  // empty

  histogram.record(1);    // bucket 1 (upper bound 1)
  histogram.record(2);    // bucket 2 (upper bound 3)
  histogram.record(3);    // bucket 2
  histogram.record(100);  // bucket 7 (upper bound 127)
  // Rank-based: rank = max(1, ceil(q * 4)).
  EXPECT_EQ(histogram.percentile(0.0), 1u);    // rank 1 -> bucket 1
  EXPECT_EQ(histogram.percentile(0.50), 3u);   // rank 2 -> bucket 2
  EXPECT_EQ(histogram.percentile(0.75), 3u);   // rank 3 -> bucket 2
  // rank 4 lands in bucket 7 whose bound 127 clamps to the observed max.
  EXPECT_EQ(histogram.percentile(0.99), 100u);
  EXPECT_EQ(histogram.percentile(1.0), 100u);
}

TEST(MetricsTest, PercentileFromBucketsIsExactOnRawCounts) {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  EXPECT_EQ(percentile_from_buckets(buckets, 0.5), 0u);
  buckets[3] = 5;  // five values in [4, 7]
  EXPECT_EQ(percentile_from_buckets(buckets, 0.5), 7u);
  buckets[0] = 5;  // five zeros rank below them
  EXPECT_EQ(percentile_from_buckets(buckets, 0.5), 0u);
  EXPECT_EQ(percentile_from_buckets(buckets, 0.51), 7u);
  // Out-of-range q clamps.
  EXPECT_EQ(percentile_from_buckets(buckets, -1.0), 0u);
  EXPECT_EQ(percentile_from_buckets(buckets, 2.0), 7u);
}

TEST(MetricsTest, SnapshotCarriesHistogramPercentiles) {
  MetricsEnabledGuard guard(true);
  Histogram& histogram = registry().histogram("test.registry.pctl");
  histogram.reset();
  histogram.record(1);
  histogram.record(6);
  const MetricsSnapshot snap = registry().snapshot();
  const auto& data = snap.histograms.at("test.registry.pctl");
  EXPECT_EQ(data.count, 2u);
  EXPECT_EQ(data.max, 6u);
  EXPECT_EQ(data.p50, 1u);  // rank 1 -> bucket 1
  EXPECT_EQ(data.p99, 6u);  // rank 2 -> bucket 3, clamped to max
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[3], 1u);
}

TEST(RegistryTest, SinkHistogramPercentilesIgnoreHistory) {
  MetricsEnabledGuard guard(true);
  Histogram& histogram = registry().histogram("test.registry.hpd");
  histogram.reset();
  histogram.record(1000);  // recorded before the sink; it must not see it

  MetricsCapture capture;
  {
    const ThreadMetricsSink sink;
    histogram.record(1);
    histogram.record(1);
    histogram.record(1);
    histogram.record(8);  // bucket 4 (upper bound 15)
    capture.merge(sink);
  }
  const auto pctl = registry().resolve_histogram_percentiles(capture);
  ASSERT_EQ(pctl.count("test.registry.hpd.p50"), 1u);
  EXPECT_EQ(pctl.at("test.registry.hpd.p50"), 1u);   // rank 2 of 4
  EXPECT_EQ(pctl.at("test.registry.hpd.p90"), 15u);  // rank 4
  EXPECT_EQ(pctl.at("test.registry.hpd.p99"), 15u);

  // A histogram that recorded nothing contributes nothing.
  EXPECT_TRUE(
      registry().resolve_histogram_percentiles(MetricsCapture{}).empty());
}

TEST(RegistryTest, CapturesFoldInAnyOrder) {
  // Sweep chunks fold their sinks into the point's capture in completion
  // order; the resolved counters and percentiles must not depend on it.
  MetricsEnabledGuard guard(true);
  Counter& counter = registry().counter("test.registry.fold");
  Histogram& histogram = registry().histogram("test.registry.fold_h");
  std::vector<MetricsCapture> chunks(3);
  for (std::uint64_t c = 0; c < chunks.size(); ++c) {
    const ThreadMetricsSink sink;
    counter.add(c + 1);
    for (std::uint64_t v = 0; v <= c * 10; ++v) histogram.record(v);
    chunks[c].merge(sink);
  }
  MetricsCapture forward, backward;
  for (const MetricsCapture& chunk : chunks) forward.merge(chunk);
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
    backward.merge(*it);
  }

  const auto counters = registry().resolve_counter_deltas(forward);
  EXPECT_EQ(counters.at("test.registry.fold"), 6u);
  EXPECT_EQ(counters, registry().resolve_counter_deltas(backward));
  EXPECT_EQ(registry().resolve_histogram_percentiles(forward),
            registry().resolve_histogram_percentiles(backward));
  EXPECT_EQ(
      registry().resolve_histogram_percentiles(forward).at(
          "test.registry.fold_h.p50"),
      7u);  // 33 values (0; 0..10; 0..20): rank 17 lands in bucket 4..7
}

TEST(RegistryTest, SnapshotOrderIsLexicographic) {
  // Registration order is deliberately shuffled; the snapshot's iteration
  // order (and therefore every rendered counters panel and artifact block)
  // must be lexicographic regardless.  This pins the documented contract on
  // MetricsSnapshot.
  registry().counter("test.order.zz");
  registry().counter("test.order.aa");
  registry().counter("test.order.mm");
  const MetricsSnapshot snap = registry().snapshot();
  std::vector<std::string> ours;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("test.order.", 0) == 0) ours.push_back(name);
  }
  const std::vector<std::string> expected = {
      "test.order.aa", "test.order.mm", "test.order.zz"};
  EXPECT_EQ(ours, expected);
  EXPECT_TRUE(std::is_sorted(ours.begin(), ours.end()));
}

TEST(RegistryTest, InstrumentedHotPathsPopulateKnownCounters) {
  // Run a tiny experiment point with metrics on and check the placement
  // instrumentation fired.
  MetricsEnabledGuard guard(true);
  Counter& probes = registry().counter("placement.probes");
  const std::uint64_t before = probes.value();

  mcs::gen::GenParams params = mcs::exp::default_gen_params();
  params.num_tasks = 20;
  const auto schemes = mcs::partition::paper_schemes(0.7);
  const mcs::exp::RunOptions options{.trials = 4, .seed = 1, .threads = 1};
  (void)mcs::exp::run_point(params, schemes, options, params.nsu);

  EXPECT_GT(probes.value(), before);
}

}  // namespace
}  // namespace mcs::obs
