// Tests for the por::obs observability subsystem: registry semantics
// under concurrency, histogram bucketing, span aggregation + trace
// nesting, JSON export (with exact round-trip), and the
// cross-rank RunReport merge over a vmpi runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/obs/run_report.hpp"
#include "por/obs/span.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"

namespace {

using namespace por;

// ---- registry ---------------------------------------------------------------

TEST(Registry, CounterFindOrCreateReturnsStableHandles) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("events");
  obs::Counter& b = registry.counter("events");
  EXPECT_EQ(&a, &b);
  a.add();
  b.add(2);
  EXPECT_EQ(registry.counter("events").value(), 3u);
  EXPECT_EQ(registry.counter("other").value(), 0u);
}

TEST(Registry, ConcurrentCounterIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Mix pre-resolved handles with by-name lookups to exercise the
      // registration mutex against the lock-free hot path.
      obs::Counter& mine = registry.counter("shared");
      for (int i = 0; i < kPerThread; ++i) {
        mine.add();
        if (i % 1000 == 0) registry.counter("shared").add(0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, ConcurrentGaugeMaxIsTheGlobalMax) {
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("peak");
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 5000; ++i) {
        gauge.record_max(static_cast<double>(t * 10000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 54999.0);
}

TEST(Registry, ConcurrentHistogramTotalsAreExact) {
  // Every thread cycles through one value per bucket.  The values are
  // small integers, so the double sum is exact in any order: after the
  // join, buckets, count and sum must equal the serial totals exactly.
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat", {1.0, 10.0, 100.0});
  constexpr int kThreads = 6;
  constexpr int kRounds = 5000;
  static constexpr double kValues[] = {1.0, 5.0, 50.0, 500.0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kRounds; ++i) {
        for (const double v : kValues) h.observe(v);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t per_bucket =
      static_cast<std::uint64_t>(kThreads) * kRounds;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(h.bucket(b), per_bucket) << "bucket " << b;
  }
  EXPECT_EQ(h.count(), 4 * per_bucket);
  EXPECT_EQ(h.sum(), 556.0 * static_cast<double>(per_bucket));
}

TEST(Registry, HistogramBucketing) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(5.0);    // bucket 1
  h.observe(99.0);   // bucket 2
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 99.0 + 1000.0);
}

TEST(Registry, HistogramRejectsUnsortedBounds) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("bad", {10.0, 1.0}), std::invalid_argument);
}

TEST(Registry, LogBoundsCoverTheRequestedRangeGeometrically) {
  const std::vector<double> bounds = obs::Histogram::log_bounds(1e-4, 1e3, 5);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-4);
  EXPECT_GE(bounds.back(), 1e3);
  const double ratio = std::pow(10.0, 1.0 / 5.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_NEAR(bounds[i] / bounds[i - 1], ratio, 1e-12) << "step " << i;
  }
  EXPECT_THROW(obs::Histogram::log_bounds(0.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::log_bounds(1.0, 1.0, 5), std::invalid_argument);
}

TEST(Registry, LogHistogramIndexesLikeTheLinearScan) {
  // Same observations into a geometric ladder (O(1) log-index path)
  // and a plain histogram with identical bounds where the geometry is
  // broken by one bucket (linear-scan path); every bucket must agree
  // except where the ladders differ — so build TWO geometric-bound
  // histograms, one fed through observe(), one bucketed by hand.
  obs::MetricsRegistry registry;
  const std::vector<double> bounds = obs::Histogram::log_bounds(1e-3, 1e2, 4);
  obs::Histogram& fast = registry.histogram("fast", bounds);
  std::vector<std::uint64_t> reference(bounds.size() + 1, 0);
  por::util::Rng rng(97);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, rng.uniform(-4.0, 3.0));
    fast.observe(v);
    std::size_t b = bounds.size();
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      if (v <= bounds[k]) {
        b = k;
        break;
      }
    }
    ++reference[b];
  }
  // Exact boundary values too (the floating-point nudge path).
  for (const double b : bounds) {
    fast.observe(b);
    std::size_t idx = bounds.size();
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      if (b <= bounds[k]) {
        idx = k;
        break;
      }
    }
    ++reference[idx];
  }
  for (std::size_t k = 0; k <= bounds.size(); ++k) {
    EXPECT_EQ(fast.bucket(k), reference[k]) << "bucket " << k;
  }
}

TEST(Registry, QuantileInterpolatesWithinBuckets) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("q", {10.0, 20.0, 30.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));  // empty
  for (int i = 0; i < 100; ++i) h.observe(5.0);    // bucket (0, 10]
  for (int i = 0; i < 100; ++i) h.observe(15.0);   // bucket (10, 20]
  // Median sits exactly at the bucket edge; p25/p75 in bucket middles.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 0.11);
  EXPECT_NEAR(h.quantile(0.25), 5.0, 0.11);
  EXPECT_NEAR(h.quantile(0.75), 15.0, 0.11);
  EXPECT_NEAR(h.quantile(0.0), 0.1, 0.11);   // rank clamps to 1st sample
  EXPECT_NEAR(h.quantile(1.0), 20.0, 1e-12);
  h.observe(1e9);  // overflow bucket
  // Ranks inside +inf report the last finite bound (defensible floor).
  EXPECT_DOUBLE_EQ(h.quantile(0.9999), 30.0);
  // The snapshot-side estimator agrees with the live one.
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(snap.histograms.at("q"), 0.75),
                   h.quantile(0.75));
}

TEST(Registry, SnapshotCapturesEverything) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(2.5);
  registry.histogram("h", {1.0}).observe(0.5);
  registry.span_series("s").record(1000);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.spans.at("s").count, 1u);
  EXPECT_EQ(snap.spans.at("s").total_ns, 1000u);
}

TEST(Registry, RegistryScopeOverridesCurrent) {
  obs::MetricsRegistry local;
  obs::MetricsRegistry& global = obs::global_registry();
  ASSERT_NE(&local, &global);
  {
    obs::RegistryScope scope(local);
    EXPECT_EQ(&obs::current_registry(), &local);
    {
      obs::MetricsRegistry inner;
      obs::RegistryScope inner_scope(inner);
      EXPECT_EQ(&obs::current_registry(), &inner);
    }
    EXPECT_EQ(&obs::current_registry(), &local);
  }
  EXPECT_EQ(&obs::current_registry(), &global);
}

TEST(Registry, ScopeIsPerThread) {
  obs::MetricsRegistry local;
  obs::RegistryScope scope(local);
  obs::MetricsRegistry* seen = nullptr;
  std::thread([&seen] { seen = &obs::current_registry(); }).join();
  EXPECT_EQ(seen, &obs::global_registry());
}

// ---- spans ------------------------------------------------------------------

TEST(Span, SpanTimerAggregatesIntoSeries) {
  obs::MetricsRegistry registry;
  obs::SpanSeries& series = registry.span_series("work");
  for (int i = 0; i < 3; ++i) {
    obs::SpanTimer timer(series);
  }
  EXPECT_EQ(series.count(), 3u);
  EXPECT_GE(series.max_ns(), 0u);
  EXPECT_GE(series.total_ns(), series.max_ns());
}

TEST(Span, DisabledSpansRecordNothing) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  obs::SpanSeries& series = registry.span_series("gated");
  obs::set_enabled(false);
  {
    obs::SpanTimer timer(series);
    obs::ScopedSpan span(series);
  }
  obs::set_enabled(true);
  EXPECT_EQ(series.count(), 0u);
  EXPECT_EQ(registry.trace_size(), 0u);
}

TEST(Span, ScopedSpanNestingReconstructsParents) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  {
    obs::ScopedSpan outer("outer");
    {
      obs::ScopedSpan middle("middle");
      obs::ScopedSpan inner("inner");
    }
    obs::ScopedSpan sibling("sibling");
  }
  const std::vector<obs::SpanRecord> trace = registry.drain_trace();
  ASSERT_EQ(trace.size(), 4u);
  // Records appear in start order: outer, middle, inner, sibling.
  EXPECT_EQ(*trace[0].name, "outer");
  EXPECT_EQ(*trace[1].name, "middle");
  EXPECT_EQ(*trace[2].name, "inner");
  EXPECT_EQ(*trace[3].name, "sibling");
  const auto parent_name = [&](std::size_t i) -> std::string {
    return trace[i].parent < 0
               ? std::string("<root>")
               : *trace[static_cast<std::size_t>(trace[i].parent)].name;
  };
  EXPECT_EQ(parent_name(0), "<root>");
  EXPECT_EQ(parent_name(1), "outer");
  EXPECT_EQ(parent_name(2), "middle");
  EXPECT_EQ(parent_name(3), "outer");
  // Parents cover their children.
  EXPECT_GE(trace[0].duration_ns, trace[1].duration_ns);
  EXPECT_GE(trace[1].duration_ns, trace[2].duration_ns);
  // Start times are monotone in start order.
  EXPECT_LE(trace[0].start_ns, trace[1].start_ns);
  EXPECT_LE(trace[1].start_ns, trace[2].start_ns);
  EXPECT_LE(trace[2].start_ns, trace[3].start_ns);
  // Drained means gone.
  EXPECT_TRUE(registry.drain_trace().empty());
}

TEST(Span, AggregateSurvivesAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::SpanSeries& series = registry.span_series("mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&series] {
      for (int i = 0; i < 100; ++i) obs::SpanTimer timer(series);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(series.count(), 400u);
}

// ---- exporters --------------------------------------------------------------

TEST(Export, JsonCarriesHistogramQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.log_histogram("lat", 1e-3, 10.0, 3);
  for (int i = 0; i < 100; ++i) h.observe(0.01);
  const std::string json = obs::to_json(registry.snapshot());
  EXPECT_NE(json.find("\"quantiles\":{\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // The quantiles block is derived data: the parser skips it and the
  // round trip still reproduces the snapshot exactly.
  EXPECT_EQ(obs::snapshot_from_json(json), registry.snapshot());
}

TEST(Export, JsonRoundTripIsExact) {
  obs::MetricsRegistry registry;
  registry.counter("big").add(0xFFFFFFFFFFFFull);  // > 2^32, integer-exact
  registry.gauge("ratio").set(0.1234567890123456789);
  registry.gauge("negative").set(-3.5);
  registry.histogram("h", {1e-6, 1e-3, 1.0}).observe(0.25);
  registry.histogram("h", {1e-6, 1e-3, 1.0}).observe(12.0);
  registry.span_series("s").record(123456789);
  const obs::Snapshot original = registry.snapshot();
  const obs::Snapshot parsed = obs::snapshot_from_json(obs::to_json(original));
  EXPECT_EQ(parsed, original);
}

TEST(Export, JsonParserRejectsGarbage) {
  EXPECT_THROW((void)obs::snapshot_from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)obs::snapshot_from_json("{\"counters\":"),
               std::runtime_error);
}

// ---- run report -------------------------------------------------------------

obs::Snapshot snapshot_with(std::uint64_t count, double gauge) {
  obs::MetricsRegistry registry;
  registry.counter("events").add(count);
  registry.gauge("peak").set(gauge);
  registry.histogram("lat", {1.0, 2.0}).observe(0.5);
  registry.span_series("step").record(count * 100);
  return registry.snapshot();
}

TEST(RunReport, MergeRulesSumAndMax) {
  obs::RunReport report;
  report.merge_in(snapshot_with(10, 1.0));
  report.merge_in(snapshot_with(32, 4.0));
  EXPECT_EQ(report.merged.counters.at("events"), 42u);
  EXPECT_DOUBLE_EQ(report.merged.gauges.at("peak"), 4.0);  // max
  EXPECT_EQ(report.merged.histograms.at("lat").count, 2u);
  EXPECT_EQ(report.merged.histograms.at("lat").buckets[0], 2u);
  EXPECT_EQ(report.merged.spans.at("step").count, 2u);
  EXPECT_EQ(report.merged.spans.at("step").total_ns, 4200u);
  EXPECT_EQ(report.merged.spans.at("step").max_ns, 3200u);
}

TEST(RunReport, GatherOverFourRanks) {
  std::atomic<bool> root_checked{false};
  vmpi::run(4, [&](vmpi::Comm& comm) {
    // Each rank accumulates into its own registry, as the parallel
    // refiner does.
    obs::MetricsRegistry registry;
    obs::RegistryScope scope(registry);
    registry.counter("matchings").add(
        static_cast<std::uint64_t>(100 * (comm.rank() + 1)));
    registry.gauge("wall").set(static_cast<double>(comm.rank()));
    registry.span_series("step.refine").record(
        static_cast<std::uint64_t>(1000 * (comm.rank() + 1)));

    const obs::RunReport report =
        obs::RunReport::gather(comm, registry.snapshot());
    if (comm.is_root()) {
      ASSERT_EQ(report.per_rank.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(report.per_rank[static_cast<std::size_t>(r)].counters.at(
                      "matchings"),
                  static_cast<std::uint64_t>(100 * (r + 1)));
      }
      EXPECT_EQ(report.merged.counters.at("matchings"), 100u + 200 + 300 + 400);
      EXPECT_DOUBLE_EQ(report.merged.gauges.at("wall"), 3.0);
      EXPECT_EQ(report.merged.spans.at("step.refine").count, 4u);
      EXPECT_EQ(report.merged.spans.at("step.refine").total_ns, 10000u);
      EXPECT_EQ(report.merged.spans.at("step.refine").max_ns, 4000u);
      // The JSON document contains both sections.
      const std::string json = report.to_json();
      EXPECT_NE(json.find("\"merged\""), std::string::npos);
      EXPECT_NE(json.find("\"ranks\""), std::string::npos);
      root_checked = true;
    } else {
      // Non-root ranks keep their own snapshot only.
      ASSERT_EQ(report.per_rank.size(), 1u);
      EXPECT_EQ(report.per_rank[0].counters.at("matchings"),
                static_cast<std::uint64_t>(100 * (comm.rank() + 1)));
    }
  });
  EXPECT_TRUE(root_checked.load());
}

TEST(RunReport, MergeSnapshotsStandalone) {
  const obs::RunReport report =
      obs::merge_snapshots({snapshot_with(1, 0.0), snapshot_with(2, 9.0),
                            snapshot_with(3, 5.0)});
  EXPECT_EQ(report.per_rank.size(), 3u);
  EXPECT_EQ(report.merged.counters.at("events"), 6u);
  EXPECT_DOUBLE_EQ(report.merged.gauges.at("peak"), 9.0);
}

}  // namespace
