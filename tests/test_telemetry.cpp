// Metrics registry: counters/gauges/histograms under concurrent writers,
// bucket boundaries, and the Prometheus exposition parsed back.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace jaal::telemetry {
namespace {

TEST(Telemetry, CounterAccumulatesAdds) {
  MetricsRegistry reg;
  Counter& c = reg.counter("jaal_test_events_total");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Telemetry, CounterConcurrentWritersLoseNothing) {
  MetricsRegistry reg;
  Counter& c = reg.counter("jaal_test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Telemetry, SnapshotUnderConcurrentWritersIsSane) {
  // Readers may run while writers write: the snapshot must be internally
  // consistent enough to never exceed the final total and never go
  // backwards.  (The TSan CI job runs this test for data-race freedom.)
  MetricsRegistry reg;
  Counter& c = reg.counter("jaal_test_live_total");
  Histogram& h = reg.histogram("jaal_test_live_hist");
  constexpr int kWriters = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(1.0);
      }
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 2u);
    EXPECT_GE(snap.entries[0].counter, last);
    EXPECT_LE(snap.entries[0].counter,
              static_cast<std::uint64_t>(kWriters) * kPerThread);
    last = snap.entries[0].counter;
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.entries[0].counter,
            static_cast<std::uint64_t>(kWriters) * kPerThread);
  EXPECT_EQ(final_snap.entries[1].histogram.count,
            static_cast<std::uint64_t>(kWriters) * kPerThread);
  EXPECT_DOUBLE_EQ(final_snap.entries[1].histogram.sum,
                   static_cast<double>(kWriters) * kPerThread);
}

TEST(Telemetry, GaugeSetAddMax) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("jaal_test_depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.update_max(5);
  EXPECT_EQ(g.value(), 7);  // 5 < 7: no change
  g.update_max(19);
  EXPECT_EQ(g.value(), 19);
}

TEST(Telemetry, HistogramBucketBoundaries) {
  // Bucket i has inclusive upper bound 2^(i + kMinExponent); values on the
  // bound land in that bucket, values just above in the next.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  const double smallest = Histogram::upper_bound(0);
  EXPECT_DOUBLE_EQ(smallest, std::ldexp(1.0, Histogram::kMinExponent));
  EXPECT_EQ(Histogram::bucket_index(smallest / 4.0), 0u);
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    const double bound = Histogram::upper_bound(i);
    EXPECT_EQ(Histogram::bucket_index(bound), i) << "on-bound value, i=" << i;
    if (i + 2 < Histogram::kBucketCount) {
      EXPECT_EQ(Histogram::bucket_index(bound * 1.0001), i + 1)
          << "just-above value, i=" << i;
    }
  }
  // The last bucket is +Inf and swallows everything beyond the last finite
  // bound.
  EXPECT_TRUE(std::isinf(Histogram::upper_bound(Histogram::kBucketCount - 1)));
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);
}

TEST(Telemetry, HistogramObserveAndSnapshot) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("jaal_test_latency_ms");
  h.observe(0.5);
  h.observe(2.0);
  h.observe(64.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 66.5);
  EXPECT_DOUBLE_EQ(s.max, 64.0);
  std::uint64_t total = 0;
  for (std::uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(0.5)], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(2.0)], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(64.0)], 1u);
}

TEST(Telemetry, RegistryReturnsStableHandlesAndRejectsKindClashes) {
  MetricsRegistry reg;
  Counter& a = reg.counter("jaal_test_x_total");
  Counter& b = reg.counter("jaal_test_x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW((void)reg.gauge("jaal_test_x_total"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("jaal_test_x_total"), std::invalid_argument);
}

TEST(Telemetry, HistogramConcurrentWritersLoseNothing) {
  // Writer t observes 1, 2, ..., kPerThread scaled by (t + 1).  Integer
  // values keep the double sum exact in any interleaving, so count, sum,
  // max and every bucket must match a serial tally exactly.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("jaal_test_concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.observe(static_cast<double>(i * (t + 1)));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<std::uint64_t> want(Histogram::kBucketCount, 0);
  double want_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 1; i <= kPerThread; ++i) {
      const double v = static_cast<double>(i * (t + 1));
      ++want[Histogram::bucket_index(v)];
      want_sum += v;
    }
  }
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.sum, want_sum);
  EXPECT_EQ(s.max, static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(s.buckets, want);
}

// ---------------------------------------------------------------------------
// Prometheus exposition, parsed back line by line.

struct PromSample {
  std::string name;                       // base name (before '{')
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

std::vector<PromSample> parse_prometheus(const std::string& text) {
  std::vector<PromSample> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    PromSample s;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    s.value = std::stod(line.substr(space + 1));
    std::string series = line.substr(0, space);
    const std::size_t brace = series.find('{');
    if (brace == std::string::npos) {
      s.name = series;
    } else {
      s.name = series.substr(0, brace);
      std::string labels = series.substr(brace + 1, series.size() - brace - 2);
      std::size_t pos = 0;
      while (pos < labels.size()) {
        const std::size_t eq = labels.find('=', pos);
        const std::size_t q1 = labels.find('"', eq);
        const std::size_t q2 = labels.find('"', q1 + 1);
        s.labels[labels.substr(pos, eq - pos)] =
            labels.substr(q1 + 1, q2 - q1 - 1);
        pos = labels.find(',', q2);
        pos = pos == std::string::npos ? labels.size() : pos + 1;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

const PromSample* find_sample(const std::vector<PromSample>& samples,
                              const std::string& name,
                              const std::map<std::string, std::string>& labels) {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

TEST(Telemetry, PrometheusExpositionRoundTrips) {
  MetricsRegistry reg;
  reg.counter("jaal_test_events_total").add(7);
  reg.counter("jaal_test_drops_total{link=\"m0-ctrl\"}").add(3);
  reg.counter("jaal_test_drops_total{link=\"m1-ctrl\"}").add(4);
  reg.gauge("jaal_test_depth").set(1234);
  Histogram& h = reg.histogram("jaal_test_ms");
  h.observe(0.5);
  h.observe(3.0);

  const std::string text = prometheus_text(reg.snapshot());
  const auto samples = parse_prometheus(text);

  const auto* events = find_sample(samples, "jaal_test_events_total", {});
  ASSERT_NE(events, nullptr);
  EXPECT_DOUBLE_EQ(events->value, 7.0);

  // Embedded labels are split onto the sample, one series per label set.
  const auto* d0 =
      find_sample(samples, "jaal_test_drops_total", {{"link", "m0-ctrl"}});
  const auto* d1 =
      find_sample(samples, "jaal_test_drops_total", {{"link", "m1-ctrl"}});
  ASSERT_NE(d0, nullptr);
  ASSERT_NE(d1, nullptr);
  EXPECT_DOUBLE_EQ(d0->value, 3.0);
  EXPECT_DOUBLE_EQ(d1->value, 4.0);

  const auto* depth = find_sample(samples, "jaal_test_depth", {});
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, 1234.0);

  // Histogram series: cumulative buckets, +Inf bucket == count, sum/count.
  const auto* count = find_sample(samples, "jaal_test_ms_count", {});
  const auto* sum = find_sample(samples, "jaal_test_ms_sum", {});
  ASSERT_NE(count, nullptr);
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 2.0);
  EXPECT_DOUBLE_EQ(sum->value, 3.5);
  const auto* inf_bucket =
      find_sample(samples, "jaal_test_ms_bucket", {{"le", "+Inf"}});
  ASSERT_NE(inf_bucket, nullptr);
  EXPECT_DOUBLE_EQ(inf_bucket->value, 2.0);
  // Cumulative counts never decrease as le grows.
  double prev = 0.0;
  for (const auto& s : samples) {
    if (s.name != "jaal_test_ms_bucket") continue;
    EXPECT_GE(s.value, prev);
    prev = s.value;
  }

  // # TYPE comments name the base metric, once per base.
  EXPECT_NE(text.find("# TYPE jaal_test_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("# TYPE jaal_test_drops_total counter"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE jaal_test_drops_total counter"),
            text.rfind("# TYPE jaal_test_drops_total counter"));
}

TEST(Telemetry, LabelValueEscaping) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("two\nlines"), "two\\nlines");
  EXPECT_EQ(escape_label_value(""), "");
}

TEST(Telemetry, WithLabelComposesAndAppends) {
  EXPECT_EQ(with_label("jaal_alerts_total", "sid", "1000002"),
            "jaal_alerts_total{sid=\"1000002\"}");
  // Appending to an existing label set keeps prior labels intact.
  EXPECT_EQ(with_label("jaal_alerts_total{sid=\"7\"}", "rule", "x"),
            "jaal_alerts_total{sid=\"7\",rule=\"x\"}");
  // Hostile values cannot break out of the quoted label value.
  EXPECT_EQ(with_label("m", "msg", "a\"b\\c\nd"),
            "m{msg=\"a\\\"b\\\\c\\nd\"}");
}

TEST(Telemetry, EscapedLabelStaysInsideItsQuotesInTheExposition) {
  MetricsRegistry reg;
  reg.counter(with_label("jaal_test_labeled_total", "msg", "quote\"and\\slash"))
      .add(5);
  const std::string text = prometheus_text(reg.snapshot());
  // The hostile value appears escaped, inside one quoted label value, and
  // the series still parses as a counter sample.
  EXPECT_NE(
      text.find("jaal_test_labeled_total{msg=\"quote\\\"and\\\\slash\"} 5"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE jaal_test_labeled_total counter"),
            std::string::npos);
}

TEST(Telemetry, HelpLinesCuratedAndConventionFallback) {
  // Curated families get their one-line description; unknown families fall
  // back to what the naming convention guarantees.
  EXPECT_EQ(metric_help("jaal_faults_packets_lost_total"),
            "Ingress packets lost to crashed monitors, never observed.");
  EXPECT_EQ(metric_help("jaal_monitor_packets_oversized_total"),
            "Packets dropped by monitors for exceeding the 9000-byte frame "
            "bound.");
  EXPECT_EQ(metric_help("jaal_test_unknown_total"),
            "Monotonic event count.");
  EXPECT_EQ(metric_help("jaal_test_unknown_ms"),
            "Wall-clock measurement in milliseconds.");
  EXPECT_EQ(metric_help("jaal_test_unknown_depth"), "Point-in-time value.");

  MetricsRegistry reg;
  reg.counter("jaal_faults_packets_lost_total").add(3);
  const std::string text = prometheus_text(reg.snapshot());
  // Exactly one # HELP line per family, before its # TYPE line.
  const auto help_at =
      text.find("# HELP jaal_faults_packets_lost_total Ingress packets");
  ASSERT_NE(help_at, std::string::npos);
  EXPECT_EQ(text.find("# HELP jaal_faults_packets_lost_total", help_at + 1),
            std::string::npos);
  EXPECT_LT(help_at, text.find("# TYPE jaal_faults_packets_lost_total"));
}

TEST(Telemetry, SnapshotDiffDeltasCountersKeepsGauges) {
  auto entry = [](const std::string& name, MetricKind kind) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = kind;
    return e;
  };
  MetricsSnapshot prev;
  prev.entries.push_back(entry("jaal_a_total", MetricKind::kCounter));
  prev.entries.back().counter = 10;
  prev.entries.push_back(entry("jaal_depth", MetricKind::kGauge));
  prev.entries.back().gauge = 5;
  prev.entries.push_back(entry("jaal_hist", MetricKind::kHistogram));
  prev.entries.back().histogram.count = 2;
  prev.entries.back().histogram.sum = 1.0;
  prev.entries.back().histogram.max = 0.75;
  prev.entries.back().histogram.buckets = {2, 0, 0};

  MetricsSnapshot cur = prev;
  cur.entries[0].counter = 17;
  cur.entries[1].gauge = -3;
  cur.entries[2].histogram.count = 5;
  cur.entries[2].histogram.sum = 4.5;
  cur.entries[2].histogram.max = 2.5;
  cur.entries[2].histogram.buckets = {2, 3, 0};
  cur.entries.push_back(entry("jaal_new_total", MetricKind::kCounter));
  cur.entries.back().counter = 4;

  const MetricsSnapshot d = cur.diff(prev);
  ASSERT_EQ(d.entries.size(), 4u);
  EXPECT_EQ(d.entries[0].counter, 7u);           // counter: delta
  EXPECT_EQ(d.entries[1].gauge, -3);             // gauge: point-in-time
  EXPECT_EQ(d.entries[2].histogram.count, 3u);   // histogram: count delta
  EXPECT_DOUBLE_EQ(d.entries[2].histogram.sum, 3.5);
  EXPECT_DOUBLE_EQ(d.entries[2].histogram.max, 2.5);  // lifetime max
  const std::vector<std::uint64_t> want_buckets = {0, 3, 0};
  EXPECT_EQ(d.entries[2].histogram.buckets, want_buckets);
  EXPECT_EQ(d.entries[3].counter, 4u);           // absent in prev: itself

  // A counter below its previous value means the registry was reset; the
  // delta clamps to the current value rather than wrapping.
  MetricsSnapshot reset = prev;
  reset.entries[0].counter = 2;
  EXPECT_EQ(reset.diff(prev).entries[0].counter, 2u);
}

}  // namespace
}  // namespace jaal::telemetry
