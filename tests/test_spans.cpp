// Trace spans: derived ids, parent/child propagation, and the JSONL export
// determinism contract (sorted output, wall-clock fields excluded).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/span.hpp"

namespace jaal::telemetry {
namespace {

TEST(Spans, DerivedIdsAreDeterministicAndNonZero) {
  const std::uint64_t a = derive_span_id(0, "epoch", 3);
  EXPECT_EQ(a, derive_span_id(0, "epoch", 3));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, derive_span_id(0, "epoch", 4));      // key matters
  EXPECT_NE(a, derive_span_id(0, "summarize", 3));  // name matters
  EXPECT_NE(a, derive_span_id(a, "epoch", 3));      // parent matters
}

TEST(Spans, RootAndChildIdentity) {
  Tracer tracer;
  SpanContext root_ctx;
  {
    Span root = tracer.span("epoch", {}, 7);
    root.set_sim_time(2.5);
    root.attr("packets", 1000.0);
    root_ctx = root.context();
    Span child = tracer.span("summarize", root_ctx, 1);
    Span grandchild = tracer.span("svd", child.context(), 1);
  }
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 3u);
  // Destruction order records inner-to-outer; find by name instead.
  const SpanRecord* root = nullptr;
  const SpanRecord* child = nullptr;
  const SpanRecord* grandchild = nullptr;
  for (const auto& r : records) {
    if (r.name == "epoch") root = &r;
    if (r.name == "summarize") child = &r;
    if (r.name == "svd") grandchild = &r;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  // Root: trace id comes from the key; no parent.
  EXPECT_EQ(root->trace_id, 7u);
  EXPECT_EQ(root->parent_id, 0u);
  ASSERT_EQ(root->attrs.size(), 1u);
  EXPECT_EQ(root->attrs[0].first, "packets");
  // Children: inherit trace id, chain parent ids, inherit sim_time.
  EXPECT_EQ(child->trace_id, 7u);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_DOUBLE_EQ(child->sim_time, 2.5);
  EXPECT_EQ(grandchild->parent_id, child->span_id);
  EXPECT_EQ(grandchild->trace_id, 7u);
  // Ids are reproducible from the path.
  EXPECT_EQ(root->span_id, derive_span_id(0, "epoch", 7));
  EXPECT_EQ(child->span_id, derive_span_id(root->span_id, "summarize", 1));
}

TEST(Spans, InertSpanIsSafe) {
  Span inert;
  inert.attr("x", 1.0);
  inert.set_sim_time(3.0);
  inert.finish();  // no tracer: no-op, no crash
  const SpanContext ctx = inert.context();
  EXPECT_EQ(ctx.span_id, 0u);
}

TEST(Spans, MoveTransfersOwnership) {
  Tracer tracer;
  {
    Span a = tracer.span("epoch", {}, 1);
    Span b = std::move(a);
    a.finish();  // moved-from: inert
    EXPECT_EQ(tracer.size(), 0u);
  }  // b records on destruction
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Spans, ConcurrentRecordingProducesTheSameSpanSet) {
  // Thread interleaving changes recording order but not span identity; the
  // sorted JSONL is therefore identical run to run.  (TSan covers races.)
  auto run_once = [] {
    Tracer tracer;
    Span root = tracer.span("epoch", {}, 0);
    const SpanContext ctx = root.context();
    std::vector<std::thread> workers;
    for (std::uint64_t m = 0; m < 4; ++m) {
      workers.emplace_back([&tracer, ctx, m] {
        Span monitor_span = tracer.span("summarize", ctx, m);
        Span svd = tracer.span("svd", monitor_span.context(), m);
        svd.attr("rank", 12.0);
      });
    }
    for (auto& w : workers) w.join();
    root.finish();
    return to_jsonl({}, tracer.records(), {.include_timings = false});
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Spans, JsonlDeterministicModeExcludesWallClock) {
  MetricsRegistry reg;
  reg.counter("jaal_monitor_packets_observed_total").add(5);
  reg.histogram("jaal_store_msync_ms").observe(1.5);
  reg.counter("jaal_runtime_tasks_submitted_total").add(2);
  Tracer tracer;
  { Span s = tracer.span("epoch", {}, 0); }

  const std::string full = to_jsonl(reg.snapshot(), tracer.records());
  EXPECT_NE(full.find("jaal_store_msync_ms"), std::string::npos);
  EXPECT_NE(full.find("jaal_runtime_tasks_submitted_total"),
            std::string::npos);
  EXPECT_NE(full.find("duration_ms"), std::string::npos);

  const std::string det = to_jsonl(reg.snapshot(), tracer.records(),
                                   {.include_timings = false});
  EXPECT_NE(det.find("jaal_monitor_packets_observed_total"),
            std::string::npos);
  EXPECT_EQ(det.find("jaal_store_msync_ms"), std::string::npos);
  EXPECT_EQ(det.find("jaal_runtime_tasks_submitted_total"),
            std::string::npos);
  EXPECT_EQ(det.find("duration_ms"), std::string::npos);
}

TEST(Spans, WallClockMetricClassifier) {
  EXPECT_TRUE(is_wall_clock_metric("jaal_store_msync_ms"));
  EXPECT_TRUE(is_wall_clock_metric(
      "jaal_profile_stage_exclusive_ms{stage=\"infer\"}"));
  EXPECT_TRUE(is_wall_clock_metric("jaal_runtime_tasks_submitted_total"));
  // The profiler family is wall-clock-derived even where the name carries
  // no "_ms" (counters of straggler flags, profiled epochs): keep it out of
  // deterministic exports and the persisted ops deltas wholesale.
  EXPECT_TRUE(is_wall_clock_metric("jaal_profile_epochs_total"));
  EXPECT_TRUE(is_wall_clock_metric("jaal_profile_stragglers_total"));
  EXPECT_TRUE(
      is_wall_clock_metric("jaal_profile_stage_exclusive_ms{stage=\"infer\"}"));
  EXPECT_FALSE(is_wall_clock_metric("jaal_monitor_packets_observed_total"));
  EXPECT_FALSE(is_wall_clock_metric("jaal_summarize_svd_sweeps"));
}

TEST(Spans, DurationOverrideSticks) {
  Tracer tracer;
  {
    Span s = tracer.span("store_append", {}, 4);
    s.set_duration_ms(12.5);
  }
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].duration_ms, 12.5);
}

TEST(Spans, DrainMovesSpansButRecordsStillSeesThem) {
  Tracer tracer;
  { Span s = tracer.span("epoch", {}, 0); }
  { Span s = tracer.span("epoch", {}, 1); }
  // First drain returns everything recorded so far...
  const std::vector<SpanRecord> first = tracer.drain();
  EXPECT_EQ(first.size(), 2u);
  // ...a second drain returns only what arrived since...
  { Span s = tracer.span("epoch", {}, 2); }
  const std::vector<SpanRecord> second = tracer.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].trace_id, 2u);
  // ...and records()/size() still cover the drained archive, so the
  // end-of-run exports are unchanged by per-epoch draining.
  EXPECT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.size(), 3u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(Spans, JsonlSpanOrderIndependentOfRecordingOrder) {
  // Two tracers record the same spans in opposite orders; exports match.
  auto make_records = [](bool reversed) {
    Tracer tracer;
    std::vector<Span> spans;
    if (reversed) {
      { Span s = tracer.span("b", {}, 2); }
      { Span s = tracer.span("a", {}, 1); }
    } else {
      { Span s = tracer.span("a", {}, 1); }
      { Span s = tracer.span("b", {}, 2); }
    }
    return to_jsonl({}, tracer.records(), {.include_timings = false});
  };
  EXPECT_EQ(make_records(false), make_records(true));
}

}  // namespace
}  // namespace jaal::telemetry
