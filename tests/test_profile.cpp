// Critical-path profiler and Chrome trace export.
//
// The contracts pinned here:
//   1. Telescoping: a span's exclusive time is its inclusive time minus
//      its children's inclusive, so the tree's exclusive times sum exactly
//      (up to float rounding) to the root's inclusive time — in both
//      duration modes, on synthetic trees and on real controller epochs.
//   2. Overlap: where children overran their parent (pool work), the parent
//      keeps no self time and the children's subtrees share its wall time
//      pro rata, so no stage is ever negative or above the root — at every
//      thread count {1, 2, 4}.
//   3. Determinism: the deterministic-mode Chrome trace, span JSONL and
//      per-epoch critical-path digests are byte-identical across runs and
//      thread counts {1, 2, 4}.
//   4. One clock: the spans are the only per-stage timer; the registry
//      carries the profile's stage family and no other stage-time family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "trace/background.hpp"

namespace jaal::telemetry {
namespace {

/// A hand-built wall-clock tree with known durations:
///   root (100) -> a (40) -> a1 (10)
///             -> b (30)
/// Exclusives: root 30, a 30, a1 10, b 30; sum = 100 = root inclusive.
std::vector<SpanRecord> synthetic_tree() {
  Tracer tracer;
  {
    Span root = tracer.span("epoch", {}, 9);
    root.set_duration_ms(100.0);
    {
      Span a = tracer.span("aggregate", root.context(), 1);
      a.set_duration_ms(40.0);
      Span a1 = tracer.span("svd", a.context(), 1);
      a1.set_duration_ms(10.0);
    }
    Span b = tracer.span("infer", root.context(), 2);
    b.set_duration_ms(30.0);
  }
  return tracer.records();
}

TEST(Profile, ExclusiveTimesTelescopeToRootInclusive) {
  const CriticalPath cp = CriticalPath::build(synthetic_tree(), 9);
  EXPECT_DOUBLE_EQ(cp.root_inclusive_ms, 100.0);
  EXPECT_NEAR(cp.total_exclusive_ms, cp.root_inclusive_ms, 1e-9);
  EXPECT_EQ(cp.span_count, 4u);
  EXPECT_EQ(cp.orphans, 0u);
  EXPECT_EQ(cp.duplicates, 0u);
  // Stage rollup is ranked by exclusive time; three stages tie at 30.
  ASSERT_FALSE(cp.stages.empty());
  double sum = 0.0;
  for (const StageTime& st : cp.stages) sum += st.exclusive_ms;
  EXPECT_NEAR(sum, cp.root_inclusive_ms, 1e-9);
  // Dominant stage is the top-ranked non-root stage.
  EXPECT_NE(cp.dominant_stage, "");
  EXPECT_NE(cp.dominant_stage, "epoch");
  // Longest path walks the max-inclusive child: epoch -> aggregate -> svd.
  ASSERT_EQ(cp.path.size(), 3u);
  EXPECT_EQ(cp.path[0].name, "epoch");
  EXPECT_EQ(cp.path[1].name, "aggregate");
  EXPECT_EQ(cp.path[2].name, "svd");
}

TEST(Profile, DeterministicModeUsesUnitWeights) {
  CriticalPathOptions opts;
  opts.mode = DurationMode::kDeterministic;
  const CriticalPath cp = CriticalPath::build(synthetic_tree(), 9, opts);
  // Root inclusive = subtree size; every span's exclusive = 1.
  EXPECT_DOUBLE_EQ(cp.root_inclusive_ms, 4.0);
  EXPECT_NEAR(cp.total_exclusive_ms, cp.root_inclusive_ms, 1e-12);
  EXPECT_TRUE(cp.stragglers.empty());  // unit weights cannot diverge
}

/// Exclusive time of each span, keyed by span name (names are unique in
/// the trees below).
std::map<std::string, double> exclusive_by_stage(const CriticalPath& cp) {
  std::map<std::string, double> out;
  for (const StageTime& st : cp.stages) out[st.name] = st.exclusive_ms;
  return out;
}

TEST(Profile, OverlappingChildrenShareTheParentsWallTime) {
  // Two 80 ms children under a 100 ms root overlapped on a pool: the root
  // keeps no self time and each child gets half of the root's 100 ms.
  // The first child's 40 ms grandchild scales by the same 100/160.
  Tracer tracer;
  {
    Span root = tracer.span("epoch", {}, 1);
    root.set_duration_ms(100.0);
    {
      Span a = tracer.span("flush_a", root.context(), 0);
      a.set_duration_ms(80.0);
      Span a1 = tracer.span("kmeans", a.context(), 0);
      a1.set_duration_ms(40.0);
    }
    Span b = tracer.span("flush_b", root.context(), 1);
    b.set_duration_ms(80.0);
  }
  const CriticalPath cp = CriticalPath::build(tracer.records(), 1);
  std::map<std::string, double> excl = exclusive_by_stage(cp);
  EXPECT_DOUBLE_EQ(excl["epoch"], 0.0);
  EXPECT_DOUBLE_EQ(excl["flush_a"], 25.0);  // (80 - 40) * 100/160
  EXPECT_DOUBLE_EQ(excl["kmeans"], 25.0);   // 40 * 100/160
  EXPECT_DOUBLE_EQ(excl["flush_b"], 50.0);  // 80 * 100/160
  EXPECT_NEAR(cp.total_exclusive_ms, 100.0, 1e-9);
  // Inclusive (busy) time stays as measured.
  for (const StageTime& st : cp.stages) {
    if (st.name == "flush_a") {
      EXPECT_DOUBLE_EQ(st.inclusive_ms, 80.0);
    }
  }

  // Without the grandchild: 0 / 50 / 50.
  Tracer flat;
  {
    Span root = flat.span("epoch", {}, 1);
    root.set_duration_ms(100.0);
    {
      Span a = flat.span("flush_a", root.context(), 0);
      a.set_duration_ms(80.0);
    }
    Span b = flat.span("flush_b", root.context(), 1);
    b.set_duration_ms(80.0);
  }
  excl = exclusive_by_stage(CriticalPath::build(flat.records(), 1));
  EXPECT_DOUBLE_EQ(excl["epoch"], 0.0);
  EXPECT_DOUBLE_EQ(excl["flush_a"], 50.0);
  EXPECT_DOUBLE_EQ(excl["flush_b"], 50.0);

  // Factors compound: an overrun below an overrun scales twice.
  Tracer nested;
  {
    Span root = nested.span("epoch", {}, 1);
    root.set_duration_ms(100.0);
    {
      Span a = nested.span("flush_a", root.context(), 0);
      a.set_duration_ms(100.0);
      {
        Span m1 = nested.span("match_1", a.context(), 0);
        m1.set_duration_ms(100.0);
      }
      Span m2 = nested.span("match_2", a.context(), 1);
      m2.set_duration_ms(100.0);
    }
    Span b = nested.span("flush_b", root.context(), 1);
    b.set_duration_ms(100.0);
  }
  excl = exclusive_by_stage(CriticalPath::build(nested.records(), 1));
  EXPECT_DOUBLE_EQ(excl["flush_a"], 0.0);
  EXPECT_DOUBLE_EQ(excl["match_1"], 25.0);  // 100 * 1/2 * 1/2
  EXPECT_DOUBLE_EQ(excl["match_2"], 25.0);
  EXPECT_DOUBLE_EQ(excl["flush_b"], 50.0);

  // A serial tree (children fit inside) keeps plain subtraction.
  excl = exclusive_by_stage(CriticalPath::build(synthetic_tree(), 9));
  EXPECT_DOUBLE_EQ(excl["epoch"], 30.0);
  EXPECT_DOUBLE_EQ(excl["aggregate"], 30.0);
  EXPECT_DOUBLE_EQ(excl["svd"], 10.0);
  EXPECT_DOUBLE_EQ(excl["infer"], 30.0);
}

TEST(Profile, OrphansAndDuplicatesAreCountedAndExcluded) {
  std::vector<SpanRecord> spans = synthetic_tree();
  // An orphan: parent id that no record carries.
  SpanRecord orphan;
  orphan.name = "ghost";
  orphan.trace_id = 9;
  orphan.span_id = 12345;
  orphan.parent_id = 999999;
  orphan.duration_ms = 5.0;
  spans.push_back(orphan);
  // A duplicate of an existing span id.
  SpanRecord dup = spans[0];
  spans.push_back(dup);
  const CriticalPath cp = CriticalPath::build(spans, 9);
  EXPECT_EQ(cp.orphans, 1u);
  EXPECT_EQ(cp.duplicates, 1u);
  EXPECT_EQ(cp.span_count, 4u);  // the tree itself is unchanged
  EXPECT_NEAR(cp.total_exclusive_ms, cp.root_inclusive_ms, 1e-9);
}

TEST(Profile, AllOrphanTraceAttributesNothing) {
  std::vector<SpanRecord> spans;
  SpanRecord s;
  s.name = "lost";
  s.trace_id = 3;
  s.span_id = 7;
  s.parent_id = 99;  // never recorded
  spans.push_back(s);
  const CriticalPath cp = CriticalPath::build(spans, 3);
  EXPECT_EQ(cp.span_count, 0u);
  EXPECT_EQ(cp.orphans, 1u);
  EXPECT_TRUE(cp.path.empty());
}

TEST(Profile, StragglerDetection) {
  // Five per-monitor flushes, one 10x slower than its siblings.
  Tracer tracer;
  {
    Span root = tracer.span("epoch", {}, 2);
    root.set_duration_ms(120.0);
    for (std::uint64_t m = 0; m < 5; ++m) {
      Span flush = tracer.span("summarize", root.context(), m);
      flush.set_duration_ms(m == 3 ? 100.0 : 10.0);
    }
  }
  const CriticalPath cp = CriticalPath::build(tracer.records(), 2);
  EXPECT_EQ(cp.sibling_groups, 1u);
  ASSERT_EQ(cp.stragglers.size(), 1u);
  EXPECT_EQ(cp.stragglers[0].name, "summarize");
  EXPECT_EQ(cp.stragglers[0].key, 3u);
  EXPECT_DOUBLE_EQ(cp.stragglers[0].max_ms, 100.0);
  EXPECT_DOUBLE_EQ(cp.stragglers[0].median_ms, 10.0);
  EXPECT_EQ(cp.stragglers[0].group_size, 5u);
  // A balanced group is not a straggler.
  Tracer even;
  {
    Span root = even.span("epoch", {}, 2);
    root.set_duration_ms(50.0);
    for (std::uint64_t m = 0; m < 4; ++m) {
      Span flush = even.span("summarize", root.context(), m);
      flush.set_duration_ms(10.0 + static_cast<double>(m));
    }
  }
  EXPECT_TRUE(CriticalPath::build(even.records(), 2).stragglers.empty());
}

TEST(Profile, ReportRollsUpAcrossEpochs) {
  ProfileReport report;
  report.add(CriticalPath::build(synthetic_tree(), 9));
  report.add(CriticalPath::build(synthetic_tree(), 9));
  EXPECT_EQ(report.epochs(), 2u);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("2 epochs"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);
  const std::string jsonl = report.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"profile_stage\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"profile_summary\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"epochs\":2"), std::string::npos);
}

TEST(Profile, StageIdsRoundTrip) {
  EXPECT_EQ(profile_stage_id("observe"), 0);       // kSpan stage ids
  EXPECT_EQ(profile_stage_id("postprocess"), 5);
  EXPECT_EQ(profile_stage_name(profile_stage_id("shard_aggregate")),
            "shard_aggregate");
  EXPECT_EQ(profile_stage_name(profile_stage_id("store_commit")),
            "store_commit");
  EXPECT_EQ(profile_stage_id("not_a_stage"), 255);
  EXPECT_EQ(profile_stage_name(255), "other");
}

// kSpan flight events persist these ids in the ops log, so a stage may be
// retired but never removed or reordered: every id stays where it is.
TEST(Profile, StageIdsArePinned) {
  const char* const names[] = {
      "observe", "summarize", "ship", "aggregate", "infer", "postprocess",
      "svd", "kmeans", "feedback", "shard_aggregate", "shard_match",
      "cross_shard_merge", "store_append", "store_commit", "index_finalize",
      "epoch"};
  for (std::size_t id = 0; id < std::size(names); ++id) {
    EXPECT_EQ(profile_stage_id(names[id]), id) << names[id];
  }
}

// ------------------------------------------------------------ chrome trace

TEST(ChromeTrace, WallModeEmitsCompleteEvents) {
  const std::string json = export_chrome_trace(synthetic_tree());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"aggregate\""), std::string::npos);
  // Every span of the tree is present (4 events).
  std::size_t events = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++events;
  }
  EXPECT_EQ(events, 4u);
}

TEST(ChromeTrace, DeterministicModeDropsOrphansAndDuplicates) {
  std::vector<SpanRecord> spans = synthetic_tree();
  SpanRecord duplicate = spans[1];
  duplicate.name = "twin";
  spans.push_back(duplicate);
  SpanRecord orphan;
  orphan.name = "ghost";
  orphan.trace_id = 9;
  orphan.span_id = 556;
  orphan.parent_id = 999999;
  spans.push_back(orphan);
  ChromeTraceOptions det;
  det.mode = DurationMode::kDeterministic;
  const std::string json = export_chrome_trace(spans, det);
  EXPECT_EQ(json.find("twin"), std::string::npos);
  EXPECT_EQ(json.find("ghost"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"svd\""), std::string::npos);
}

// ----------------------------------------- controller-level determinism

core::JaalConfig profile_config(std::size_t threads,
                                telemetry::Telemetry* tel) {
  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.monitor_count = 5;
  cfg.epoch_seconds = 0.04;
  cfg.threads = threads;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.telemetry = tel;
  return cfg;
}

struct DetOutputs {
  std::string chrome;        ///< Deterministic Chrome trace.
  std::string span_jsonl;    ///< Deterministic span JSONL.
  std::string digests;       ///< Per-epoch deterministic critical paths.
  std::size_t epochs = 0;
  double wall_telescope_err = 0.0;  ///< Max |sum(excl) - root| over epochs.
  /// Max distance of any stage's exclusive time outside [0, root].
  double wall_stage_range_err = 0.0;
  std::size_t wall_profiles = 0;
};

DetOutputs run_profiled(std::size_t threads) {
  telemetry::Telemetry tel;
  core::JaalConfig cfg = profile_config(threads, &tel);
  core::JaalController controller(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              core::evaluation_rule_vars()));
  trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
  const auto epochs = controller.run(bg, 0.12);

  DetOutputs out;
  out.epochs = epochs.size();
  const std::vector<SpanRecord> spans = tel.tracer.records();
  ChromeTraceOptions copts;
  copts.mode = DurationMode::kDeterministic;
  out.chrome = export_chrome_trace(spans, copts);
  out.span_jsonl = to_jsonl({}, spans, {.include_timings = false});
  CriticalPathOptions det;
  det.mode = DurationMode::kDeterministic;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    out.digests += CriticalPath::build(spans, e, det).to_text();
  }
  for (const core::EpochResult& epoch : epochs) {
    if (!epoch.profile) continue;
    ++out.wall_profiles;
    const CriticalPath& cp = *epoch.profile;
    double stage_sum = 0.0;
    for (const StageTime& st : cp.stages) {
      stage_sum += st.exclusive_ms;
      out.wall_stage_range_err =
          std::max({out.wall_stage_range_err, -st.exclusive_ms,
                    st.exclusive_ms - cp.root_inclusive_ms});
    }
    out.wall_telescope_err = std::max(
        {out.wall_telescope_err,
         std::abs(cp.total_exclusive_ms - cp.root_inclusive_ms),
         std::abs(stage_sum - cp.root_inclusive_ms)});
  }
  return out;
}

TEST(ChromeTrace, DeterministicExportsByteIdenticalAcrossThreadsAndShards) {
  const DetOutputs base = run_profiled(1);
  ASSERT_GT(base.epochs, 0u);
  ASSERT_FALSE(base.chrome.empty());
  ASSERT_FALSE(base.digests.empty());
  // Repeat run: byte-identical.
  const DetOutputs rerun = run_profiled(1);
  EXPECT_EQ(base.chrome, rerun.chrome);
  EXPECT_EQ(base.span_jsonl, rerun.span_jsonl);
  EXPECT_EQ(base.digests, rerun.digests);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const DetOutputs got = run_profiled(threads);
    EXPECT_EQ(base.chrome, got.chrome)
        << "chrome trace diverged at threads=" << threads;
    EXPECT_EQ(base.span_jsonl, got.span_jsonl)
        << "span JSONL diverged at threads=" << threads;
    EXPECT_EQ(base.digests, got.digests)
        << "critical-path digest diverged at threads=" << threads;
  }
}

TEST(Profile, ControllerEpochsTelescopeInWallMode) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const DetOutputs out = run_profiled(threads);
    ASSERT_GT(out.epochs, 0u);
    EXPECT_EQ(out.wall_profiles, out.epochs);
    // Every stage lies in [0, root] and the stages sum to the root: float
    // rounding only, the identity itself is exact.
    EXPECT_LT(out.wall_stage_range_err, 1e-6) << "threads=" << threads;
    EXPECT_LT(out.wall_telescope_err, 1e-6) << "threads=" << threads;
  }
}

TEST(Profile, EachStageIsTimedOnlyBySpans) {
  telemetry::Telemetry tel;
  core::JaalController controller(
      profile_config(2, &tel),
      rules::parse_rules(rules::default_ruleset_text(),
                         core::evaluation_rule_vars()));
  trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
  ASSERT_FALSE(controller.run(bg, 0.12).empty());
  ASSERT_TRUE(controller.runtime_stats().has_value());  // pooled
  bool saw_kmeans = false;
  for (const auto& e : tel.metrics.snapshot().entries) {
    EXPECT_EQ(e.name.rfind("jaal_runtime_stage_ms", 0), std::string::npos)
        << e.name;
    EXPECT_NE(e.name, "jaal_summarize_svd_ms");
    EXPECT_NE(e.name, "jaal_summarize_kmeans_ms");
    saw_kmeans = saw_kmeans ||
                 e.name == "jaal_profile_stage_exclusive_ms{stage=\"kmeans\"}";
  }
  EXPECT_TRUE(saw_kmeans);
}

TEST(Profile, ControllerFillsEpochProfile) {
  telemetry::Telemetry tel;
  core::JaalConfig cfg = profile_config(1, &tel);
  core::JaalController controller(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              core::evaluation_rule_vars()));
  trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
  const auto epochs = controller.run(bg, 0.12);
  ASSERT_FALSE(epochs.empty());
  for (const core::EpochResult& epoch : epochs) {
    ASSERT_TRUE(epoch.profile.has_value());
    EXPECT_EQ(epoch.profile->mode, DurationMode::kWall);
    EXPECT_GT(epoch.profile->span_count, 0u);
    ASSERT_FALSE(epoch.profile->path.empty());
    EXPECT_EQ(epoch.profile->path.front().name, "epoch");
  }
  // The jaal_profile_* family is exported and classified wall-clock (so it
  // never reaches deterministic exports or the persisted ops deltas).
  bool saw_epochs_counter = false;
  for (const auto& e : tel.metrics.snapshot().entries) {
    if (e.name == "jaal_profile_epochs_total") {
      EXPECT_EQ(e.counter, epochs.size());
      saw_epochs_counter = true;
    }
  }
  EXPECT_TRUE(saw_epochs_counter);
  EXPECT_TRUE(is_wall_clock_metric("jaal_profile_epochs_total"));
  EXPECT_TRUE(is_wall_clock_metric("jaal_profile_critical_path_ms"));

  // Profiling off: spans still flow, but no per-epoch analysis.
  telemetry::Telemetry tel2;
  core::JaalConfig off = profile_config(1, &tel2);
  off.observe.profile = false;
  core::JaalController plain(
      off, rules::parse_rules(rules::default_ruleset_text(),
                              core::evaluation_rule_vars()));
  trace::BackgroundTraffic bg2(trace::trace1_profile(), 11);
  for (const core::EpochResult& epoch : plain.run(bg2, 0.12)) {
    EXPECT_FALSE(epoch.profile.has_value());
  }
}

}  // namespace
}  // namespace jaal::telemetry
