// Epoch critical-path profiling over the deterministic span tree.
//
// `CriticalPath` rebuilds one epoch's span tree from flat SpanRecords and
// attributes latency per stage.  Inclusive time is the span's own duration
// (for a stage rollup: the busy time of all its spans).  Exclusive (self)
// time is what the span's children leave uncovered: inclusive(s) minus the
// sum of its children's inclusive.  When the children sum to more than
// their parent they overlapped on the pool (per-monitor flushes, matching),
// so the parent's self time is 0 and each child subtree's exclusive times
// scale by inclusive(parent) / sum of children's inclusive, compounding
// down the tree.  Serial subtrees are untouched.  Exclusive times are
// therefore never negative and sum *exactly* (up to float rounding) to the
// root's inclusive time: the shares of a pooled epoch are shares of its
// wall time.  The trace spans are the only per-stage clock in the system;
// this profile is the one per-stage report read from them.
//
// Two duration modes:
//  - kWall: real measured durations.  This is what operators profile with;
//    it also powers straggler detection (max-vs-median skew across sibling
//    groups like per-monitor flushes).
//  - kDeterministic: every span weighs 1 unit (inclusive = subtree size).
//    Durations are the *only* nondeterministic span field, so this mode is
//    byte-identical across runs and thread counts.  Stragglers cannot
//    exist here: siblings all weigh the same.
//
// `ProfileReport` rolls critical paths up across epochs into a ranked
// stage table (exclusive ms, % of total, busy ms, critical-path hit count)
// with deterministic ordering, exported via to_text / to_jsonl.  Busy time
// above exclusive time is work the pool ran in parallel.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/span.hpp"

namespace jaal::telemetry {

enum class DurationMode {
  kWall,           ///< Measured durations (nondeterministic).
  kDeterministic,  ///< Unit weights; byte-identical across runs/threads.
};

/// Stable small integer per known stage name, for compact flight-recorder
/// payloads.  Ids 0..5 match the kSpan stage ids already persisted by the
/// flight recorder; unknown names map to 255.
[[nodiscard]] std::uint8_t profile_stage_id(std::string_view name) noexcept;
[[nodiscard]] std::string_view profile_stage_name(std::uint8_t id) noexcept;

struct CriticalPathOptions {
  DurationMode mode = DurationMode::kWall;
  /// A sibling group's slowest member is a straggler when
  /// max >= straggler_skew * median (groups of >= 2, wall mode only).
  double straggler_skew = 2.0;
};

/// Aggregated time for one stage name within an epoch.
struct StageTime {
  std::string name;
  double inclusive_ms = 0.0;
  double exclusive_ms = 0.0;
  std::size_t spans = 0;
};

/// One node on the longest-duration root->leaf path.
struct PathNode {
  std::string name;
  std::uint64_t key = 0;
  double inclusive_ms = 0.0;
  double exclusive_ms = 0.0;
};

/// Slowest member of a sibling group whose skew crossed the threshold.
struct Straggler {
  std::string name;   ///< Sibling group name (e.g. "flush_epoch").
  std::uint64_t key;  ///< Key of the slowest sibling (e.g. monitor id).
  double max_ms = 0.0;
  double median_ms = 0.0;
  std::size_t group_size = 0;
};

/// One epoch's latency attribution.
struct CriticalPath {
  std::uint64_t trace_id = 0;
  DurationMode mode = DurationMode::kWall;
  double root_inclusive_ms = 0.0;
  /// Sum of every tree span's exclusive time; equals root_inclusive_ms up
  /// to float rounding (the telescoping identity), at any thread count.
  double total_exclusive_ms = 0.0;
  /// Per-stage rollup, sorted by (-exclusive_ms, name).
  std::vector<StageTime> stages;
  /// Longest-duration path, root first.
  std::vector<PathNode> path;
  /// Stage (below the root) with the largest exclusive time; empty when
  /// the trace has no spans.
  std::string dominant_stage;
  std::vector<Straggler> stragglers;
  std::size_t span_count = 0;     ///< Spans in the reconstructed tree.
  std::size_t sibling_groups = 0; ///< Same-parent same-name groups of >= 2.
  std::size_t orphans = 0;     ///< parent_id references no span in the trace.
  std::size_t duplicates = 0;  ///< Extra records sharing an existing span_id.

  /// Reconstructs the tree for `trace_id` from flat records and attributes
  /// latency.  Records from other traces are ignored.  Orphans and
  /// duplicates are counted and excluded from the tree.
  [[nodiscard]] static CriticalPath build(
      const std::vector<SpanRecord>& spans, std::uint64_t trace_id,
      const CriticalPathOptions& opts = {});

  /// Human-readable single-epoch breakdown.
  [[nodiscard]] std::string to_text() const;
};

/// Cross-epoch rollup of critical paths into a ranked stage table.
class ProfileReport {
 public:
  void add(const CriticalPath& cp);

  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }

  /// Ranked table: stage | exclusive ms | % of total | busy (inclusive) ms
  /// | critical-path hits | spans.
  [[nodiscard]] std::string to_text() const;
  /// One JSON object per stage plus a trailing "profile_summary" line;
  /// deterministic given deterministic inputs.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  struct Row {
    double inclusive_ms = 0.0;
    double exclusive_ms = 0.0;
    std::size_t spans = 0;
    std::size_t path_hits = 0;  ///< Epochs whose critical path hit the stage.
  };
  [[nodiscard]] std::vector<std::pair<std::string, Row>> ranked() const;

  std::vector<std::pair<std::string, Row>> rows_;  ///< Unordered.
  std::size_t epochs_ = 0;
  double total_root_ms_ = 0.0;
  std::size_t stragglers_ = 0;
};

}  // namespace jaal::telemetry
