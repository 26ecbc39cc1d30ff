// Detection-quality and communication-cost metrics used across the
// evaluation (§8): TPR/FPR confusion counting, ROC curves, and byte
// accounting for the summary-vs-raw overhead comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runtime_stats.hpp"

namespace jaal::core {

struct ConfusionCounts {
  std::uint64_t tp = 0;
  std::uint64_t fp = 0;
  std::uint64_t tn = 0;
  std::uint64_t fn = 0;

  void add(bool predicted, bool actual) noexcept;

  /// True positive rate (recall); 0 when no positives were seen.
  [[nodiscard]] double tpr() const noexcept;
  /// False positive rate; 0 when no negatives were seen.
  [[nodiscard]] double fpr() const noexcept;
  [[nodiscard]] double accuracy() const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept {
    return tp + fp + tn + fn;
  }

  ConfusionCounts& operator+=(const ConfusionCounts& rhs) noexcept;
};

/// One operating point on a ROC curve.  The paper sweeps combinations of
/// thresholds ("each combination of threshold values (tau_d, tau_c, tau_v)
/// is a single point on the graph", §8.1): tau_d is the distance threshold
/// and tau_c_scale multiplies the per-rule count thresholds.
struct RocPoint {
  double tau_d = 0.0;
  double tau_c_scale = 1.0;
  double fpr = 0.0;
  double tpr = 0.0;
};

struct RocCurve {
  std::string label;
  std::vector<RocPoint> points;

  /// Upper envelope of the point cloud: for increasing FPR, the best TPR
  /// achieved by any threshold combination (the curve one would plot).
  [[nodiscard]] RocCurve envelope() const;

  /// Area under the envelope by trapezoid rule, anchored at (0,0), (1,1).
  [[nodiscard]] double auc() const;

  /// Best TPR over measured points with fpr <= limit (0 if none).
  [[nodiscard]] double tpr_at_fpr(double limit) const;
};

/// Communication accounting: what monitors would have shipped raw vs what
/// Jaal actually shipped.
struct CommStats {
  std::uint64_t raw_header_bytes = 0;     ///< Baseline: all headers copied.
  std::uint64_t summary_bytes = 0;        ///< Summaries actually sent.
  std::uint64_t feedback_bytes = 0;       ///< Raw packets pulled by feedback.

  /// Jaal bytes as a fraction of the raw baseline (~0.35 in the paper).
  [[nodiscard]] double overhead_ratio() const noexcept;
  /// 1 - overhead_ratio (~0.65 in the paper).
  [[nodiscard]] double savings() const noexcept;

  CommStats& operator+=(const CommStats& rhs) noexcept;
};

/// Renders an execution-runtime snapshot as the line the benches print
/// next to detection quality and communication cost: the task and queue
/// counters.  Per-stage time is the critical-path profile's
/// (telemetry/profile.hpp).
[[nodiscard]] std::string describe(const runtime::RuntimeStatsSnapshot& snap);

}  // namespace jaal::core
