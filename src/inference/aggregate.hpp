// Summary aggregation (§5.1).
//
// The controller concatenates the summaries collected from all monitors into
// a single "tall" aggregated summary S^a = [X~_a | c_a].  Split summaries
// are reconstructed into combined form first.  Each aggregated row remembers
// its origin monitor and local centroid index so the feedback loop can ask
// the right monitor for the raw packets behind an uncertain centroid.
#pragma once

#include <vector>

#include "faults/scenario.hpp"
#include "summarize/summary.hpp"

namespace jaal::inference {

/// Every knob governing how summaries become the aggregate an engine
/// decides over, in one place — shared by the deployment controller's
/// transport deadline and the inference tier, so the deadline /
/// late-arrival / threshold-scaling behavior cannot drift between them.
struct AggregationPolicy {
  /// Aggregation deadline, in simulated seconds after the epoch close: a
  /// summary arriving later is *late* (counted; late_policy decides its
  /// fate).  0 (default) means one full epoch_seconds.
  double deadline_s = 0.0;
  /// What happens to a late summary: discarded, or rolled forward into the
  /// next epoch's aggregate (stale but not lost).
  faults::LatePolicy late_policy = faults::LatePolicy::kDiscard;
  /// Scale the engine's count thresholds (tau_c) by the epoch's report
  /// fraction: a partial aggregate carries proportionally less of an
  /// attack's mass, so an unscaled threshold would silently miss.  On (the
  /// default) is the PR 4 degraded-mode behavior; off pins thresholds to
  /// their full-epoch values regardless of delivery.
  bool scale_thresholds_by_report_fraction = true;

  /// Throws std::invalid_argument on a negative deadline (construction-time
  /// error policy; see jaal.hpp).
  void validate() const;
};

struct AggregatedSummary {
  linalg::Matrix centroids;                       ///< Up to M*k rows, p cols.
  std::vector<std::uint64_t> counts;              ///< Row weights c_a.
  std::vector<summarize::MonitorId> origin;       ///< Row -> monitor.
  std::vector<std::size_t> local_index;           ///< Row -> centroid idx at origin.

  [[nodiscard]] std::size_t rows() const noexcept { return counts.size(); }
  [[nodiscard]] bool empty() const noexcept { return counts.empty(); }
  /// Total packets represented across all monitors.
  [[nodiscard]] std::uint64_t total_packets() const noexcept;
};

/// Second-level reduction for very large deployments: the aggregate has up
/// to M*k rows, and with hundreds of monitors the per-question matching
/// cost grows linearly in M.  Re-clustering the (count-weighted) centroids
/// down to `k2` rows bounds it again.  The reduced rows no longer map to a
/// single monitor, so `origin` is set to kNoOrigin and the feedback loop is
/// unavailable on a reduced aggregate — use it for the scale tier where raw
/// retrieval would be impractical anyway.
/// Throws std::invalid_argument on an empty aggregate or k2 == 0.
inline constexpr summarize::MonitorId kNoOrigin =
    static_cast<summarize::MonitorId>(-1);

[[nodiscard]] AggregatedSummary reduce_aggregate(
    const AggregatedSummary& aggregate, std::size_t k2,
    std::uint64_t seed = 1);

class Aggregator {
 public:
  /// Appends one monitor summary (reconstructing S2 into S1 form).
  /// Throws std::invalid_argument if the summary's field width differs from
  /// previously added summaries.
  void add(const summarize::MonitorSummary& summary);

  [[nodiscard]] std::size_t summaries_added() const noexcept { return added_; }

  /// Builds the aggregate and resets the collector for the next epoch.
  [[nodiscard]] AggregatedSummary take();

 private:
  std::vector<summarize::CombinedSummary> pending_;
  std::size_t added_ = 0;
};

}  // namespace jaal::inference
