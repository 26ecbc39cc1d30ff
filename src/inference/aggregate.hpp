// Summary aggregation (§5.1).
//
// The controller concatenates the summaries collected from all monitors into
// a single "tall" aggregated summary S^a = [X~_a | c_a].  Split summaries
// are reconstructed into combined form first.  Each aggregated row remembers
// its origin monitor and local centroid index so the feedback loop can ask
// the right monitor for the raw packets behind an uncertain centroid.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "faults/scenario.hpp"
#include "summarize/summary.hpp"

namespace jaal::runtime {
class ThreadPool;
}  // namespace jaal::runtime

namespace jaal::inference {

/// Every knob governing how summaries become the aggregate an engine
/// decides over, in one place — shared by the deployment controller's
/// transport deadline and the inference tier, so the deadline /
/// late-arrival behavior cannot drift between them.  The engine always
/// scales its count thresholds (tau_c) by the epoch's report fraction (see
/// InferenceEngine::scaled_tau_c).
struct AggregationPolicy {
  /// Aggregation deadline, in simulated seconds after the epoch close: a
  /// summary arriving later is *late* (counted; late_policy decides its
  /// fate).  0 (default) means one full epoch_seconds.
  double deadline_s = 0.0;
  /// What happens to a late summary: discarded, or rolled forward into the
  /// next epoch's aggregate (stale but not lost).
  faults::LatePolicy late_policy = faults::LatePolicy::kDiscard;

  /// Throws std::invalid_argument on a negative or NaN deadline
  /// (construction-time error policy; see jaal.hpp).
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
  /// Drops every row (0 x 0 centroids) but keeps the buffers' capacity.
  void clear() noexcept;
};

class Aggregator {
 public:
  /// Appends one monitor summary as it would arrive: serialized (float32
  /// scalars), parsed, and added as a one-view batch.  Throws
  /// std::invalid_argument if the summary's field width differs from
  /// previously added summaries, std::logic_error on a summary whose own
  /// dimensions disagree, and std::runtime_error on one parse_summary
  /// refuses; in each case the pending epoch is unchanged.
  void add(const summarize::MonitorSummary& summary);

  /// The one reconstruction path: appends parsed summaries
  /// (summarize::parse_summary views) in order.  A split summary is
  /// reconstructed (U~_r * diag(sigma) * V_r^T, bit-identical to
  /// SplitSummary::reconstruct of its deserialized form) straight into the
  /// epoch's row buffer; a combined one is widened there.  Every view's
  /// field width is checked first — a mismatch throws std::invalid_argument
  /// and leaves the pending epoch unchanged — then all rows are reserved
  /// serially and each summary is reconstructed into its own disjoint rows
  /// on `pool` (null: serially), so the result is bit-identical at any pool
  /// size.  The views' buffers need only live for the call.
  void add(std::span<const summarize::SummaryView> batch,
           runtime::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t summaries_added() const noexcept { return added_; }

  /// Hands this epoch's aggregate to `out` by swapping buffers: `out`'s
  /// previous contents are dropped and its storage becomes the next epoch's
  /// row buffer, so a caller that keeps one aggregate across epochs
  /// allocates nothing once the epochs stop growing.  Resets the collector.
  void take(AggregatedSummary& out);

  /// By-value form of take(out): returns the aggregate's own buffers and
  /// reserves the next epoch's at this epoch's size, so a by-value caller
  /// pays one allocation per vector per epoch, not a regrowth per add.
  [[nodiscard]] AggregatedSummary take();

  /// Drops the summaries added since the last take, keeping the storage.
  void clear() noexcept;

 private:
  /// Room for `rows` zeroed rows of the checked width `cols` plus their
  /// origin and local index (counts are the caller's); returns the first
  /// new row.
  double* append_rows(summarize::MonitorId monitor, std::size_t rows,
                      std::size_t cols);

  AggregatedSummary next_;  ///< The epoch being collected.
  std::size_t added_ = 0;
  /// Per-batch decode space for each split summary's U~_r, sigma and
  /// V_r^T, recycled.
  std::vector<double> factors_;
  /// Per-batch (first row, first factor) of each summary, recycled.
  std::vector<std::pair<std::size_t, std::size_t>> slots_;
  /// add(MonitorSummary)'s serialized summary, recycled.
  std::vector<std::uint8_t> wire_;
};

}  // namespace jaal::inference
