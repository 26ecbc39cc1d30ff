// Seeded failure scenarios for the monitor -> engine control plane.
//
// The paper's central claim is that Jaal keeps detecting while its own
// summary traffic shares congested ISP links (§8).  A FaultScenario is the
// declarative description of everything that can go wrong on that path:
// per-summary drops (i.i.d. or bursty), crash/restart windows that silence a
// monitor for whole epochs, seeded delivery delay and jitter (which reorders
// arrivals and makes summaries miss the aggregation deadline), an optional
// netsim::LinkQueue model that adds serialization delay and tail drops, and
// a per-attempt failure rate on the feedback retrieval round-trip governed
// by a bounded RetryPolicy.
//
// Scenarios are pure data: every stochastic decision is derived from
// (seed, epoch, monitor), never from wall clock or thread timing, so a
// scenario replays byte-identically across runs and thread counts.
//
// Error policy (see jaal.hpp): validate() throws std::invalid_argument at
// configuration time; nothing in the per-epoch hot path throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netsim/link.hpp"

namespace jaal::faults {

/// What the controller does with a summary that arrives after the epoch's
/// aggregation deadline.
enum class LatePolicy : std::uint8_t {
  kDiscard,      ///< Count it and drop it (the data is stale).
  kRollForward,  ///< Count it and aggregate it into the *next* epoch.
};

/// One monitor outage: the monitor is down for epochs in
/// [crash_epoch, restart_epoch).  Packets routed to it are lost and it ships
/// no summary; on restart it resumes with an empty buffer.
struct CrashWindow {
  std::size_t monitor = 0;
  std::uint64_t crash_epoch = 0;
  std::uint64_t restart_epoch = 0;  ///< Exclusive; == crash_epoch is a no-op.

  [[nodiscard]] bool covers(std::size_t m, std::uint64_t epoch) const noexcept {
    return m == monitor && epoch >= crash_epoch && epoch < restart_epoch;
  }
};

/// One inference-tier outage: the tier is down for epochs in
/// [crash_epoch, restart_epoch).  Monitors keep observing and shipping —
/// the loss is on the receiving side: every summary is refused at arrival
/// (not aggregated, not persisted) and the epoch's report_fraction drops
/// accordingly.  Distinct from CrashWindow, which silences a *monitor* (the
/// sending side).
struct ShardCrashWindow {
  std::uint64_t crash_epoch = 0;
  std::uint64_t restart_epoch = 0;  ///< Exclusive; == crash_epoch is a no-op.

  [[nodiscard]] bool covers(std::uint64_t epoch) const noexcept {
    return epoch >= crash_epoch && epoch < restart_epoch;
  }
};

/// Bounded retry with exponential backoff for feedback retrievals.  Attempt
/// i (0-based) waits base_backoff_s * multiplier^i before retrying; the
/// retrieval gives up after max_attempts attempts or once the accumulated
/// backoff would exceed timeout_s, whichever is first — so both the attempt
/// count and the total backoff are provably bounded.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  double base_backoff_s = 0.05;
  double multiplier = 2.0;
  double timeout_s = 1.0;  ///< Hard cap on accumulated backoff.

  /// Closed-form upper bound on the backoff a single retrieval can accrue:
  /// min(timeout_s, sum of the first max_attempts-1 backoff terms).
  [[nodiscard]] double max_total_backoff_s() const noexcept;
};

struct FaultScenario {
  std::uint64_t seed = 1;

  // --- Summary-path loss -------------------------------------------------
  /// Per-summary i.i.d. drop probability on the monitor->engine path.
  double drop_rate = 0.0;
  /// Probability that a drop opens a *burst*: the next burst_length
  /// summaries on the same link are dropped too (correlated loss, the
  /// congestion-collapse shape of Fig. 7 rather than random erasure).
  double burst_rate = 0.0;
  std::size_t burst_length = 0;

  // --- Summary-path delay ------------------------------------------------
  /// Mean extra delivery delay (seeded exponential) added to every summary.
  double delay_mean_s = 0.0;
  /// Uniform jitter on top; distinct per-monitor draws reorder arrivals.
  double delay_jitter_s = 0.0;

  // --- Monitor outages ---------------------------------------------------
  std::vector<CrashWindow> crashes;

  // --- Inference-tier outages ---------------------------------------------
  /// Consumed by shard::InferenceTier (the transport ignores them): windows
  /// during which the tier refuses every summary.
  std::vector<ShardCrashWindow> shard_crashes;

  // --- Feedback round-trip ------------------------------------------------
  /// Per-attempt failure probability of a raw-packet retrieval.
  double feedback_failure_rate = 0.0;
  RetryPolicy retry;

  // --- Optional packet-level link model ----------------------------------
  /// When set, every summary additionally crosses a per-monitor
  /// netsim::LinkQueue clone of `link`: serialization at the link rate plus
  /// propagation delay, with tail drops when the queue byte bound overflows
  /// (a second, purely capacity-driven source of loss).
  bool use_link_model = false;
  netsim::LinkConfig link;

  /// True when the scenario perturbs nothing — the transport then
  /// short-circuits to perfect in-process delivery (the pre-fault pipeline).
  [[nodiscard]] bool fault_free() const noexcept;

  /// Throws std::invalid_argument on out-of-range rates, a burst without a
  /// length, inverted crash windows, or a degenerate retry policy.
  void validate() const;
};

}  // namespace jaal::faults
