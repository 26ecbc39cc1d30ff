// The benchmark's workloads and their seeded, labelled traffic.
//
// A trace is a sequence of epochs of fixed packet count.  Even epochs are
// benign; odd epochs each carry one attack, rotating through the workload's
// attack list in a seeded order per cycle, mixed into the continuing
// background with trace::TrafficMix and capped at 10 % of the epoch's
// packets.  Labels stay on the benchmark side: the program under test only
// ever receives the packets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jaal.hpp"

namespace perfbench {

enum class Mode : std::uint8_t {
  kLive,    ///< Timed ingest + close_epoch on a JaalController.
  kReplay,  ///< Timed StoreReplayer passes over a stored fixture.
};

struct Workload {
  std::string name;
  Mode mode = Mode::kLive;
  /// The deployment under test (kLive), or the fixture deployment whose
  /// summaries fill the replayed store (kReplay).  store_dir and telemetry
  /// are filled in per run.
  jaal::core::JaalConfig config;
  /// Give the deployment a telemetry registry (JaalConfig::telemetry), which
  /// turns on metrics, spans and the per-epoch profile.
  bool ops_stack = false;
  /// The deployment's ruleset (kReplay: the fixture's, which lacks the rule
  /// replayed later).
  std::vector<jaal::rules::Rule> rules;
  jaal::trace::TraceProfile profile;
  std::size_t epoch_packets = 0;
  std::vector<jaal::packet::AttackType> attacks;
  /// Epochs run inside setup_s before timing starts (kLive).
  std::size_t warmup_epochs = 0;
  /// Leading epochs over which the composed pipeline must reproduce the
  /// controller's alert lines byte for byte.
  std::size_t check_epochs = 0;
  /// Set-ups per run (kLive: before and again after the timed loop);
  /// setup_s reports their median.
  std::size_t setup_repeats = 1;
  /// kReplay: live fixture epochs, and epochs in the replayed store.
  std::size_t fixture_epochs = 0;
  std::size_t stored_epochs = 0;
};

/// Builds a workload by name; throws std::invalid_argument for an unknown
/// name.  `toy` shrinks every size for the benchmark's self-test.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool toy);

/// The full evaluation ruleset (every built-in rule).
[[nodiscard]] const std::vector<jaal::rules::Rule>& full_ruleset();

struct EpochTraffic {
  std::uint64_t index = 0;
  jaal::packet::AttackType label = jaal::packet::AttackType::kNone;
  double end_time = 0.0;  ///< Timestamp of the epoch's last packet.
  std::vector<jaal::packet::PacketRecord> packets;
};

class TraceGenerator {
 public:
  TraceGenerator(const Workload& workload, std::uint64_t seed);

  /// Generates the next epoch.
  [[nodiscard]] EpochTraffic next();

  /// Digest over every packet and label generated so far.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  [[nodiscard]] jaal::packet::AttackType label_of(std::uint64_t epoch) const;

  std::uint64_t seed_;
  std::size_t epoch_packets_;
  std::vector<jaal::packet::AttackType> attacks_;
  double attack_pps_;
  jaal::trace::BackgroundTraffic background_;
  std::uint64_t epoch_ = 0;
  std::uint64_t digest_;
};

/// Per-epoch detection outcome against the labels.
struct Quality {
  std::uint64_t attack_epochs = 0;
  std::uint64_t attack_hits = 0;  ///< A sid for the epoch's attack fired.
  std::uint64_t benign_epochs = 0;
  std::uint64_t benign_alerted = 0;  ///< Any alert fired.

  void add(jaal::packet::AttackType label,
           const std::vector<jaal::inference::Alert>& alerts);
  [[nodiscard]] double recall() const;
  [[nodiscard]] double benign_alert_rate() const;
};

/// Alert JSON lines (inference::alert_to_json) of one epoch, appended.
void append_alert_lines(const std::vector<jaal::inference::Alert>& alerts,
                        double end_time, std::vector<std::string>& out);

}  // namespace perfbench
