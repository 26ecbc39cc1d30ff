#include "workload.hpp"

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>

#include "util.hpp"

namespace perfbench {

using jaal::packet::AttackType;

namespace {

/// Attack rate relative to the background: high enough that the 10 % quota,
/// not the generator, bounds every attack epoch.
constexpr double kAttackRateShare = 0.125;
constexpr double kAttackCap = 0.10;
constexpr std::uint32_t kPortScanSid = 1000003;

void size_summarizer(jaal::core::JaalConfig& cfg, std::size_t n,
                     std::size_t n_min, std::size_t r, std::size_t k) {
  cfg.summarizer.batch_size = n;
  cfg.summarizer.min_batch = n_min;
  cfg.summarizer.rank = r;
  cfg.summarizer.centroids = k;
}

/// Seconds of background traffic one epoch spans (the epoch period the
/// deadline and the fault transport see).
double epoch_period(const Workload& w) {
  return static_cast<double>(w.epoch_packets) / w.profile.packets_per_second;
}

Workload paper_point(bool toy) {
  Workload w;
  w.name = "paper_point";
  w.profile = jaal::trace::trace1_profile();
  w.rules = full_ruleset();
  const auto attacks = jaal::core::evaluation_attacks();
  w.attacks.assign(attacks.begin(), attacks.end());
  w.config.engine.default_thresholds = {0.008, 0.03};
  w.config.engine.feedback_enabled = true;
  if (toy) {
    w.config.monitor_count = 3;
    size_summarizer(w.config, 300, 150, 6, 30);
    w.config.threads = 2;
    w.epoch_packets = 900;
    w.warmup_epochs = 1;
    w.check_epochs = 3;
  } else {
    w.config.monitor_count = 8;
    size_summarizer(w.config, 2000, 1000, 12, 400);
    w.config.threads = 4;
    w.epoch_packets = 16000;
    w.warmup_epochs = 2;
    w.check_epochs = 6;
    w.setup_repeats = 5;
  }
  w.config.epoch_seconds = epoch_period(w);
  return w;
}

Workload wide_faulty(std::uint64_t seed, bool toy) {
  Workload w;
  w.name = "wide_faulty";
  w.profile = jaal::trace::trace2_profile();
  w.rules = full_ruleset();
  const auto attacks = jaal::core::evaluation_attacks();
  w.attacks.assign(attacks.begin(), attacks.end());
  // A loose tau_d2 widens the case-3 band, so feedback retrievals (and
  // their retries) run in most epochs.
  w.config.engine.default_thresholds = {0.008, 0.06};
  w.config.engine.feedback_enabled = true;
  // Sixteen small flushes on the pool leave the serial per-epoch stages
  // (ship, feedback, observe, store) their largest share.  A serial run of
  // this workload tracked the host's speed drift (up to a third between
  // sets of runs); at four threads the drift is smaller but not gone.
  w.config.threads = 4;
  w.ops_stack = true;
  w.config.observe.flight_recorder = true;
  w.config.observe.slo = true;
  w.config.store_metrics = true;
  if (toy) {
    w.config.threads = 2;
    w.config.monitor_count = 4;
    size_summarizer(w.config, 200, 100, 6, 20);
    w.epoch_packets = 800;
    w.warmup_epochs = 1;
    w.check_epochs = 4;
  } else {
    w.config.monitor_count = 16;
    size_summarizer(w.config, 500, 250, 12, 50);
    w.epoch_packets = 8000;
    w.warmup_epochs = 2;
    w.check_epochs = 8;
    w.setup_repeats = 15;
  }
  w.config.epoch_seconds = epoch_period(w);
  jaal::faults::FaultScenario& f = w.config.faults;
  f.seed = seed;
  f.drop_rate = 0.05;
  // Exponential delay with a tail past the deadline for a few percent of
  // the summaries; late ones roll into the next epoch.
  f.delay_mean_s = 0.3 * w.config.epoch_seconds / 3.0;
  f.delay_jitter_s = 0.05 * w.config.epoch_seconds;
  w.config.aggregation.deadline_s = 0.3 * w.config.epoch_seconds;
  w.config.aggregation.late_policy = jaal::faults::LatePolicy::kRollForward;
  f.feedback_failure_rate = 0.1;
  // One monitor crash inside the checked prefix, after warm-up.
  f.crashes.push_back({1, w.warmup_epochs + 1, w.warmup_epochs + 3});
  return w;
}

Workload retro_replay(bool toy) {
  Workload w;
  w.name = "retro_replay";
  w.mode = Mode::kReplay;
  w.profile = jaal::trace::trace1_profile();
  for (const auto& r : full_ruleset()) {
    if (r.sid != kPortScanSid) w.rules.push_back(r);
  }
  w.attacks = {AttackType::kPortScan};
  // Replayed summaries carry no raw packets, so the fixture runs the
  // feedback-free mode a replay is byte-identical to.
  w.config.engine.default_thresholds = {0.008, 0.03};
  w.config.engine.feedback_enabled = false;
  if (toy) {
    w.config.monitor_count = 3;
    size_summarizer(w.config, 300, 150, 6, 30);
    w.config.threads = 2;
    w.epoch_packets = 900;
    w.fixture_epochs = 4;
    w.stored_epochs = 8;
  } else {
    w.config.monitor_count = 16;
    size_summarizer(w.config, 2000, 1000, 12, 400);
    w.config.threads = 4;
    w.epoch_packets = 32000;
    w.fixture_epochs = 10;
    w.stored_epochs = 100;
    w.setup_repeats = 7;
  }
  w.check_epochs = w.fixture_epochs;
  w.config.epoch_seconds = epoch_period(w);
  return w;
}

std::unique_ptr<jaal::attack::AttackSource> make_attack(AttackType type,
                                                        double start_time,
                                                        double pps,
                                                        std::uint64_t seed) {
  jaal::attack::AttackConfig a;
  a.victim_ip = jaal::core::evaluation_victim_ip();
  a.start_time = start_time;
  a.packets_per_second = pps;
  a.seed = seed;
  switch (type) {
    case AttackType::kSynFlood:
      a.source_count = 1;
      return std::make_unique<jaal::attack::SynFlood>(a);
    case AttackType::kDistributedSynFlood:
      return std::make_unique<jaal::attack::DistributedSynFlood>(a);
    case AttackType::kPortScan:
      return std::make_unique<jaal::attack::PortScan>(a);
    case AttackType::kSshBruteForce:
      return std::make_unique<jaal::attack::SshBruteForce>(a);
    case AttackType::kSockstress:
      // Low-rate by design, as in the §8 evaluation.
      a.packets_per_second = pps / 8.0;
      return std::make_unique<jaal::attack::Sockstress>(a);
    case AttackType::kMiraiScan:
      return std::make_unique<jaal::attack::MiraiScan>(a);
    case AttackType::kNone:
      break;
  }
  return nullptr;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool toy) {
  if (name == "paper_point") return paper_point(toy);
  if (name == "wide_faulty") return wide_faulty(seed, toy);
  if (name == "retro_replay") return retro_replay(toy);
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<jaal::rules::Rule>& full_ruleset() {
  static const std::vector<jaal::rules::Rule> kRules =
      jaal::rules::parse_rules(jaal::rules::default_ruleset_text(),
                               jaal::core::evaluation_rule_vars());
  return kRules;
}

TraceGenerator::TraceGenerator(const Workload& workload, std::uint64_t seed)
    : seed_(seed),
      epoch_packets_(workload.epoch_packets),
      attacks_(workload.attacks),
      attack_pps_(kAttackRateShare * workload.profile.packets_per_second),
      background_(workload.profile, splitmix64(seed)),
      digest_(kFnvBasis) {}

AttackType TraceGenerator::label_of(std::uint64_t epoch) const {
  if (epoch % 2 == 0 || attacks_.empty()) return AttackType::kNone;
  const std::uint64_t slot = epoch / 2;
  const std::uint64_t cycle = slot / attacks_.size();
  std::vector<AttackType> order = attacks_;
  std::mt19937_64 rng(splitmix64(seed_ ^ splitmix64(cycle + 1)));
  std::shuffle(order.begin(), order.end(), rng);
  return order[slot % order.size()];
}

EpochTraffic TraceGenerator::next() {
  EpochTraffic out;
  out.index = epoch_++;
  out.label = label_of(out.index);
  const auto attacker =
      make_attack(out.label, background_.peek_time(), attack_pps_,
                  splitmix64(seed_ * 0x9E3779B97F4A7C15ULL + out.index));
  std::vector<jaal::trace::PacketSource*> sources;
  if (attacker) sources.push_back(attacker.get());
  jaal::trace::TrafficMix mix(background_, sources, kAttackCap);
  out.packets = jaal::trace::take(mix, epoch_packets_);
  out.end_time = out.packets.empty() ? 0.0 : out.packets.back().timestamp;
  digest_ = fnv1a(&out.label, sizeof(out.label), digest_);
  for (const auto& p : out.packets) {
    const std::uint32_t words[] = {p.ip.src_ip, p.ip.dst_ip,
                                   p.tcp.src_port, p.tcp.dst_port,
                                   p.tcp.seq,    p.tcp.flags,
                                   p.ip.total_length};
    digest_ = fnv1a(words, sizeof(words), digest_);
    digest_ = fnv1a(&p.timestamp, sizeof(p.timestamp), digest_);
  }
  return out;
}

void Quality::add(AttackType label,
                  const std::vector<jaal::inference::Alert>& alerts) {
  if (label == AttackType::kNone) {
    ++benign_epochs;
    benign_alerted += alerts.empty() ? 0 : 1;
    return;
  }
  ++attack_epochs;
  const auto& sids = jaal::core::sids_for(label);
  const bool hit = std::any_of(alerts.begin(), alerts.end(), [&](const auto& a) {
    return std::find(sids.begin(), sids.end(), a.sid) != sids.end();
  });
  attack_hits += hit ? 1 : 0;
}

double Quality::recall() const {
  return ratio(static_cast<double>(attack_hits),
               static_cast<double>(attack_epochs));
}

double Quality::benign_alert_rate() const {
  return ratio(static_cast<double>(benign_alerted),
               static_cast<double>(benign_epochs));
}

void append_alert_lines(const std::vector<jaal::inference::Alert>& alerts,
                        double end_time, std::vector<std::string>& out) {
  for (const auto& a : alerts) {
    out.push_back(jaal::inference::alert_to_json(a, end_time));
  }
}

}  // namespace perfbench
