#include "faults/transport.hpp"

#include <algorithm>
#include <cmath>

namespace jaal::faults {
namespace {

/// splitmix64: decorrelates the per-(epoch, monitor) RNG streams from the
/// scenario seed without any cross-stream structure.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t epoch,
                          std::uint64_t monitor) noexcept {
  return mix(mix(seed ^ 0xFA017ULL) ^ mix(epoch) ^ mix(monitor << 1));
}

double unit(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

}  // namespace

SummaryTransport::SummaryTransport(const FaultScenario& scenario,
                                   std::size_t /*monitor_count*/)
    : scenario_(scenario), fetch_rng_(mix(scenario.seed)) {
  scenario_.validate();
}

void SummaryTransport::set_telemetry(telemetry::Telemetry* tel) {
  if (tel == nullptr) {
    tel_delivered_ = tel_dropped_ = tel_late_ = tel_reordered_ = nullptr;
    tel_crashed_ = nullptr;
    tel_fetch_attempts_ = tel_fetch_failures_ = tel_fetch_giveups_ = nullptr;
    return;
  }
  auto& m = tel->metrics;
  tel_delivered_ = &m.counter("jaal_faults_summaries_delivered_total");
  tel_dropped_ = &m.counter("jaal_faults_summaries_dropped_total");
  tel_late_ = &m.counter("jaal_faults_summaries_late_total");
  tel_reordered_ = &m.counter("jaal_faults_summaries_reordered_total");
  tel_crashed_ = &m.counter("jaal_faults_crashed_monitor_epochs_total");
  tel_fetch_attempts_ = &m.counter("jaal_faults_feedback_attempts_total");
  tel_fetch_failures_ = &m.counter("jaal_faults_feedback_failures_total");
  tel_fetch_giveups_ = &m.counter("jaal_faults_feedback_giveups_total");
}

void SummaryTransport::note_crashed(std::size_t count) {
  stats_.crashed_monitor_epochs += count;
  if (tel_crashed_ != nullptr && count > 0) tel_crashed_->add(count);
}

void SummaryTransport::begin_epoch(std::uint64_t epoch, double now,
                                   double deadline) {
  epoch_ = epoch;
  epoch_now_ = now;
  epoch_deadline_ = deadline;
  last_arrival_this_epoch_ = 0.0;
  // Feedback draws restart from a per-epoch stream so a retrieval's fate
  // depends on (seed, epoch, call order), not on how many epochs preceded.
  fetch_rng_.seed(stream_seed(scenario_.seed ^ 0xFEEDBACCULL, epoch, 0));
}

ShipOutcome SummaryTransport::ship(std::size_t monitor,
                                   std::size_t /*bytes*/) {
  ++stats_.summaries_shipped;
  if (scenario_.fault_free()) {
    ++stats_.summaries_delivered;
    if (tel_delivered_ != nullptr) tel_delivered_->add(1);
    return {ShipStatus::kDelivered, epoch_now_};
  }

  std::mt19937_64 rng(stream_seed(scenario_.seed, epoch_, monitor));
  if (scenario_.drop_rate > 0.0 && unit(rng) < scenario_.drop_rate) {
    ++stats_.summaries_dropped;
    if (tel_dropped_ != nullptr) tel_dropped_->add(1);
    return {ShipStatus::kDropped, 0.0};
  }

  double arrival = epoch_now_;
  if (scenario_.delay_mean_s > 0.0) {
    arrival += -scenario_.delay_mean_s * std::log(1.0 - unit(rng));
  }
  if (scenario_.delay_jitter_s > 0.0) {
    arrival += scenario_.delay_jitter_s * unit(rng);
  }

  if (arrival < last_arrival_this_epoch_) {
    ++stats_.summaries_reordered;
    if (tel_reordered_ != nullptr) tel_reordered_->add(1);
  }
  last_arrival_this_epoch_ = std::max(last_arrival_this_epoch_, arrival);

  if (arrival > epoch_deadline_) {
    ++stats_.summaries_late;
    if (tel_late_ != nullptr) tel_late_->add(1);
    return {ShipStatus::kLate, arrival};
  }
  ++stats_.summaries_delivered;
  if (tel_delivered_ != nullptr) tel_delivered_->add(1);
  return {ShipStatus::kDelivered, arrival};
}

FetchResult SummaryTransport::fetch(std::size_t monitor,
                                    const FetchAttempt& attempt) {
  ++stats_.fetch_calls;
  FetchResult result;
  const RetryPolicy& retry = scenario_.retry;
  const bool down = !monitor_up(monitor, epoch_);
  double backoff_step = retry.base_backoff_s;
  for (std::size_t i = 0; i < retry.max_attempts; ++i) {
    ++result.attempts;
    ++stats_.fetch_attempts;
    if (tel_fetch_attempts_ != nullptr) tel_fetch_attempts_->add(1);
    bool failed = down;
    if (!failed && scenario_.feedback_failure_rate > 0.0) {
      failed = unit(fetch_rng_) < scenario_.feedback_failure_rate;
    }
    if (!failed) {
      result.packets = attempt(i);
      break;
    }
    ++stats_.fetch_failures;
    if (tel_fetch_failures_ != nullptr) tel_fetch_failures_->add(1);
    if (i + 1 == retry.max_attempts) break;
    if (result.backoff_s + backoff_step > retry.timeout_s) break;  // budget
    result.backoff_s += backoff_step;
    backoff_step *= retry.multiplier;
  }
  stats_.fetch_backoff_s += result.backoff_s;
  if (!result.packets) {
    ++stats_.fetch_giveups;
    if (tel_fetch_giveups_ != nullptr) tel_fetch_giveups_->add(1);
  }
  return result;
}

}  // namespace jaal::faults
