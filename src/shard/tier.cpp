#include "shard/tier.hpp"

#include <stdexcept>
#include <utility>

namespace jaal::shard {

InferenceTier::InferenceTier(const ShardingConfig& /*sharding*/,
                             std::vector<rules::Rule> rules,
                             const inference::EngineConfig& engine,
                             const inference::AggregationPolicy& aggregation,
                             std::vector<faults::ShardCrashWindow> outages)
    : engine_(std::move(rules), engine, aggregation),
      outages_(std::move(outages)) {
  for (const faults::ShardCrashWindow& w : outages_) {
    if (w.restart_epoch < w.crash_epoch) {
      throw std::invalid_argument(
          "InferenceTier: outage window restart_epoch < crash_epoch");
    }
  }
}

void InferenceTier::begin_epoch(std::uint64_t epoch) {
  epoch_ = epoch;
  aggregated_ = false;
  aggregate_ = {};
  aggregator_ = {};
  down_ = false;
  for (const faults::ShardCrashWindow& w : outages_) {
    down_ = down_ || w.covers(epoch);
  }
}

bool InferenceTier::add_summary(const summarize::MonitorSummary& summary) {
  if (down_) return false;
  aggregator_.add(summary);
  if (store_ != nullptr) store_->put_summary(epoch_, summary);
  return true;
}

const inference::AggregatedSummary& InferenceTier::aggregate_epoch() {
  aggregated_ = true;
  aggregate_ = aggregator_.take();
  return aggregate_;
}

std::vector<inference::Alert> InferenceTier::infer_epoch(
    const inference::RawPacketFetcher& fetch,
    const telemetry::SpanContext& parent) {
  if (!aggregated_) (void)aggregate_epoch();
  if (aggregate_.empty()) return {};
  return engine_.infer(aggregate_, fetch, parent);
}

}  // namespace jaal::shard
