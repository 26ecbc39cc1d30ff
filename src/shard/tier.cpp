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
  // Drop the previous epoch's rows and any unaggregated summaries; both
  // keep their buffers for this epoch.
  aggregate_.clear();
  views_.clear();
  down_ = false;
  for (const faults::ShardCrashWindow& w : outages_) {
    down_ = down_ || w.covers(epoch);
  }
}

bool InferenceTier::add_summary(const summarize::MonitorSummary& summary) {
  if (down_) return false;
  // Serialized once, as shipped: parsing validates the bytes, the view
  // joins the aggregate, and the store keeps the same bytes.  Growing
  // wire_ moves the buffers, not their bytes, so earlier views stay valid.
  if (views_.size() == wire_.size()) wire_.emplace_back();
  std::vector<std::uint8_t>& bytes = wire_[views_.size()];
  summarize::serialize(summary, bytes);
  views_.push_back(summarize::parse_summary(bytes));
  if (store_ != nullptr) {
    store_->put_summary(epoch_, views_.back().monitor, bytes);
  }
  return true;
}

const inference::AggregatedSummary& InferenceTier::aggregate_epoch() {
  aggregated_ = true;
  aggregator_.add(views_, engine_.pool());
  views_.clear();
  aggregator_.take(aggregate_);
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
