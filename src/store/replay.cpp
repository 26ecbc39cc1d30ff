#include "store/replay.hpp"

#include "inference/aggregate.hpp"

namespace jaal::store {

StoreReplayer::StoreReplayer(const StoreConfig& cfg)
    : store_(cfg, /*writable=*/false) {}

std::vector<ReplayEpoch> StoreReplayer::replay(
    inference::InferenceEngine& engine, double base_tau_c_scale) const {
  std::vector<ReplayEpoch> epochs;
  // Summaries of an epoch precede its EpochMeta in the log, so one pass
  // suffices: collect until the commit record closes the epoch.
  // One aggregate recycled across epochs: take() swaps its buffers with the
  // aggregator's, so steady-state epochs allocate no rows.
  inference::Aggregator aggregator;
  inference::AggregatedSummary aggregate;
  store_.summaries_log().for_each([&](const RecordView& rec) {
    if (rec.kind == RecordKind::kSummary) {
      // Aggregation order is append order — the live controller's order
      // (carry-ins first, then monitors ascending).
      aggregator.add(summarize::deserialize(rec.payload));
      return true;
    }
    if (rec.kind != RecordKind::kEpochMeta) return true;
    const auto meta = decode_epoch_meta(rec.epoch, rec.payload);
    if (!meta) {
      // CRC-valid but malformed commit record: the epoch is unreplayable.
      // Discard its pending summaries so they cannot leak into the next
      // epoch's aggregate.
      aggregator.clear();
      return true;
    }
    ReplayEpoch out;
    out.epoch = meta->epoch;
    out.end_time = meta->end_time;
    out.packets = meta->packets;
    out.report_fraction = meta->report_fraction;
    out.caution = meta->caution;
    out.shard_count = meta->shard_count;
    out.summaries = aggregator.summaries_added();
    // Restore the engine knobs the live controller set for this epoch.
    engine.set_tau_c_scale(base_tau_c_scale *
                           static_cast<double>(meta->packets) / 2000.0);
    engine.set_report_fraction(meta->report_fraction);
    engine.set_caution(meta->caution);
    if (aggregator.summaries_added() > 0) {
      aggregator.take(aggregate);
      out.alerts = engine.infer(aggregate, /*fetch=*/nullptr);
    }
    epochs.push_back(std::move(out));
    return true;
  });
  return epochs;
}

}  // namespace jaal::store
