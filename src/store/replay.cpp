#include "store/replay.hpp"

#include "inference/aggregate.hpp"

namespace jaal::store {

StoreReplayer::StoreReplayer(const StoreConfig& cfg)
    : store_(cfg, /*writable=*/false) {}

std::vector<ReplayEpoch> StoreReplayer::replay(
    inference::InferenceEngine& engine, double base_tau_c_scale) const {
  std::vector<ReplayEpoch> epochs;
  // An epoch's summaries precede its EpochMeta in the log (its alert and
  // ops records in between are skipped, as are the provenance records of
  // stores written by older builds), so one pass
  // suffices: hold the epoch's parsed summaries, which alias the shard
  // mapping, until the commit record closes the epoch, then rebuild the
  // aggregate on the engine's pool.  The walk serves an epoch's records
  // from its one shard only, so the views are consumed or dropped before
  // the walk leaves it; a record of a later epoch means the commit record
  // was lost, and the views are dropped unread.
  // One aggregate recycled across epochs: take() swaps its buffers with the
  // aggregator's, so steady-state epochs allocate no rows.
  inference::Aggregator aggregator;
  inference::AggregatedSummary aggregate;
  std::vector<summarize::SummaryView> pending;
  std::uint64_t pending_epoch = 0;
  store_.log().for_each([&](const RecordView& rec) {
    if (rec.epoch != pending_epoch) pending.clear();
    pending_epoch = rec.epoch;
    if (rec.kind == RecordKind::kSummary) {
      // Aggregation order is append order — the live controller's order
      // (carry-ins first, then monitors ascending).
      pending.push_back(summarize::parse_summary(rec.payload));
      return true;
    }
    if (rec.kind != RecordKind::kEpochMeta) return true;
    const auto meta = decode_epoch_meta(rec.epoch, rec.payload);
    if (!meta) {
      // CRC-valid but malformed commit record: the epoch is unreplayable.
      // Discard its pending summaries so they cannot leak into the next
      // epoch's aggregate.
      pending.clear();
      return true;
    }
    aggregator.add(pending, engine.pool());
    pending.clear();
    ReplayEpoch out;
    out.epoch = meta->epoch;
    out.end_time = meta->end_time;
    out.packets = meta->packets;
    out.report_fraction = meta->report_fraction;
    out.caution = meta->caution;
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
