#include "shard/tier.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/channel.hpp"
#include "telemetry/export.hpp"

namespace jaal::shard {
namespace {

summarize::CombinedSummary to_combined(const summarize::MonitorSummary& s) {
  if (const auto* c = std::get_if<summarize::CombinedSummary>(&s)) return *c;
  return std::get<summarize::SplitSummary>(s).reconstruct();
}

}  // namespace

InferenceTier::InferenceTier(const ShardingConfig& sharding,
                             std::vector<rules::Rule> rules,
                             const inference::EngineConfig& engine,
                             const inference::AggregationPolicy& aggregation,
                             std::vector<faults::ShardCrashWindow> shard_faults)
    : sharding_(sharding),
      ring_(sharding),  // validates the config
      root_(rules, engine, aggregation),
      shards_(sharding.shards),
      stats_(sharding.shards),
      shard_faults_(std::move(shard_faults)) {
  for (const faults::ShardCrashWindow& w : shard_faults_) {
    if (w.restart_epoch < w.crash_epoch) {
      throw std::invalid_argument(
          "InferenceTier: shard crash window restart_epoch < crash_epoch");
    }
    if (w.shard >= sharding_.shards) {
      throw std::invalid_argument(
          "InferenceTier: shard crash window names a shard >= shards");
    }
  }
  // Per-shard matching engines: they run Algorithm 1 over their shard's
  // aggregate; the root engine owns the decision phase.  A single-shard
  // tier is just the root engine.
  if (sharding_.shards > 1) {
    for (std::size_t s = 0; s < sharding_.shards; ++s) {
      shards_[s].engine = std::make_unique<inference::InferenceEngine>(
          rules, engine, aggregation);
    }
  }
  for (std::size_t s = 0; s < stats_.size(); ++s) stats_[s].shard = s;
}

void InferenceTier::set_pool(std::shared_ptr<runtime::ThreadPool> pool) {
  pool_ = std::move(pool);
  root_.set_pool(pool_);
}

void InferenceTier::set_telemetry(telemetry::Telemetry* tel) {
  tel_ = tel;
  root_.set_telemetry(tel);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    if (tel == nullptr || sharding_.shards == 1) {
      sh.tel_summaries = sh.tel_rows = nullptr;
      sh.tel_lost = sh.tel_down_epochs = nullptr;
      continue;
    }
    auto& m = tel->metrics;
    const std::string label = std::to_string(s);
    sh.tel_summaries = &m.counter(telemetry::with_label(
        "jaal_shard_summaries_total", "shard", label));
    sh.tel_rows = &m.counter(
        telemetry::with_label("jaal_shard_rows_total", "shard", label));
    sh.tel_lost = &m.counter(telemetry::with_label(
        "jaal_shard_summaries_lost_total", "shard", label));
    sh.tel_down_epochs = &m.counter(
        telemetry::with_label("jaal_shard_down_epochs_total", "shard", label));
  }
}

void InferenceTier::begin_epoch(std::uint64_t epoch) {
  epoch_ = epoch;
  next_seq_ = 0;
  aggregated_ = false;
  global_ = {};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    sh.buf.clear();
    sh.seq.clear();
    sh.agg = {};
    sh.to_global.clear();
    ShardEpochStats st;
    st.shard = s;
    for (const faults::ShardCrashWindow& w : shard_faults_) {
      if (w.covers(s, epoch)) st.down = true;
    }
    if (st.down && sh.tel_down_epochs != nullptr) sh.tel_down_epochs->add(1);
    stats_[s] = st;
  }
}

bool InferenceTier::add_summary(const summarize::MonitorSummary& summary) {
  const summarize::MonitorId monitor =
      std::visit([](const auto& v) { return v.monitor; }, summary);
  const std::size_t si = ring_.owner(monitor);
  Shard& sh = shards_[si];
  ShardEpochStats& st = stats_[si];
  if (st.down) {
    // The owning shard is dark: the summary is refused, never aggregated
    // and never persisted — it shows up only in the loss accounting (and,
    // through the caller, in the epoch's report fraction).
    ++st.summaries_lost;
    if (sh.tel_lost != nullptr) sh.tel_lost->add(1);
    return false;
  }
  summarize::CombinedSummary combined = to_combined(summary);
  combined.check_invariants();
  // Field-width mismatches are programming errors, same as Aggregator::add.
  for (const Shard& other : shards_) {
    if (!other.buf.empty() &&
        other.buf.front().centroids.cols() != combined.centroids.cols()) {
      throw std::invalid_argument("InferenceTier: field-width mismatch");
    }
  }
  if (store_ != nullptr) store_->put_summary(epoch_, summary);
  ++st.summaries;
  st.rows += combined.centroids.rows();
  for (const std::uint64_t c : combined.counts) st.packets += c;
  if (sh.tel_summaries != nullptr) {
    sh.tel_summaries->add(1);
    sh.tel_rows->add(combined.centroids.rows());
  }
  sh.seq.push_back(next_seq_++);
  sh.buf.push_back(std::move(combined));
  return true;
}

std::size_t InferenceTier::pending() const noexcept {
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.buf.size();
  return total;
}

inference::AggregatedSummary InferenceTier::build_shard_aggregate(
    const Shard& s) {
  inference::AggregatedSummary agg;
  std::size_t total_rows = 0;
  for (const auto& b : s.buf) total_rows += b.centroids.rows();
  const std::size_t cols = s.buf.empty() ? 0 : s.buf.front().centroids.cols();
  agg.centroids = linalg::Matrix(total_rows, cols);
  agg.counts.reserve(total_rows);
  agg.origin.reserve(total_rows);
  agg.local_index.reserve(total_rows);
  std::size_t row = 0;
  for (const auto& b : s.buf) {
    for (std::size_t i = 0; i < b.centroids.rows(); ++i, ++row) {
      const auto src = b.centroids.row(i);
      std::copy(src.begin(), src.end(), agg.centroids.row(row).begin());
      agg.counts.push_back(b.counts[i]);
      agg.origin.push_back(b.monitor);
      agg.local_index.push_back(i);
    }
  }
  return agg;
}

const inference::AggregatedSummary& InferenceTier::aggregate_epoch(
    const telemetry::SpanContext& parent) {
  aggregated_ = true;
  if (shards_.size() == 1) {
    // Degenerate tier: the shard aggregate IS the global aggregate —
    // byte-identical to the single-engine Aggregator (arrival order).
    global_ = build_shard_aggregate(shards_[0]);
    return global_;
  }
  // Tier-shape spans exist only for a genuinely sharded tier, so the
  // shards == 1 span set (and the deterministic exports, which elide them
  // either way) is unchanged.
  const bool trace = tel_ != nullptr;

  // Level 1: per-shard aggregates, concurrently on the channel runtime
  // when a pool is attached.  Each task touches only its own shard's
  // buffers; results reduce serially below, so the hierarchy is
  // bit-identical to the serial build.
  const auto build_one = [&](std::size_t s) {
    telemetry::Span span = trace
                               ? tel_->tracer.span("shard_aggregate", parent, s)
                               : telemetry::Span{};
    inference::AggregatedSummary agg = build_shard_aggregate(shards_[s]);
    span.attr("rows", static_cast<double>(agg.rows()));
    return agg;
  };
  if (pool_) {
    using Built = std::pair<std::size_t, inference::AggregatedSummary>;
    runtime::Channel<Built> channel(
        std::max<std::size_t>(std::size_t{2}, pool_->threads()));
    std::mutex error_mu;
    std::exception_ptr error;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      (void)pool_->submit([&, s] {
        inference::AggregatedSummary agg;
        try {
          agg = build_one(s);
        } catch (...) {
          std::lock_guard lock(error_mu);
          if (!error) error = std::current_exception();
        }
        channel.push({s, std::move(agg)});
      });
    }
    for (std::size_t received = 0; received < shards_.size(); ++received) {
      auto item = channel.pop();
      shards_[item->first].agg = std::move(item->second);
    }
    channel.close();
    if (error) std::rethrow_exception(error);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].agg = build_one(s);
    }
  }

  // Level 2: the cross-shard merge.
  telemetry::Span merge_span =
      trace ? tel_->tracer.span("cross_shard_merge", parent)
            : telemetry::Span{};
  std::size_t total_rows = 0;
  std::size_t cols = 0;
  for (const Shard& sh : shards_) {
    total_rows += sh.agg.rows();
    if (cols == 0) cols = sh.agg.centroids.cols();
  }
  global_ = {};
  global_.centroids = linalg::Matrix(total_rows, cols);
  global_.counts.reserve(total_rows);
  global_.origin.reserve(total_rows);
  global_.local_index.reserve(total_rows);

  // Interleave shard row blocks back into arrival (sequence) order,
  // rebuilding byte-for-byte the one tall aggregate the single engine would
  // have produced, and record each shard's local-row -> global-row map for
  // the match merge.
  struct Ref {
    std::uint64_t seq;
    std::uint32_t shard;
    std::uint32_t entry;
  };
  std::vector<Ref> order;
  order.reserve(total_rows);
  std::vector<std::vector<std::size_t>> entry_base(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    sh.to_global.assign(sh.agg.rows(), 0);
    entry_base[s].reserve(sh.buf.size());
    std::size_t base = 0;
    for (std::size_t e = 0; e < sh.buf.size(); ++e) {
      entry_base[s].push_back(base);
      base += sh.buf[e].centroids.rows();
      order.push_back({sh.seq[e], static_cast<std::uint32_t>(s),
                       static_cast<std::uint32_t>(e)});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const Ref& a, const Ref& b) { return a.seq < b.seq; });

  std::size_t row = 0;
  for (const Ref& ref : order) {
    Shard& sh = shards_[ref.shard];
    const std::size_t base = entry_base[ref.shard][ref.entry];
    const std::size_t k = sh.buf[ref.entry].centroids.rows();
    for (std::size_t i = 0; i < k; ++i, ++row) {
      const auto src = sh.agg.centroids.row(base + i);
      std::copy(src.begin(), src.end(), global_.centroids.row(row).begin());
      global_.counts.push_back(sh.agg.counts[base + i]);
      global_.origin.push_back(sh.agg.origin[base + i]);
      global_.local_index.push_back(sh.agg.local_index[base + i]);
      sh.to_global[base + i] = row;
    }
  }
  return global_;
}

std::vector<inference::Alert> InferenceTier::infer_epoch(
    const inference::RawPacketFetcher& fetch,
    const telemetry::SpanContext& parent) {
  if (!aggregated_) (void)aggregate_epoch(parent);
  if (global_.empty()) return {};
  if (shards_.size() == 1) return root_.infer(global_, fetch, parent);
  const bool trace = tel_ != nullptr;

  // Per-shard matching, concurrently on the channel runtime.  Each shard
  // engine runs Algorithm 1 over its shard aggregate only.
  std::vector<std::vector<inference::QuestionMatch>> parts(shards_.size());
  const auto match_one = [&](std::size_t s) {
    telemetry::Span span = trace ? tel_->tracer.span("shard_match", parent, s)
                                 : telemetry::Span{};
    return shards_[s].agg.empty() ? std::vector<inference::QuestionMatch>{}
                                  : shards_[s].engine->match(shards_[s].agg);
  };
  if (pool_) {
    using Matched =
        std::pair<std::size_t, std::vector<inference::QuestionMatch>>;
    runtime::Channel<Matched> channel(
        std::max<std::size_t>(std::size_t{2}, pool_->threads()));
    std::mutex error_mu;
    std::exception_ptr error;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      (void)pool_->submit([&, s] {
        std::vector<inference::QuestionMatch> matched;
        try {
          matched = match_one(s);
        } catch (...) {
          std::lock_guard lock(error_mu);
          if (!error) error = std::current_exception();
        }
        channel.push({s, std::move(matched)});
      });
    }
    for (std::size_t received = 0; received < shards_.size(); ++received) {
      auto item = channel.pop();
      parts[item->first] = std::move(item->second);
    }
    channel.close();
    if (error) std::rethrow_exception(error);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) parts[s] = match_one(s);
  }

  // Exact cross-shard match merge: matched rows are per-row facts and the
  // matched count is an integer sum, so the global SimilarityResult is the
  // union of the per-shard partials mapped through to_global, re-sorted
  // into global row order, with the alert flag re-derived against the root
  // engine's threshold.
  telemetry::Span merge_span =
      trace ? tel_->tracer.span("cross_shard_merge", parent)
            : telemetry::Span{};
  const auto& questions = root_.questions();
  const auto merge_part = [&](std::size_t qi, bool strict_part,
                              std::uint64_t tau_c) {
    inference::SimilarityResult out;
    std::vector<std::pair<std::size_t, double>> rows;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (parts[s].empty()) continue;
      const inference::SimilarityResult& part =
          strict_part ? parts[s][qi].strict : parts[s][qi].loose;
      out.matched_count += part.matched_count;
      for (std::size_t j = 0; j < part.matched_rows.size(); ++j) {
        rows.emplace_back(shards_[s].to_global[part.matched_rows[j]],
                          part.matched_distances[j]);
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out.matched_rows.reserve(rows.size());
    out.matched_distances.reserve(rows.size());
    for (const auto& [r, d] : rows) {
      out.matched_rows.push_back(r);
      out.matched_distances.push_back(d);
    }
    out.alert = out.matched_count >= tau_c;
    return out;
  };
  std::vector<inference::QuestionMatch> merged(questions.size());
  for (std::size_t qi = 0; qi < questions.size(); ++qi) {
    const std::uint64_t tau_c = root_.scaled_tau_c(questions[qi]);
    merged[qi].strict = merge_part(qi, /*strict_part=*/true, tau_c);
    merged[qi].loose = merge_part(qi, /*strict_part=*/false, tau_c);
  }

  merge_span.finish();

  // One serial decision/feedback/postprocess pass, at the root.
  return root_.decide(global_, merged, fetch, parent);
}

}  // namespace jaal::shard
