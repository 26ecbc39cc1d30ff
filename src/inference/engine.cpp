#include "inference/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "packet/wire.hpp"
#include "telemetry/export.hpp"

namespace jaal::inference {
namespace {

/// The rule as applied during raw verification: exact-match evidence uses
/// the rule's jaal_raw_count when given, otherwise a kRawEvidenceFactor
/// fraction of the summary-domain count.
rules::Rule verification_rule(const rules::Rule& rule) {
  rules::Rule v = rule;
  if (v.raw_count) {
    if (!v.detection_filter) v.detection_filter.emplace();
    v.detection_filter->count = *v.raw_count;
  } else if (v.detection_filter) {
    v.detection_filter->count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::ceil(v.detection_filter->count * kRawEvidenceFactor)));
  }
  return v;
}

}  // namespace

InferenceEngine::InferenceEngine(std::vector<rules::Rule> rules,
                                 EngineConfig config,
                                 AggregationPolicy aggregation)
    : matcher_(std::move(rules)),
      questions_(rules::translate(matcher_.rules())),
      config_(std::move(config)) {
  aggregation.validate();
  if (questions_.empty()) {
    throw std::invalid_argument("InferenceEngine: empty rule set");
  }
  auto check = [](const ThresholdPair& t) {
    // Written so NaN fails: a NaN threshold would break the nesting of the
    // strict matched set in the loose one.
    if (!(t.tau_d1 >= 0.0 && t.tau_d2 >= t.tau_d1)) {
      throw std::invalid_argument(
          "InferenceEngine: need 0 <= tau_d1 <= tau_d2");
    }
  };
  check(config_.default_thresholds);
  for (const auto& [sid, pair] : config_.per_rule) check(pair);
}

void InferenceEngine::set_telemetry(telemetry::Telemetry* tel) {
  tel_ = tel;
  tel_alerts_by_sid_.clear();
  if (tel_ == nullptr) {
    tel_questions_ = tel_questions_matched_ = nullptr;
    tel_alerts_feedback_ = tel_alerts_suppressed_ = nullptr;
    tel_feedback_requests_ = tel_feedback_fallbacks_ = nullptr;
    tel_raw_packets_fetched_ = tel_raw_bytes_fetched_ = nullptr;
    tel_provenance_records_ = nullptr;
    return;
  }
  auto& m = tel_->metrics;
  tel_questions_ = &m.counter("jaal_inference_questions_evaluated_total");
  tel_questions_matched_ = &m.counter("jaal_inference_questions_matched_total");
  // One alert counter per rule, labeled by sid, registered up front so the
  // decision loop only bumps a cached pointer.
  for (const rules::Question& q : questions_) {
    tel_alerts_by_sid_.emplace(
        q.sid, &m.counter(telemetry::with_label("jaal_inference_alerts_total",
                                                "sid",
                                                std::to_string(q.sid))));
  }
  tel_alerts_feedback_ = &m.counter("jaal_inference_alerts_via_feedback_total");
  tel_provenance_records_ =
      &m.counter("jaal_observe_provenance_records_total");
  tel_alerts_suppressed_ = &m.counter("jaal_inference_alerts_suppressed_total");
  tel_feedback_requests_ = &m.counter("jaal_inference_feedback_requests_total");
  tel_feedback_fallbacks_ =
      &m.counter("jaal_inference_feedback_fallbacks_total");
  tel_raw_packets_fetched_ =
      &m.counter("jaal_inference_raw_packets_fetched_total");
  tel_raw_bytes_fetched_ = &m.counter("jaal_inference_raw_bytes_fetched_total");
}

ThresholdPair InferenceEngine::thresholds_for(std::uint32_t sid) const {
  const auto it = config_.per_rule.find(sid);
  return it == config_.per_rule.end() ? config_.default_thresholds : it->second;
}

void InferenceEngine::set_report_fraction(double fraction) noexcept {
  report_fraction_ =
      std::isnan(fraction) ? 1.0 : std::clamp(fraction, 1e-9, 1.0);
}

void InferenceEngine::set_caution(double caution) noexcept {
  caution_ = std::isnan(caution) ? 0.0 : std::clamp(caution, 0.0, 1.0);
}

std::uint64_t InferenceEngine::scaled_tau_c(const rules::Question& q) const {
  // A partial aggregate (report_fraction < 1) carries proportionally less
  // attack mass, so an unscaled threshold would silently miss; scale the
  // count threshold with it.  At 1.0 this is the exact full-epoch threshold
  // (multiplying by 1.0 is bit-exact).
  const double t = std::ceil(static_cast<double>(q.tau_c) *
                             config_.tau_c_scale * report_fraction_);
  // Casting NaN or anything outside [0, 2^64) to uint64_t is undefined.
  if (!(t < 0x1p64)) return std::numeric_limits<std::uint64_t>::max();
  if (t < 1.0) return 1;
  return static_cast<std::uint64_t>(t);
}

std::vector<QuestionMatch> InferenceEngine::match(
    const AggregatedSummary& aggregate) const {
  // Algorithm 1 per question (strict + loose thresholds, one scoring scan)
  // is read-only on the aggregate and independent across questions, so it
  // fans out over the pool.  Matched rows depend only on tau_d (the
  // distance threshold); the alert flag additionally compares the count sum
  // against scaled_tau_c.
  std::vector<QuestionMatch> matches(questions_.size());
  const auto match_one = [&](std::size_t qi) {
    const rules::Question& q = questions_[qi];
    const ThresholdPair th = thresholds_for(q.sid);
    matches[qi] =
        match_question(q, aggregate, th.tau_d1, th.tau_d2, scaled_tau_c(q));
  };
  if (pool_ && questions_.size() > 1) {
    pool_->parallel_for(0, questions_.size(), match_one, 1);
  } else {
    for (std::size_t qi = 0; qi < questions_.size(); ++qi) match_one(qi);
  }
  return matches;
}

std::vector<Alert> InferenceEngine::infer(
    const AggregatedSummary& aggregate, const RawPacketFetcher& fetch,
    const telemetry::SpanContext& parent) {
  if (aggregate.empty()) return {};
  return decide(aggregate, match(aggregate), fetch, parent);
}

std::vector<Alert> InferenceEngine::decide(
    const AggregatedSummary& aggregate,
    const std::vector<QuestionMatch>& matches, const RawPacketFetcher& fetch,
    const telemetry::SpanContext& parent) {
  std::vector<Alert> alerts;
  if (aggregate.empty()) return alerts;
  if (tel_questions_ != nullptr) tel_questions_->add(questions_.size());

  // Per-pass cache of raw packets fetched by the feedback loop: different
  // questions often flag overlapping centroid sets (e.g. the SYN-family
  // rules), and the monitor only has to ship each centroid's packets once
  // per epoch.  Bytes are accounted on first fetch only.  Failed retrievals
  // (nullopt — transport fault, retries exhausted) are cached too, so one
  // dead monitor costs one retry cycle per centroid, not one per question.
  std::unordered_map<std::uint64_t, RawFetch> fetch_cache;
  // Transport cost of the retrievals made *fresh* since the last reset —
  // the per-alert attempt/backoff accounting provenance records (cache hits
  // were paid for by an earlier alert and contribute 0).
  std::size_t fresh_attempts = 0;
  double fresh_backoff = 0.0;
  auto fetch_cached = [&](summarize::MonitorId monitor,
                          std::size_t centroid) -> const RawFetch& {
    const std::uint64_t key = (std::uint64_t{monitor} << 32) | centroid;
    auto it = fetch_cache.find(key);
    if (it == fetch_cache.end()) {
      RawFetch result = fetch(monitor, {centroid});
      fresh_attempts += result.attempts;
      fresh_backoff += result.backoff_s;
      if (result.packets) {
        stats_.raw_packets_fetched += result.packets->size();
        stats_.raw_bytes_fetched +=
            result.packets->size() * packet::kHeadersBytes;
        if (tel_raw_packets_fetched_ != nullptr) {
          tel_raw_packets_fetched_->add(result.packets->size());
          tel_raw_bytes_fetched_->add(result.packets->size() *
                                      packet::kHeadersBytes);
        }
      }
      it = fetch_cache.emplace(key, std::move(result)).first;
    }
    return it->second;
  };

  // Gathers the raw packets behind `rows`; false when any retrieval failed
  // (the caller then degrades to the summary-only decision).
  auto gather_raw = [&](const std::vector<std::size_t>& rows,
                        std::vector<packet::PacketRecord>& raw) {
    for (std::size_t row : rows) {
      const RawFetch& result =
          fetch_cached(aggregate.origin[row], aggregate.local_index[row]);
      if (!result.packets) return false;
      raw.insert(raw.end(), result.packets->begin(), result.packets->end());
    }
    return true;
  };

  // The decision/feedback phase mutates stats_ and the fetch cache and
  // therefore stays serial, in question order — making the alert stream
  // bit-identical to the poolless path.
  const auto& rule_list = matcher_.rules();
  for (std::size_t qi = 0; qi < questions_.size(); ++qi) {
    const rules::Question& q = questions_[qi];
    const rules::Rule& rule = rule_list[qi];
    const ThresholdPair th = thresholds_for(q.sid);

    const SimilarityResult& strict = matches[qi].strict;
    const SimilarityResult& loose = matches[qi].loose;

    // Matched sets are nested (tau_d2 >= tau_d1), so t1+ implies t2+.
    if (strict.alert && !loose.alert) ++stats_.case4_anomalies;
    if ((strict.alert || loose.alert) && tel_questions_matched_ != nullptr) {
      tel_questions_matched_->add(1);
    }

    bool fire = false;
    bool via_feedback = false;
    bool verified = false;
    const SimilarityResult* evidence = &strict;
    observe::ThresholdCase threshold_case = observe::ThresholdCase::kStrictMatch;
    observe::FeedbackProvenance fb;

    if (strict.alert) {
      fire = true;  // case 1
      evidence = &strict;
    } else if (!loose.alert) {
      fire = false;  // case 2
    } else {
      // Case 3: uncertain.  Pull raw packets behind the loose-match
      // centroids and let traditional Snort matching decide.
      evidence = &loose;
      threshold_case = observe::ThresholdCase::kUncertainAssumed;
      if (config_.feedback_enabled && fetch) {
        ++stats_.feedback_requests;
        if (tel_feedback_requests_ != nullptr) tel_feedback_requests_->add(1);
        telemetry::Span span =
            tel_ != nullptr
                ? tel_->tracer.span("feedback", parent, q.sid)
                : telemetry::Span{};
        fb.requested = true;
        fresh_attempts = 0;
        fresh_backoff = 0.0;
        std::vector<packet::PacketRecord> raw;
        if (gather_raw(loose.matched_rows, raw)) {
          // Raw verification: exact signature matches over the retrieved
          // packets, against the rule's raw-evidence threshold.
          const auto raw_alerts = rules::RawMatcher({verification_rule(rule)})
                                      .analyze(raw, 0.0, config_.tau_c_scale);
          fire = !raw_alerts.empty();
          via_feedback = true;
          threshold_case = observe::ThresholdCase::kUncertainVerified;
          fb.raw_confirmed = fire;
        } else {
          // Retrieval failed (transport fault, retries exhausted): degrade
          // to summary-only inference — the loose decision stands, exactly
          // as if no fetcher were wired.
          ++stats_.feedback_fallbacks;
          if (tel_feedback_fallbacks_ != nullptr) {
            tel_feedback_fallbacks_->add(1);
          }
          fb.fallback = true;
          fire = true;
        }
        fb.attempts += fresh_attempts;
        fb.backoff_s += fresh_backoff;
        fb.raw_packets += raw.size();
        if (tel_ != nullptr) {
          span.attr("sid", static_cast<double>(q.sid));
          span.attr("raw_packets", static_cast<double>(raw.size()));
          span.attr("failed", via_feedback ? 0.0 : 1.0);
          span.attr("fired", fire ? 1.0 : 0.0);
        }
      } else {
        // No feedback available: accept the loose decision (higher TPR at
        // the cost of FPR), which is the tau_d1 == tau_d2 operating mode.
        fire = true;
      }
    }

    if (!fire) continue;

    // §10 extension: confirm any remaining alert against raw evidence.  A
    // failed retrieval cannot *suppress* an alert — verification degrades
    // to trusting the summary decision instead of silently dropping it.
    if (config_.verify_all_alerts && fetch && !via_feedback) {
      fb.requested = true;
      fresh_attempts = 0;
      fresh_backoff = 0.0;
      std::vector<packet::PacketRecord> raw;
      const bool gathered = gather_raw(evidence->matched_rows, raw);
      fb.attempts += fresh_attempts;
      fb.backoff_s += fresh_backoff;
      fb.raw_packets += raw.size();
      if (gathered) {
        const auto raw_alerts = rules::RawMatcher({verification_rule(rule)})
                                    .analyze(raw, 0.0, config_.tau_c_scale);
        if (raw_alerts.empty()) {
          ++stats_.alerts_suppressed;
          if (tel_alerts_suppressed_ != nullptr) tel_alerts_suppressed_->add(1);
          continue;
        }
        verified = true;
        fb.raw_confirmed = true;
      } else {
        ++stats_.feedback_fallbacks;
        if (tel_feedback_fallbacks_ != nullptr) tel_feedback_fallbacks_->add(1);
        fb.fallback = true;
      }
    }

    Alert alert;
    alert.sid = q.sid;
    alert.msg = q.msg;
    alert.matched_packets = evidence->matched_count;
    alert.via_feedback = via_feedback;
    alert.confidence = report_fraction_;
    alert.caution = caution_;
    if (q.variance) {
      alert.variance =
          matched_variance(aggregate, evidence->matched_rows, q.variance->field);
      alert.distributed = alert.variance >= q.variance->threshold;
      if (!alert.distributed) continue;  // equivalent rule requires spread
    } else {
      // Opportunistic classification: a signature alert whose sources vary
      // widely is flagged distributed (the paper's SYN-flood example, §5.2).
      alert.variance = matched_variance(aggregate, evidence->matched_rows,
                                        packet::FieldIndex::kIpSrcAddr);
      alert.distributed = alert.variance >= 0.005;
    }
    if (config_.record_provenance) {
      alert.provenance = build_provenance(aggregate, q, th, threshold_case,
                                          strict, loose, *evidence, fb,
                                          alert, verified);
      if (tel_provenance_records_ != nullptr) tel_provenance_records_->add(1);
    }
    if (tel_ != nullptr) {
      const auto it = tel_alerts_by_sid_.find(alert.sid);
      if (it != tel_alerts_by_sid_.end()) it->second->add(1);
      if (alert.via_feedback) tel_alerts_feedback_->add(1);
    }
    alerts.push_back(std::move(alert));
  }
  return alerts;
}

std::shared_ptr<const observe::AlertProvenance>
InferenceEngine::build_provenance(
    const AggregatedSummary& aggregate, const rules::Question& q,
    const ThresholdPair& th, observe::ThresholdCase threshold_case,
    const SimilarityResult& strict, const SimilarityResult& loose,
    const SimilarityResult& evidence, const observe::FeedbackProvenance& fb,
    const Alert& alert, bool verified) const {
  auto prov = std::make_shared<observe::AlertProvenance>();
  prov->sid = q.sid;
  prov->threshold_case = threshold_case;
  prov->tau_d1 = th.tau_d1;
  prov->tau_d2 = th.tau_d2;
  prov->tau_c = scaled_tau_c(q);
  prov->tau_c_scale = config_.tau_c_scale;
  prov->strict_count = strict.matched_count;
  prov->loose_count = loose.matched_count;
  prov->report_fraction = report_fraction_;
  prov->caution = caution_;
  prov->centroids.reserve(evidence.matched_rows.size());
  for (std::size_t j = 0; j < evidence.matched_rows.size(); ++j) {
    const std::size_t row = evidence.matched_rows[j];
    observe::CentroidEvidence ce;
    ce.monitor = static_cast<std::uint32_t>(aggregate.origin[row]);
    ce.local_index = aggregate.local_index[row];
    ce.count = aggregate.counts[row];
    ce.distance = evidence.matched_distances[j];
    ce.margin_d1 = th.tau_d1 - ce.distance;
    ce.margin_d2 = th.tau_d2 - ce.distance;
    prov->monitors.push_back(ce.monitor);
    prov->centroids.push_back(ce);
  }
  std::sort(prov->monitors.begin(), prov->monitors.end());
  prov->monitors.erase(
      std::unique(prov->monitors.begin(), prov->monitors.end()),
      prov->monitors.end());
  prov->feedback = fb;
  prov->variance = alert.variance;
  prov->distributed = alert.distributed;
  prov->verified = verified;
  return prov;
}

}  // namespace jaal::inference
