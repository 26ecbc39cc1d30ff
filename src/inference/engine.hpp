// Central inference engine (§5) with the two-threshold feedback loop (§5.3).
//
// For every translated rule the engine runs Algorithm 1 twice, with a strict
// threshold tau_d1 (low FPR) and a loose one tau_d2 > tau_d1 (high TPR):
//   t1+, t2+  -> alert (case 1, high confidence);
//   t1-, t2-  -> no alert (case 2);
//   t1-, t2+  -> case 3: fetch the raw packets behind the uncertain
//                centroids and decide with traditional Snort matching;
//   t1+, t2-  -> cannot happen with tau_d2 > tau_d1 (case 4; matched sets
//                are nested), asserted in code.
// Variance-based rules additionally run Algorithm 2 over the matched set;
// plain signature rules run it opportunistically to tag alerts as
// "distributed".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "inference/aggregate.hpp"
#include "inference/postprocessor.hpp"
#include "inference/similarity.hpp"
#include "observe/provenance.hpp"
#include "rules/raw_matcher.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::inference {

/// Per-rule threshold pair; tau_d2 >= tau_d1.
struct ThresholdPair {
  double tau_d1 = 0.02;
  double tau_d2 = 0.05;
};

/// Case-3 raw verification applies rule counts scaled by this factor:
/// exact signature matches over retrieved packets are far more precise
/// evidence than summary-domain centroid matches (whose counts absorb
/// near-miss benign centroids under normalized-field distances).  About a
/// third of the summary threshold in exact matches confirms an attack,
/// while benign retrievals (whose exact matches are a small fraction of
/// their centroid-level matches) fall short.
inline constexpr double kRawEvidenceFactor = 0.35;

struct EngineConfig {
  ThresholdPair default_thresholds;
  /// Per-sid overrides ("attack specific thresholds", §8.1).
  std::unordered_map<std::uint32_t, ThresholdPair> per_rule;
  bool feedback_enabled = true;
  /// Multiplied into every question's tau_c.  Rule counts are calibrated
  /// for a nominal epoch packet volume; windows carrying more or fewer
  /// packets scale proportionally (e.g. window_packets / 2000 for the
  /// built-in ruleset).
  double tau_c_scale = 1.0;
  /// The paper's §10 future-work extension: verify *every* alert (not just
  /// case-3 uncertain ones) against the raw packets behind its matched
  /// centroids before raising it.  Costs extra retrieval bandwidth but
  /// suppresses false positives from near-miss centroid matches (e.g. a
  /// port-80 flood tripping the port-22 rule after normalization collapses
  /// the port distance).  Requires a fetcher.
  bool verify_all_alerts = false;
  /// Attach an AlertProvenance (full causal chain) to every alert.  Off
  /// costs one branch per raised alert; the margins it records come from
  /// distances Algorithm 1 computes anyway.
  bool record_provenance = true;
};

struct Alert {
  std::uint32_t sid = 0;
  std::string msg;
  std::uint64_t matched_packets = 0;
  bool distributed = false;      ///< Postprocessor classification.
  bool via_feedback = false;     ///< Decided by case-3 raw analysis.
  double variance = 0.0;         ///< Measured field variance (if checked).
  /// Fraction of expected monitors whose summaries backed this epoch's
  /// aggregate (1.0 on a full epoch).  Partial epochs — summaries dropped,
  /// late, or monitors crashed — scale it down so consumers can weigh
  /// degraded-mode alerts.
  double confidence = 1.0;
  /// Summary-fidelity caution signal in effect at decision time: the
  /// fraction of monitors whose summaries are currently drifting from
  /// their baseline (0 = all healthy).  Surfaced for consumers; the engine
  /// never auto-acts on it.
  double caution = 0.0;
  /// Full causal chain behind this alert; null when
  /// EngineConfig::record_provenance is off.  Shared (immutable) so alerts
  /// stay cheap to copy.
  std::shared_ptr<const observe::AlertProvenance> provenance;
};

/// Result of one raw-packet retrieval plus what the transport spent on it.
/// `packets` is nullopt when retrieval *failed* (transport fault, retries
/// exhausted) — distinct from an empty vector (retrieval worked, nothing
/// behind the centroid).  Implicitly constructible from the bare payload
/// shapes fetchers historically returned (vector / optional / nullopt), so
/// simple fetchers stay one-liners; transport-backed fetchers also fill
/// attempts/backoff_s and alert provenance surfaces them.
struct RawFetch {
  std::optional<std::vector<packet::PacketRecord>> packets;
  std::size_t attempts = 0;  ///< Transport attempts made (0 = untracked).
  double backoff_s = 0.0;    ///< Simulated retry backoff spent.

  RawFetch() = default;
  RawFetch(std::vector<packet::PacketRecord> p)  // NOLINT(google-explicit-*)
      : packets(std::move(p)) {}
  RawFetch(  // NOLINT(google-explicit-*)
      std::optional<std::vector<packet::PacketRecord>> p)
      : packets(std::move(p)) {}
  RawFetch(std::nullopt_t) {}  // NOLINT(google-explicit-*)
  RawFetch(std::optional<std::vector<packet::PacketRecord>> p,
           std::size_t attempts_, double backoff_s_)
      : packets(std::move(p)), attempts(attempts_), backoff_s(backoff_s_) {}
};

/// Callback the controller wires to monitors: fetch raw packets behind the
/// given centroid indices at one monitor (§7's per-epoch hash table).  On a
/// failed retrieval (RawFetch::packets == nullopt) the engine falls back to
/// summary-only inference: the loose-threshold decision stands, exactly as
/// if no fetcher were wired.
using RawPacketFetcher = std::function<RawFetch(
    summarize::MonitorId, const std::vector<std::size_t>& centroid_indices)>;

struct InferenceStats {
  std::uint64_t feedback_requests = 0;   ///< Case-3 occurrences.
  std::uint64_t feedback_fallbacks = 0;  ///< Retrieval failed; summary-only.
  std::uint64_t raw_packets_fetched = 0;
  std::uint64_t raw_bytes_fetched = 0;   ///< Header bytes pulled by feedback.
  std::uint64_t case4_anomalies = 0;     ///< t1+ t2- (expected 0).
  std::uint64_t alerts_suppressed = 0;   ///< Killed by verify_all_alerts.
};

class InferenceEngine {
 public:
  /// `rules` supplies both the question vectors (translated internally) and
  /// the raw-matching semantics for feedback.  `aggregation` is only
  /// validated: its deadline and late policy act on the transport.  Throws
  /// on empty rules, threshold pairs that are not 0 <= tau_d1 <= tau_d2
  /// (NaN included; tau_d2 may be +inf), or an invalid aggregation policy.
  InferenceEngine(std::vector<rules::Rule> rules, EngineConfig config,
                  AggregationPolicy aggregation = {});

  /// Runs the full inference pass over one aggregated summary.  `fetch` may
  /// be null when feedback is disabled; case-3 outcomes then fall back to
  /// the loose-threshold decision (alert, trading FPR for TPR).  `parent`
  /// is the enclosing trace span (the controller's per-epoch infer span);
  /// feedback retrievals become child spans keyed by rule sid.
  /// Equivalent to decide(aggregate, match(aggregate), fetch, parent).
  [[nodiscard]] std::vector<Alert> infer(
      const AggregatedSummary& aggregate, const RawPacketFetcher& fetch,
      const telemetry::SpanContext& parent = {});

  /// Matching phase alone: Algorithm 1 per question (strict + loose from
  /// one scoring scan, see match_question), one QuestionMatch per question
  /// in question order.  Read-only on engine state; fans out over the
  /// attached pool.  Kept apart from decide() as the seam a matching
  /// process boundary would cut along.
  [[nodiscard]] std::vector<QuestionMatch> match(
      const AggregatedSummary& aggregate) const;

  /// Decision phase alone: the serial case-1/2/3 loop, feedback retrievals,
  /// variance postprocessing and provenance over precomputed matches
  /// (matches.size() must equal questions().size(); matched_rows index into
  /// `aggregate`).  Mutates stats and telemetry — run it exactly once per
  /// epoch.
  [[nodiscard]] std::vector<Alert> decide(
      const AggregatedSummary& aggregate, const std::vector<QuestionMatch>& matches,
      const RawPacketFetcher& fetch,
      const telemetry::SpanContext& parent = {});

  [[nodiscard]] const InferenceStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  [[nodiscard]] const std::vector<rules::Question>& questions() const noexcept {
    return questions_;
  }
  [[nodiscard]] const std::vector<rules::Rule>& rules() const noexcept {
    return matcher_.rules();
  }

  /// Thresholds in effect for a rule.
  [[nodiscard]] ThresholdPair thresholds_for(std::uint32_t sid) const;

  /// Adjusts the tau_c scale at runtime (e.g. per-epoch, when epochs carry
  /// varying packet volumes).
  void set_tau_c_scale(double scale) noexcept { config_.tau_c_scale = scale; }
  [[nodiscard]] double tau_c_scale() const noexcept {
    return config_.tau_c_scale;
  }

  /// Degraded-mode hook: the fraction of expected monitor summaries that
  /// actually backed the aggregate (1.0 = full epoch, the default).  Count
  /// thresholds (tau_c) scale by the fraction — a partial aggregate carries
  /// proportionally less of an attack's mass, so an unscaled threshold
  /// would silently miss — and every alert raised carries it as
  /// Alert::confidence so downstream consumers can re-raise their own bar.
  /// Values are clamped to (0, 1]; 1.0 restores the exact full-epoch
  /// behavior, and NaN (say, from a corrupt stored EpochMeta) reads as 1.0.
  /// Never throws (per-epoch hot path).
  void set_report_fraction(double fraction) noexcept;
  [[nodiscard]] double report_fraction() const noexcept {
    return report_fraction_;
  }

  /// Observability hook: the current drift caution signal (fraction of
  /// monitors whose summary fidelity is drifting, clamped to [0, 1]).  The
  /// engine stamps it on alerts and provenance but never changes a decision
  /// because of it — operators decide what a cautious epoch means.  NaN
  /// reads as 0.0.  Never throws (per-epoch hot path).
  void set_caution(double caution) noexcept;
  [[nodiscard]] double caution() const noexcept { return caution_; }

  /// Attaches the shared execution runtime: question-vector matching
  /// (Algorithm 1 per rule, strict + loose) fans out over the pool; the
  /// decision/feedback pass stays serial in rule order, so alerts are
  /// bit-identical with or without a pool.  Null detaches.
  void set_pool(std::shared_ptr<runtime::ThreadPool> pool) noexcept {
    pool_ = std::move(pool);
  }
  /// The attached pool (null when none): callers feeding the engine, such
  /// as the store replayer rebuilding an epoch's aggregate, borrow it.
  [[nodiscard]] runtime::ThreadPool* pool() const noexcept {
    return pool_.get();
  }

  /// Attaches telemetry: question/alert/feedback counters and per-sid
  /// feedback retrieval spans.  Null detaches (the default).
  void set_telemetry(telemetry::Telemetry* tel);

  /// The count threshold in effect for a question right now (tau_c scaled
  /// by tau_c_scale and the report fraction, rounded up, at least 1).  A
  /// product of 2^64 or more, or NaN from a NaN tau_c_scale, saturates at
  /// UINT64_MAX: the rule cannot fire.
  [[nodiscard]] std::uint64_t scaled_tau_c(const rules::Question& q) const;

 private:
  /// Assembles the causal chain for one raised alert from plain data the
  /// decision loop already computed (no re-matching, no clocks).
  [[nodiscard]] std::shared_ptr<const observe::AlertProvenance>
  build_provenance(const AggregatedSummary& aggregate,
                   const rules::Question& q, const ThresholdPair& th,
                   observe::ThresholdCase threshold_case,
                   const SimilarityResult& strict,
                   const SimilarityResult& loose,
                   const SimilarityResult& evidence,
                   const observe::FeedbackProvenance& fb, const Alert& alert,
                   bool verified) const;

  rules::RawMatcher matcher_;
  std::vector<rules::Question> questions_;
  EngineConfig config_;
  double report_fraction_ = 1.0;
  double caution_ = 0.0;
  InferenceStats stats_;
  std::shared_ptr<runtime::ThreadPool> pool_;
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::Counter* tel_questions_ = nullptr;
  telemetry::Counter* tel_questions_matched_ = nullptr;
  /// Per-sid alert counters, registered once at set_telemetry time as
  /// 'jaal_inference_alerts_total{sid="..."}' so the hot path never touches
  /// the registry.
  std::unordered_map<std::uint32_t, telemetry::Counter*> tel_alerts_by_sid_;
  telemetry::Counter* tel_alerts_feedback_ = nullptr;
  telemetry::Counter* tel_provenance_records_ = nullptr;
  telemetry::Counter* tel_alerts_suppressed_ = nullptr;
  telemetry::Counter* tel_feedback_requests_ = nullptr;
  telemetry::Counter* tel_feedback_fallbacks_ = nullptr;
  telemetry::Counter* tel_raw_packets_fetched_ = nullptr;
  telemetry::Counter* tel_raw_bytes_fetched_ = nullptr;
};

}  // namespace jaal::inference
