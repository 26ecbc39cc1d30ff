// The two-step summarization pipeline run by every monitor (§4).
//
// batch -> normalize -> fields-mode SVD (rank r) -> packets-mode k-means++
// (k centroids) -> S1 or S2, whichever is smaller for the configured
// (r, k, p): the paper sends S2 iff r(k+p+1)+k < k(p+1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>

#include "observe/drift.hpp"
#include "runtime/thread_pool.hpp"
#include "summarize/kmeans.hpp"
#include "summarize/normalize.hpp"
#include "summarize/summary.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::summarize {

enum class SummaryFormat : std::uint8_t {
  kAuto,      ///< Pick the cheaper of S1/S2 (the paper's rule).
  kCombined,  ///< Force S1.
  kSplit,     ///< Force S2.
};

struct SummarizerConfig {
  std::size_t batch_size = 1000;   ///< n: packets per batch.
  std::size_t min_batch = 600;     ///< n_min: below this, skip summarizing.
  std::size_t rank = 12;           ///< r: retained singular values.
  std::size_t centroids = 200;     ///< k: representative packets.
  SummaryFormat format = SummaryFormat::kAuto;
  KMeansOptions kmeans;
  std::uint64_t seed = 42;
  /// Emit per-batch FidelityStats (SVD energy retained, k-means inertia,
  /// reconstruction error) for the drift monitors.  Costs one O(np) pass
  /// over the normalized batch; the rest falls out of SVD/k-means.
  bool record_fidelity = true;
};

/// Summarization output: the wire summary plus the packet->centroid map the
/// monitor keeps locally for one epoch so it can answer feedback requests
/// for the raw packets behind a centroid (§7).
struct SummarizeOutput {
  MonitorSummary summary;
  std::vector<std::size_t> assignment;  ///< packets[i] -> centroid index.
  /// Summary fidelity of this batch (when record_fidelity is on).  The
  /// epoch field is 0 here; the controller stamps it before feeding the
  /// HealthTracker.
  std::optional<observe::FidelityStats> fidelity;
};

class Summarizer {
 public:
  /// Throws std::invalid_argument on degenerate configs (zero rank/k,
  /// rank > p, min_batch == 0, min_batch > batch_size).
  explicit Summarizer(const SummarizerConfig& cfg, MonitorId monitor = 0);

  /// Summarizes one batch.  Throws std::invalid_argument if fewer than
  /// min_batch packets are supplied (callers gate on ready()).  `parent` is
  /// the enclosing trace span (the monitor's per-epoch summarize span);
  /// svd/kmeans child spans (the stages' one clock) and their sweep and
  /// iteration histograms are recorded when telemetry is attached.
  [[nodiscard]] SummarizeOutput summarize(
      std::span<const packet::PacketRecord> batch,
      const telemetry::SpanContext& parent = {});

  /// Re-derives the RNG stream for the given epoch from (seed, epoch), so
  /// summarization is a pure function of (config, epoch, batch) rather than
  /// of the whole RNG history — a deployment restarted at epoch e produces
  /// the same summaries as one that ran from epoch 0 (the same purity rule
  /// the fault scenarios follow).  The controller calls this before every
  /// flush; direct users who never call it keep the single continuous
  /// stream seeded at construction.  The summarizer keeps no other state
  /// across batches, so restart byte-identity holds for every config.
  void begin_epoch(std::uint64_t epoch) noexcept;

  [[nodiscard]] const SummarizerConfig& config() const noexcept { return cfg_; }

  /// Attaches the shared execution runtime: the k-means assignment step of
  /// every subsequent summarize() fans out over the pool.  Output is
  /// bit-identical with or without a pool (see KMeansOptions::pool); null
  /// detaches.
  void set_pool(std::shared_ptr<runtime::ThreadPool> pool) noexcept {
    pool_ = std::move(pool);
  }

  /// Attaches telemetry: SVD sweep and k-means iteration counts, and the
  /// svd/kmeans trace spans that time them.  Null detaches (the default;
  /// costs one pointer check per batch).
  void set_telemetry(telemetry::Telemetry* tel);

  /// Elements S1 would need for this config: k(p+1).
  [[nodiscard]] std::size_t combined_cost() const noexcept;
  /// Elements S2 would need for this config: r(k+p+1)+k.
  [[nodiscard]] std::size_t split_cost() const noexcept;

 private:
  SummarizerConfig cfg_;
  MonitorId monitor_;
  std::mt19937_64 rng_;
  std::shared_ptr<runtime::ThreadPool> pool_;
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::Histogram* svd_sweeps_ = nullptr;
  telemetry::Histogram* kmeans_iterations_ = nullptr;
  telemetry::Counter* batches_ = nullptr;
  telemetry::Counter* split_format_ = nullptr;
  telemetry::Counter* combined_format_ = nullptr;
};

}  // namespace jaal::summarize
