#include "summarize/summarizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/svd.hpp"

namespace jaal::summarize {
namespace {

/// Same finalizer the fault scenarios use to derive independent streams
/// from structured keys.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Summarizer::Summarizer(const SummarizerConfig& cfg, MonitorId monitor)
    : cfg_(cfg), monitor_(monitor), rng_(cfg.seed) {
  if (cfg_.rank == 0 || cfg_.rank > packet::kFieldCount) {
    throw std::invalid_argument("Summarizer: rank must be in [1, p]");
  }
  if (cfg_.centroids == 0) {
    throw std::invalid_argument("Summarizer: k must be positive");
  }
  // min_batch == 0 would let an idle monitor summarize an empty buffer,
  // which the SVD rejects; the per-epoch path must not throw.
  if (cfg_.min_batch == 0 || cfg_.min_batch > cfg_.batch_size) {
    throw std::invalid_argument("Summarizer: bad batch sizing");
  }
}

void Summarizer::set_telemetry(telemetry::Telemetry* tel) {
  tel_ = tel;
  if (tel_ == nullptr) {
    svd_sweeps_ = kmeans_iterations_ = nullptr;
    batches_ = split_format_ = combined_format_ = nullptr;
    return;
  }
  svd_sweeps_ = &tel_->metrics.histogram("jaal_summarize_svd_sweeps");
  kmeans_iterations_ =
      &tel_->metrics.histogram("jaal_summarize_kmeans_iterations");
  batches_ = &tel_->metrics.counter("jaal_summarize_batches_total");
  split_format_ =
      &tel_->metrics.counter("jaal_summarize_split_format_total");
  combined_format_ =
      &tel_->metrics.counter("jaal_summarize_combined_format_total");
}

void Summarizer::begin_epoch(std::uint64_t epoch) noexcept {
  rng_.seed(splitmix64(cfg_.seed ^ splitmix64(epoch)));
}

std::size_t Summarizer::combined_cost() const noexcept {
  return cfg_.centroids * (packet::kFieldCount + 1);
}

std::size_t Summarizer::split_cost() const noexcept {
  return cfg_.rank * (cfg_.centroids + packet::kFieldCount + 1) +
         cfg_.centroids;
}

SummarizeOutput Summarizer::summarize(
    std::span<const packet::PacketRecord> batch,
    const telemetry::SpanContext& parent) {
  if (batch.size() < cfg_.min_batch) {
    throw std::invalid_argument(
        "Summarizer: batch below n_min; SVD/k-means need more data");
  }
  if (tel_ != nullptr) batches_->add(1);

  // Step 0 (§4.1): normalize into [0,1]^p.
  const linalg::Matrix x_bar = to_normalized_matrix(batch);

  // Step 1 (§4.2): fields-mode reduction.  Rank is capped by the batch size
  // for tiny batches.
  const std::size_t r = std::min(cfg_.rank, batch.size());
  linalg::SvdResult svd;
  {
    telemetry::Span span = tel_ != nullptr
                               ? tel_->tracer.span("svd", parent, monitor_)
                               : telemetry::Span{};
    svd = linalg::truncated_svd(x_bar, r);
    if (tel_ != nullptr) {
      svd_sweeps_->observe(svd.sweeps);
      span.attr("rank", static_cast<double>(r));
      span.attr("sweeps", svd.sweeps);
    }
  }

  const bool use_split =
      cfg_.format == SummaryFormat::kSplit ||
      (cfg_.format == SummaryFormat::kAuto && split_cost() < combined_cost());

  KMeansOptions km_opts = cfg_.kmeans;
  km_opts.pool = pool_.get();

  // Step 2 (§4.3): packets-mode vector quantization, instrumented the same
  // way for both summary formats.
  const auto run_kmeans = [&](const linalg::Matrix& points) {
    telemetry::Span span = tel_ != nullptr
                               ? tel_->tracer.span("kmeans", parent, monitor_)
                               : telemetry::Span{};
    KMeansResult km = kmeans(points, cfg_.centroids, rng_, km_opts);
    if (tel_ != nullptr) {
      kmeans_iterations_->observe(static_cast<double>(km.iterations));
      span.attr("k", static_cast<double>(cfg_.centroids));
      span.attr("iterations", static_cast<double>(km.iterations));
    }
    return km;
  };

  SummarizeOutput out;
  double inertia = 0.0;
  if (use_split) {
    // Split: cluster rows of U_r; ship factors separately.
    const KMeansResult km = run_kmeans(svd.u);
    if (tel_ != nullptr) split_format_->add(1);
    inertia = km.inertia;
    SplitSummary s;
    s.monitor = monitor_;
    s.u_centroids = km.centroids;
    s.sigma = svd.sigma;
    s.vt = svd.v.transposed();
    s.counts = km.counts;
    out.summary = std::move(s);
    out.assignment = km.assignment;
  } else {
    // Combined: cluster rows of the rank-reduced X_p.
    const linalg::Matrix x_p = svd.reconstruct();
    const KMeansResult km = run_kmeans(x_p);
    if (tel_ != nullptr) combined_format_->add(1);
    inertia = km.inertia;
    CombinedSummary s;
    s.monitor = monitor_;
    s.centroids = km.centroids;
    s.counts = km.counts;
    out.summary = std::move(s);
    out.assignment = km.assignment;
  }

  if (cfg_.record_fidelity) {
    // Fidelity of this batch's summary, for the drift monitors: how much
    // of the batch the rank-r truncation keeps, how tight the clustering
    // is, and the combined per-packet summary error.
    const double n = static_cast<double>(batch.size());
    double total_energy = 0.0;
    for (double v : x_bar.data()) total_energy += v * v;
    double retained_energy = 0.0;
    for (double s : svd.sigma) retained_energy += s * s;
    observe::FidelityStats fs;
    fs.monitor = monitor_;
    fs.batch_packets = batch.size();
    fs.svd_energy_retained =
        total_energy > 0.0
            ? std::min(1.0, retained_energy / total_energy)
            : 1.0;
    fs.kmeans_inertia = inertia / n;
    const double residual = std::max(0.0, total_energy - retained_energy);
    fs.reconstruction_error = (residual + inertia) / n;
    out.fidelity = fs;
  }
  return out;
}

}  // namespace jaal::summarize
