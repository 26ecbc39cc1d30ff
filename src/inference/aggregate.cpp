#include "inference/aggregate.hpp"

#include <stdexcept>
#include <utility>

#include "runtime/thread_pool.hpp"

namespace jaal::inference {
namespace {

/// The one reconstruction loop: rows x cols centroids = U~_r (rows x rank)
/// * diag(sigma) * V_r^T (rank x cols) with SplitSummary::reconstruct's
/// arithmetic — sigma folded into U~_r, then the i-k-j product with its
/// zero skip onto zeroed rows — so every row has the bits of
/// deserialize(bytes)'s reconstruct().centroids.
void reconstruct_rows(const double* u, const double* sigma, const double* vt,
                      std::size_t rows, std::size_t rank, std::size_t cols,
                      double* out) noexcept {
  for (std::size_t i = 0; i < rows; ++i, out += cols) {
    for (std::size_t c = 0; c < rank; ++c) {
      const double a = u[i * rank + c] * sigma[c];
      if (a == 0.0) continue;
      const double* const v = vt + c * cols;
      for (std::size_t j = 0; j < cols; ++j) out[j] += a * v[j];
    }
  }
}

}  // namespace

void AggregationPolicy::validate() const {
  if (!(deadline_s >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("AggregationPolicy: deadline_s must be >= 0");
  }
}

std::uint64_t AggregatedSummary::total_packets() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return total;
}

void AggregatedSummary::clear() noexcept {
  centroids.resize(0, 0);
  counts.clear();
  origin.clear();
  local_index.clear();
}

void Aggregator::add(const summarize::MonitorSummary& summary) {
  summarize::serialize(summary, wire_);
  const summarize::SummaryView view = summarize::parse_summary(wire_);
  add(std::span(&view, 1));
}

void Aggregator::add(std::span<const summarize::SummaryView> batch,
                     runtime::ThreadPool* pool) {
  if (batch.empty()) return;
  const std::size_t cols = added_ > 0 ? next_.centroids.cols() : batch[0].cols;
  for (const summarize::SummaryView& v : batch) {
    if (v.cols != cols) {
      throw std::invalid_argument("Aggregator: field-width mismatch");
    }
  }
  // Serial: every summary's rows, counts and bookkeeping, and its slice of
  // the factor decode space.
  slots_.clear();
  std::size_t factors = 0;
  for (const summarize::SummaryView& v : batch) {
    slots_.emplace_back(next_.rows(), factors);
    (void)append_rows(v.monitor, v.rows, cols);
    for (std::size_t i = 0; i < v.rows; ++i) {
      next_.counts.push_back(v.count(i));
    }
    if (v.split) factors += v.rank * (v.rows + 1 + cols);
  }
  factors_.resize(factors);
  // Parallel: each summary fills only its own rows and factor slice.
  double* const base = next_.centroids.data().data();
  const auto fill = [&](std::size_t b) {
    const summarize::SummaryView& v = batch[b];
    double* const rows = base + slots_[b].first * cols;
    if (!v.split) {
      v.centroids.decode(rows);
      return;
    }
    double* const u = factors_.data() + slots_[b].second;
    double* const sigma = u + v.rows * v.rank;
    double* const vt = sigma + v.rank;
    v.u_centroids.decode(u);
    v.sigma.decode(sigma);
    v.vt.decode(vt);
    reconstruct_rows(u, sigma, vt, v.rows, v.rank, cols, rows);
  };
  if (pool != nullptr && batch.size() > 1) {
    pool->parallel_for(0, batch.size(), fill, 1);
  } else {
    for (std::size_t b = 0; b < batch.size(); ++b) fill(b);
  }
}

double* Aggregator::append_rows(summarize::MonitorId monitor,
                                std::size_t rows, std::size_t cols) {
  const std::size_t first = next_.rows();
  next_.centroids.resize(first + rows, cols);
  next_.origin.insert(next_.origin.end(), rows, monitor);
  for (std::size_t i = 0; i < rows; ++i) next_.local_index.push_back(i);
  ++added_;
  return next_.centroids.data().data() + first * cols;
}

void Aggregator::take(AggregatedSummary& out) {
  std::swap(out, next_);
  clear();
}

AggregatedSummary Aggregator::take() {
  AggregatedSummary out;
  take(out);
  const std::size_t rows = out.rows();
  next_.centroids.reserve(out.centroids.data().size());
  next_.counts.reserve(rows);
  next_.origin.reserve(rows);
  next_.local_index.reserve(rows);
  return out;
}

void Aggregator::clear() noexcept {
  next_.clear();
  added_ = 0;
}

}  // namespace jaal::inference
