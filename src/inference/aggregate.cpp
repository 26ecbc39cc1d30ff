#include "inference/aggregate.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "summarize/kmeans.hpp"

namespace jaal::inference {

void AggregationPolicy::validate() const {
  if (deadline_s < 0.0) {
    throw std::invalid_argument("AggregationPolicy: deadline_s must be >= 0");
  }
}

AggregatedSummary reduce_aggregate(const AggregatedSummary& aggregate,
                                   std::size_t k2, std::uint64_t seed) {
  if (aggregate.empty()) {
    throw std::invalid_argument("reduce_aggregate: empty aggregate");
  }
  if (k2 == 0) {
    throw std::invalid_argument("reduce_aggregate: k2 must be positive");
  }
  std::mt19937_64 rng(seed);
  const auto km = summarize::weighted_kmeans(aggregate.centroids,
                                             aggregate.counts, k2, rng);

  AggregatedSummary out;
  // Drop empty clusters so counts stay meaningful.
  std::size_t live = 0;
  for (std::uint64_t c : km.counts) live += c > 0 ? 1 : 0;
  out.centroids = linalg::Matrix(live, aggregate.centroids.cols());
  out.counts.reserve(live);
  std::size_t row = 0;
  for (std::size_t c = 0; c < km.centroids.rows(); ++c) {
    if (km.counts[c] == 0) continue;
    const auto src = km.centroids.row(c);
    std::copy(src.begin(), src.end(), out.centroids.row(row).begin());
    out.counts.push_back(km.counts[c]);
    out.origin.push_back(kNoOrigin);
    out.local_index.push_back(row);
    ++row;
  }
  return out;
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
  if (const auto* c = std::get_if<summarize::CombinedSummary>(&summary)) {
    c->check_invariants();
    const auto src = c->centroids.data();
    std::copy(src.begin(), src.end(),
              append_rows(c->monitor, c->counts, c->centroids.cols()));
    return;
  }
  const auto& s = std::get<summarize::SplitSummary>(summary);
  s.check_invariants();
  const std::size_t cols = s.vt.cols();
  double* const rows = append_rows(s.monitor, s.counts, cols);
  // SplitSummary::reconstruct's arithmetic, row by row: fold sigma into
  // U~_r, then the i-k-j product with its zero skip onto zeroed rows, so
  // every row has the bits of reconstruct().centroids.
  for (std::size_t i = 0; i < s.counts.size(); ++i) {
    double* const out = rows + i * cols;
    for (std::size_t c = 0; c < s.sigma.size(); ++c) {
      const double a = s.u_centroids(i, c) * s.sigma[c];
      if (a == 0.0) continue;
      const double* const v = s.vt.data().data() + c * cols;
      for (std::size_t j = 0; j < cols; ++j) out[j] += a * v[j];
    }
  }
}

double* Aggregator::append_rows(summarize::MonitorId monitor,
                                const std::vector<std::uint64_t>& counts,
                                std::size_t cols) {
  if (added_ > 0 && next_.centroids.cols() != cols) {
    throw std::invalid_argument("Aggregator: field-width mismatch");
  }
  const std::size_t first = next_.rows();
  next_.centroids.resize(first + counts.size(), cols);
  next_.counts.insert(next_.counts.end(), counts.begin(), counts.end());
  next_.origin.insert(next_.origin.end(), counts.size(), monitor);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    next_.local_index.push_back(i);
  }
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
