#include "inference/similarity.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace jaal::inference {
namespace {

/// The one scoring loop behind both entry points: every row's Eq. 5
/// distance once, tested against each of the N thresholds on its own.
template <std::size_t N>
std::array<SimilarityResult, N> scan(const rules::Question& question,
                                     const AggregatedSummary& aggregate,
                                     const std::array<double, N>& tau_d,
                                     std::uint64_t tau_c) {
  std::array<SimilarityResult, N> res;
  const std::size_t cols = aggregate.centroids.cols();
  if (cols >= packet::kFieldCount) {
    if (aggregate.centroids.rows() < aggregate.rows()) {
      throw std::out_of_range(
          "estimate_similarity: fewer centroid rows than counts");
    }
    // The pinned fields in ascending order: Question::distance's sum visits
    // them in this order and skips everything else.
    std::array<std::size_t, packet::kFieldCount> field{};
    std::array<double, packet::kFieldCount> value{};
    std::size_t pinned = 0;
    for (std::size_t j = 0; j < question.q.size(); ++j) {
      if (question.q[j] == rules::kWildcard) continue;
      field[pinned] = j;
      value[pinned] = question.q[j];
      ++pinned;
    }
    const double n = static_cast<double>(pinned);
    const double* x = aggregate.centroids.data().data();
    for (std::size_t i = 0; i < aggregate.rows(); ++i, x += cols) {
      double sum = 0.0;
      for (std::size_t m = 0; m < pinned; ++m) {
        sum += std::abs(value[m] - x[field[m]]);
      }
      const double d =
          pinned == 0 ? std::numeric_limits<double>::infinity() : sum / n;
      for (std::size_t t = 0; t < N; ++t) {
        if (d <= tau_d[t]) {
          res[t].matched_count += aggregate.counts[i];
          res[t].matched_rows.push_back(i);
          res[t].matched_distances.push_back(d);
        }
      }
    }
  }
  for (SimilarityResult& r : res) r.alert = r.matched_count >= tau_c;
  return res;
}

}  // namespace

SimilarityResult estimate_similarity(const rules::Question& question,
                                     const AggregatedSummary& aggregate,
                                     double tau_d,
                                     std::uint64_t tau_c_override) {
  const std::uint64_t tau_c =
      tau_c_override > 0 ? tau_c_override : question.tau_c;
  auto [res] = scan<1>(question, aggregate, {tau_d}, tau_c);
  return std::move(res);
}

QuestionMatch match_question(const rules::Question& question,
                             const AggregatedSummary& aggregate, double tau_d1,
                             double tau_d2, std::uint64_t tau_c) {
  auto [strict, loose] = scan<2>(question, aggregate, {tau_d1, tau_d2}, tau_c);
  return {std::move(strict), std::move(loose)};
}

}  // namespace jaal::inference
