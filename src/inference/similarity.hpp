// Similarity estimation — Algorithm 1 of the paper.
//
// For a question vector q, sum the membership counts of all aggregated
// centroids within distance tau_d of q; alert when the sum reaches tau_c and
// return the matched set Q for the postprocessor / feedback loop.
//
// Scoring: Eq. 5 skips wildcard fields, so each row is scored over the
// question's pinned fields only — summed in ascending field order and
// divided by their number, which gives exactly the bits of
// Question::distance.  Each row is scored once however many thresholds it
// is tested against.  Rows narrower than the field space (a corrupt or
// foreign stored summary reaching replay) match nothing.
#pragma once

#include <vector>

#include "inference/aggregate.hpp"
#include "rules/question.hpp"

namespace jaal::inference {

struct SimilarityResult {
  bool alert = false;                    ///< sum >= tau_c.
  std::uint64_t matched_count = 0;       ///< Sum of counts over matched rows.
  std::vector<std::size_t> matched_rows; ///< Q: indices into the aggregate.
  /// Eq. 5 distance of each matched row to q, parallel to matched_rows.
  /// Provenance uses these to record per-centroid threshold margins.
  std::vector<double> matched_distances;
};

/// One question's Algorithm 1 result at both thresholds — the unit of work
/// the matching phase produces and the decision phase consumes.
struct QuestionMatch {
  SimilarityResult strict;  ///< tau_d1 (low FPR).
  SimilarityResult loose;   ///< tau_d2 (high TPR).
};

/// Runs Algorithm 1 with distance threshold `tau_d`.  `tau_c` defaults to
/// the question's own threshold; pass an explicit value to override (the
/// ROC sweeps scan threshold combinations).
[[nodiscard]] SimilarityResult estimate_similarity(
    const rules::Question& question, const AggregatedSummary& aggregate,
    double tau_d, std::uint64_t tau_c_override = 0);

/// Runs Algorithm 1 at `tau_d1` (strict) and `tau_d2` (loose) in one scan:
/// each row's distance is computed once and tested against both thresholds
/// independently, so the two results equal two estimate_similarity calls.
/// Both alert flags compare against `tau_c`.
[[nodiscard]] QuestionMatch match_question(const rules::Question& question,
                                           const AggregatedSummary& aggregate,
                                           double tau_d1, double tau_d2,
                                           std::uint64_t tau_c);

}  // namespace jaal::inference
