#include "core/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace jaal::core {

void ConfusionCounts::add(bool predicted, bool actual) noexcept {
  if (actual) {
    predicted ? ++tp : ++fn;
  } else {
    predicted ? ++fp : ++tn;
  }
}

double ConfusionCounts::tpr() const noexcept {
  const std::uint64_t pos = tp + fn;
  return pos == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(pos);
}

double ConfusionCounts::fpr() const noexcept {
  const std::uint64_t neg = fp + tn;
  return neg == 0 ? 0.0 : static_cast<double>(fp) / static_cast<double>(neg);
}

double ConfusionCounts::accuracy() const noexcept {
  const std::uint64_t t = total();
  return t == 0 ? 0.0 : static_cast<double>(tp + tn) / static_cast<double>(t);
}

ConfusionCounts& ConfusionCounts::operator+=(const ConfusionCounts& rhs) noexcept {
  tp += rhs.tp;
  fp += rhs.fp;
  tn += rhs.tn;
  fn += rhs.fn;
  return *this;
}

RocCurve RocCurve::envelope() const {
  std::vector<RocPoint> pts = points;
  std::sort(pts.begin(), pts.end(), [](const RocPoint& a, const RocPoint& b) {
    if (a.fpr != b.fpr) return a.fpr < b.fpr;
    return a.tpr > b.tpr;
  });
  RocCurve env;
  env.label = label;
  double best_tpr = -1.0;
  for (const RocPoint& p : pts) {
    if (p.tpr > best_tpr) {
      env.points.push_back(p);
      best_tpr = p.tpr;
    }
  }
  return env;
}

double RocCurve::auc() const {
  const RocCurve env = envelope();
  double area = 0.0;
  double last_fpr = 0.0, last_tpr = 0.0;
  for (const RocPoint& p : env.points) {
    area += (p.fpr - last_fpr) * (p.tpr + last_tpr) / 2.0;
    last_fpr = p.fpr;
    last_tpr = p.tpr;
  }
  area += (1.0 - last_fpr) * (1.0 + last_tpr) / 2.0;
  return area;
}

double RocCurve::tpr_at_fpr(double limit) const {
  double best = 0.0;
  for (const RocPoint& p : points) {
    if (p.fpr <= limit) best = std::max(best, p.tpr);
  }
  return best;
}

double CommStats::overhead_ratio() const noexcept {
  if (raw_header_bytes == 0) return 0.0;
  return static_cast<double>(summary_bytes + feedback_bytes) /
         static_cast<double>(raw_header_bytes);
}

double CommStats::savings() const noexcept { return 1.0 - overhead_ratio(); }

CommStats& CommStats::operator+=(const CommStats& rhs) noexcept {
  raw_header_bytes += rhs.raw_header_bytes;
  summary_bytes += rhs.summary_bytes;
  feedback_bytes += rhs.feedback_bytes;
  return *this;
}

std::string describe(const runtime::RuntimeStatsSnapshot& snap) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "runtime: threads=%zu tasks=%llu/%llu parallel_for=%llu "
                "queue_high_water=%zu\n",
                snap.threads,
                static_cast<unsigned long long>(snap.tasks_completed),
                static_cast<unsigned long long>(snap.tasks_submitted),
                static_cast<unsigned long long>(snap.parallel_for_calls),
                snap.queue_depth_high_water);
  return line;
}

}  // namespace jaal::core
