#include "telemetry/metrics.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace jaal::telemetry {

double Histogram::upper_bound(std::size_t i) noexcept {
  if (i + 1 >= kBucketCount) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) + kMinExponent);
}

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // non-positive and NaN land in the first bucket
  // Smallest i with 2^(i + kMinExponent) >= v.  frexp gives v = m * 2^e with
  // m in [0.5, 1): the bound 2^(e-1) equals v exactly when m == 0.5, so the
  // value belongs in that bucket (upper bounds are inclusive).
  int e = 0;
  const double m = std::frexp(v, &e);
  int i = (m == 0.5 ? e - 1 : e) - kMinExponent;
  if (i < 0) i = 0;
  if (i >= static_cast<int>(kBucketCount)) i = kBucketCount - 1;
  return static_cast<std::size_t>(i);
}

void Histogram::observe(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v,
                                     std::memory_order_relaxed)) {
  }
  double seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.buckets.reserve(kBucketCount);
  for (const auto& b : buckets_) {
    snap.buckets.push_back(b.load(std::memory_order_relaxed));
  }
  return snap;
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& prev) const {
  std::unordered_map<std::string_view, const Entry*> base;
  base.reserve(prev.entries.size());
  for (const Entry& e : prev.entries) base.emplace(e.name, &e);

  MetricsSnapshot out;
  out.entries.reserve(entries.size());
  for (const Entry& cur : entries) {
    Entry d = cur;
    const auto it = base.find(cur.name);
    const Entry* old =
        it != base.end() && it->second->kind == cur.kind ? it->second : nullptr;
    if (old != nullptr) {
      switch (cur.kind) {
        case MetricKind::kCounter:
          // Monotonic-counter assumption: current < previous means a reset,
          // so the whole current value is new growth.
          d.counter =
              cur.counter >= old->counter ? cur.counter - old->counter
                                          : cur.counter;
          break;
        case MetricKind::kGauge:
          break;  // point-in-time: the current value IS the observation
        case MetricKind::kHistogram: {
          const HistogramSnapshot& c = cur.histogram;
          const HistogramSnapshot& p = old->histogram;
          const bool reset = c.count < p.count;
          d.histogram.count = reset ? c.count : c.count - p.count;
          d.histogram.sum = reset ? c.sum : c.sum - p.sum;
          d.histogram.max = c.max;  // lifetime high-water, not a rate
          for (std::size_t b = 0; b < d.histogram.buckets.size(); ++b) {
            const std::uint64_t pb =
                b < p.buckets.size() && !reset ? p.buckets[b] : 0;
            d.histogram.buckets[b] =
                c.buckets[b] >= pb ? c.buckets[b] - pb : c.buckets[b];
          }
          break;
        }
      }
    }
    out.entries.push_back(std::move(d));
  }
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        MetricKind kind) {
  std::lock_guard lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name) {
      if (e->kind != kind) {
        throw std::invalid_argument(
            "MetricsRegistry: metric '" + std::string(name) +
            "' already registered with a different kind");
      }
      return *e;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter.reset(new Counter());
      break;
    case MetricKind::kGauge:
      entry->gauge.reset(new Gauge());
      break;
    case MetricKind::kHistogram:
      entry->histogram.reset(new Histogram());
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *find_or_create(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *find_or_create(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *find_or_create(name, MetricKind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  snap.entries.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricsSnapshot::Entry out;
    out.name = e->name;
    out.kind = e->kind;
    switch (e->kind) {
      case MetricKind::kCounter:
        out.counter = e->counter->value();
        break;
      case MetricKind::kGauge:
        out.gauge = e->gauge->value();
        break;
      case MetricKind::kHistogram:
        out.histogram = e->histogram->snapshot();
        break;
    }
    snap.entries.push_back(std::move(out));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace jaal::telemetry
