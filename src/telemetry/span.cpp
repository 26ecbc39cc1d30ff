#include "telemetry/span.hpp"

#include <iterator>

namespace jaal::telemetry {

std::uint64_t derive_span_id(std::uint64_t parent_span_id,
                             std::string_view name,
                             std::uint64_t key) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(parent_span_id);
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  mix(key);
  // Reserve 0 for "no parent".
  return h == 0 ? 1 : h;
}

Span::Span(Tracer* tracer, std::string name, const SpanContext& parent,
           std::uint64_t key)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  rec_.trace_id = parent.span_id == 0 ? key : parent.trace_id;
  rec_.parent_id = parent.span_id;
  rec_.span_id = derive_span_id(parent.span_id, name, key);
  rec_.name = std::move(name);
  rec_.key = key;
  rec_.sim_time = parent.sim_time;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = other.tracer_;
    rec_ = std::move(other.rec_);
    duration_overridden_ = other.duration_overridden_;
    start_ = other.start_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::attr(std::string name, double value) {
  if (tracer_ == nullptr) return;
  rec_.attrs.emplace_back(std::move(name), value);
}

void Span::finish() {
  if (tracer_ == nullptr) return;
  if (!duration_overridden_) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    rec_.duration_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
  }
  tracer_->record(std::move(rec_));
  tracer_ = nullptr;
}

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

void Tracer::record(SpanRecord&& rec) {
  rec.start_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0_)
                     .count() -
                 rec.duration_ms;
  if (rec.start_ms < 0.0) rec.start_ms = 0.0;
  std::lock_guard lock(mu_);
  pending_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::drain() {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> fresh(std::make_move_iterator(pending_.begin()),
                                std::make_move_iterator(pending_.end()));
  pending_.clear();  // keeps its capacity for the next epoch
  drained_.insert(drained_.end(), fresh.begin(), fresh.end());
  return fresh;
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(drained_.size() + pending_.size());
  out.insert(out.end(), drained_.begin(), drained_.end());
  out.insert(out.end(), pending_.begin(), pending_.end());
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return drained_.size() + pending_.size();
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  pending_.clear();
  drained_.clear();
}

}  // namespace jaal::telemetry
