#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "telemetry/json.hpp"

namespace jaal::telemetry {
namespace {

void append_event(std::string& out, bool& first, const SpanRecord& s,
                  double ts_us, double dur_us, std::uint64_t tid) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"ph\":\"X\",\"cat\":\"jaal\",\"name\":\"" + json_escape(s.name) +
         "\",\"ts\":" + fmt_double(ts_us) + ",\"dur\":" + fmt_double(dur_us);
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64
                                  ",\"args\":{\"key\":%" PRIu64,
                s.trace_id, tid, s.key);
  out += buf;
  for (const auto& [name, value] : s.attrs) {
    out += ",\"" + json_escape(name) + "\":" + fmt_double(value);
  }
  out += "}}";
}

/// Wall mode: greedy lane packing.  Spans sorted by (start asc, end desc)
/// visit parents before their children; a span joins the first lane where
/// it either starts after everything open or nests inside the top open
/// interval, so each lane holds properly nested intervals.
void export_wall(std::string& out, bool& first,
                 std::vector<const SpanRecord*> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->trace_id != b->trace_id) return a->trace_id < b->trace_id;
              const double ea = a->start_ms + a->duration_ms;
              const double eb = b->start_ms + b->duration_ms;
              if (a->start_ms != b->start_ms) return a->start_ms < b->start_ms;
              if (ea != eb) return ea > eb;
              if (a->name != b->name) return a->name < b->name;
              if (a->key != b->key) return a->key < b->key;
              return a->span_id < b->span_id;
            });
  constexpr double kEps = 1e-6;
  std::uint64_t cur_trace = 0;
  bool have_trace = false;
  std::vector<std::vector<double>> lanes;  // Per lane: open interval ends.
  for (const SpanRecord* s : recs) {
    if (!have_trace || s->trace_id != cur_trace) {
      lanes.clear();
      cur_trace = s->trace_id;
      have_trace = true;
    }
    const double start = s->start_ms;
    const double end = s->start_ms + s->duration_ms;
    std::size_t lane = lanes.size();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      auto& open = lanes[i];
      while (!open.empty() && open.back() <= start + kEps) open.pop_back();
      if (open.empty() || end <= open.back() + kEps) {
        lane = i;
        break;
      }
    }
    if (lane == lanes.size()) lanes.emplace_back();
    lanes[lane].push_back(end);
    append_event(out, first, *s, start * 1000.0, s->duration_ms * 1000.0,
                 lane + 1);
  }
}

/// Deterministic mode: layout derived only from tree shape.  Width of a
/// span = 1 + sum of child widths (1 unit = 1 us); children are laid out
/// sequentially after the parent's own leading unit, in the deterministic
/// (name, key, span_id) order.
void export_deterministic(std::string& out, bool& first,
                          std::vector<const SpanRecord*> recs) {
  recs.erase(std::remove_if(recs.begin(), recs.end(),
                            [](const SpanRecord* s) {
                              return is_tier_shape_span(s->name);
                            }),
             recs.end());
  std::sort(recs.begin(), recs.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->trace_id != b->trace_id) return a->trace_id < b->trace_id;
              if (a->name != b->name) return a->name < b->name;
              if (a->key != b->key) return a->key < b->key;
              return a->span_id < b->span_id;
            });
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    by_id.try_emplace(recs[i]->span_id, i);  // First (sorted) record wins.
  }
  std::vector<std::vector<std::size_t>> children(recs.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (by_id[recs[i]->span_id] != i) continue;  // Duplicate: dropped.
    if (recs[i]->parent_id == 0) {
      roots.push_back(i);
      continue;
    }
    auto it = by_id.find(recs[i]->parent_id);
    if (it == by_id.end() || it->second == i) continue;  // Orphan: dropped.
    children[it->second].push_back(i);
  }
  // Subtree widths, bottom-up.
  std::vector<double> width(recs.size(), 0.0);
  auto measure = [&](std::size_t root) {
    std::vector<std::pair<std::size_t, bool>> stack{{root, false}};
    while (!stack.empty()) {
      auto [i, done] = stack.back();
      stack.pop_back();
      if (!done) {
        stack.emplace_back(i, true);
        for (std::size_t c : children[i]) stack.emplace_back(c, false);
        continue;
      }
      width[i] = 1.0;
      for (std::size_t c : children[i]) width[i] += width[c];
    }
  };
  for (std::size_t r : roots) measure(r);
  // Emit DFS, children after the parent's leading unit.
  for (std::size_t r : roots) {
    const double base = recs[r]->sim_time >= 0.0
                            ? recs[r]->sim_time * 1e6
                            : static_cast<double>(recs[r]->trace_id) * 1e6;
    std::vector<std::pair<std::size_t, double>> stack{{r, base}};
    while (!stack.empty()) {
      auto [i, ts] = stack.back();
      stack.pop_back();
      append_event(out, first, *recs[i], ts, width[i], 1);
      double child_ts = ts + 1.0;
      // Push in reverse so children emit in deterministic order.
      std::vector<std::pair<std::size_t, double>> kids;
      for (std::size_t c : children[i]) {
        kids.emplace_back(c, child_ts);
        child_ts += width[c];
      }
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
}

}  // namespace

std::string export_chrome_trace(const std::vector<SpanRecord>& spans,
                                const ChromeTraceOptions& options) {
  std::vector<const SpanRecord*> recs;
  recs.reserve(spans.size());
  for (const SpanRecord& s : spans) recs.push_back(&s);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  if (options.mode == DurationMode::kDeterministic) {
    export_deterministic(out, first, std::move(recs));
  } else {
    export_wall(out, first, std::move(recs));
  }
  out += "\n]}\n";
  return out;
}

}  // namespace jaal::telemetry
