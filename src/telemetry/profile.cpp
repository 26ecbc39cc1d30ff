#include "telemetry/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "telemetry/json.hpp"

namespace jaal::telemetry {
namespace {

/// Deterministic record order, independent of recording interleaving.
bool record_less(const SpanRecord& a, const SpanRecord& b) {
  if (a.name != b.name) return a.name < b.name;
  if (a.key != b.key) return a.key < b.key;
  return a.span_id < b.span_id;
}

constexpr std::string_view kStageNames[] = {
    "observe",         // 0  (kSpan stage ids, persisted by flight recorder)
    "summarize",       // 1
    "ship",            // 2
    "aggregate",       // 3
    "infer",           // 4
    "postprocess",     // 5
    "svd",             // 6
    "kmeans",          // 7
    "feedback",        // 8
    "shard_aggregate",    // 9   retired: no span uses 9-11 any more, but
    "shard_match",        // 10  12-15 are persisted and keep their ids
    "cross_shard_merge",  // 11
    "store_append",    // 12
    "store_commit",    // 13
    "index_finalize",  // 14
    "epoch",           // 15
};

}  // namespace

std::uint8_t profile_stage_id(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kStageNames); ++i) {
    if (kStageNames[i] == name) return static_cast<std::uint8_t>(i);
  }
  return 255;
}

std::string_view profile_stage_name(std::uint8_t id) noexcept {
  if (id < std::size(kStageNames)) return kStageNames[id];
  return "other";
}

CriticalPath CriticalPath::build(const std::vector<SpanRecord>& spans,
                                 std::uint64_t trace_id,
                                 const CriticalPathOptions& opts) {
  CriticalPath cp;
  cp.trace_id = trace_id;
  cp.mode = opts.mode;
  const bool det = opts.mode == DurationMode::kDeterministic;

  // Deterministic working order regardless of recording interleaving.
  std::vector<const SpanRecord*> recs;
  for (const SpanRecord& s : spans) {
    if (s.trace_id != trace_id) continue;
    recs.push_back(&s);
  }
  std::sort(recs.begin(), recs.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return record_less(*a, *b);
            });

  // Dedupe by span id (first in deterministic order wins).
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::vector<const SpanRecord*> nodes;
  by_id.reserve(recs.size());
  for (const SpanRecord* s : recs) {
    auto [it, inserted] = by_id.try_emplace(s->span_id, nodes.size());
    if (!inserted) {
      ++cp.duplicates;
      continue;
    }
    nodes.push_back(s);
  }
  if (nodes.empty()) return cp;

  // Children lists, in deterministic order (nodes is already sorted).
  std::vector<std::vector<std::size_t>> children(nodes.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SpanRecord* s = nodes[i];
    if (s->parent_id == 0) {
      roots.push_back(i);
      continue;
    }
    auto it = by_id.find(s->parent_id);
    if (it == by_id.end() || it->second == i) {
      continue;  // Parent never recorded (or a self-cycle): orphan.
    }
    children[it->second].push_back(i);
  }

  // Inclusive weights bottom-up (iterative DFS — per-monitor fan-out can be
  // wide, keep the stack off the C++ stack).  Deterministic mode weighs
  // every span 1 unit, so a span's inclusive weight is its subtree size.
  std::vector<double> inclusive(nodes.size(), 0.0);
  std::vector<double> child_sum(nodes.size(), 0.0);
  std::vector<std::size_t> subtree(nodes.size(), 0);
  auto weigh = [&](std::size_t root) {
    std::vector<std::pair<std::size_t, bool>> stack{{root, false}};
    while (!stack.empty()) {
      auto [i, done] = stack.back();
      stack.pop_back();
      if (!done) {
        stack.emplace_back(i, true);
        for (std::size_t c : children[i]) stack.emplace_back(c, false);
        continue;
      }
      subtree[i] = 1;
      for (std::size_t c : children[i]) {
        child_sum[i] += inclusive[c];
        subtree[i] += subtree[c];
      }
      inclusive[i] = det ? static_cast<double>(subtree[i])
                         : nodes[i]->duration_ms;
    }
  };
  // Exclusive weights top-down.  Children that fit inside their parent
  // leave it the uncovered remainder.  Children that overran it ran
  // concurrently (pool work): the parent keeps no self time, and its
  // children's subtrees share its wall time in proportion to their busy
  // time — a factor that compounds down the tree.  Either way the
  // subtree's exclusive times sum to its own (scaled) inclusive time.
  std::vector<double> exclusive(nodes.size(), 0.0);
  auto attribute = [&](std::size_t root) {
    std::vector<std::pair<std::size_t, double>> stack{{root, 1.0}};
    while (!stack.empty()) {
      auto [i, scale] = stack.back();
      stack.pop_back();
      double child_scale = scale;
      if (child_sum[i] > inclusive[i]) {
        child_scale = scale * inclusive[i] / child_sum[i];
      } else {
        exclusive[i] = scale * (inclusive[i] - child_sum[i]);
      }
      for (std::size_t c : children[i]) stack.emplace_back(c, child_scale);
    }
  };
  for (std::size_t r : roots) {
    weigh(r);
    attribute(r);
  }

  // Primary root: largest subtree, ties broken by deterministic order.
  if (roots.empty()) {
    cp.orphans = nodes.size();  // All spans orphaned; nothing to attribute.
    return cp;
  }
  std::size_t primary = roots[0];
  for (std::size_t r : roots) {
    if (subtree[r] > subtree[primary]) primary = r;
  }

  // Everything not reachable from the primary root (missing parents, extra
  // roots and their subtrees) counts as an orphan.
  std::vector<char> in_tree(nodes.size(), 0);
  {
    std::vector<std::size_t> stack{primary};
    while (!stack.empty()) {
      std::size_t i = stack.back();
      stack.pop_back();
      in_tree[i] = 1;
      for (std::size_t c : children[i]) stack.push_back(c);
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!in_tree[i]) ++cp.orphans;
  }

  cp.root_inclusive_ms = inclusive[primary];
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!in_tree[i]) continue;
    ++cp.span_count;
    cp.total_exclusive_ms += exclusive[i];
  }

  // Per-stage rollup.
  std::vector<StageTime> stages;
  std::unordered_map<std::string_view, std::size_t> stage_ix;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!in_tree[i]) continue;
    auto [it, inserted] = stage_ix.try_emplace(nodes[i]->name, stages.size());
    if (inserted) {
      stages.push_back(StageTime{nodes[i]->name, 0.0, 0.0, 0});
    }
    StageTime& st = stages[it->second];
    st.inclusive_ms += inclusive[i];
    st.exclusive_ms += exclusive[i];
    ++st.spans;
  }
  std::sort(stages.begin(), stages.end(),
            [](const StageTime& a, const StageTime& b) {
              if (a.exclusive_ms != b.exclusive_ms) {
                return a.exclusive_ms > b.exclusive_ms;
              }
              return a.name < b.name;
            });
  cp.stages = std::move(stages);
  for (const StageTime& st : cp.stages) {
    if (st.name == nodes[primary]->name) continue;
    cp.dominant_stage = st.name;
    break;
  }
  if (cp.dominant_stage.empty()) cp.dominant_stage = nodes[primary]->name;

  // Longest-duration path root -> leaf (max-inclusive child each step;
  // nodes order makes tie-breaks deterministic).
  std::size_t cur = primary;
  while (true) {
    cp.path.push_back(PathNode{nodes[cur]->name, nodes[cur]->key,
                               inclusive[cur], exclusive[cur]});
    if (children[cur].empty()) break;
    std::size_t best = children[cur][0];
    for (std::size_t c : children[cur]) {
      if (inclusive[c] > inclusive[best]) best = c;
    }
    cur = best;
  }

  // Sibling-group skew (stragglers are wall-only: unit weights cannot
  // diverge).  Groups keyed by (parent, name) with >= 2 members.
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    if (!in_tree[p] || children[p].empty()) continue;
    // children[p] is in deterministic order; same-name runs are adjacent
    // only if names sort adjacently, so group explicitly.
    std::unordered_map<std::string_view, std::vector<std::size_t>> groups;
    for (std::size_t c : children[p]) groups[nodes[c]->name].push_back(c);
    // Deterministic iteration: walk children in order, handle each name
    // the first time it is seen.
    std::unordered_set<std::string_view> seen;
    for (std::size_t c : children[p]) {
      if (!seen.insert(nodes[c]->name).second) continue;
      const auto& g = groups[nodes[c]->name];
      if (g.size() < 2) continue;
      ++cp.sibling_groups;
      if (det) continue;
      std::vector<double> durs;
      durs.reserve(g.size());
      std::size_t slowest = g[0];
      for (std::size_t i : g) {
        durs.push_back(inclusive[i]);
        if (inclusive[i] > inclusive[slowest]) slowest = i;
      }
      std::sort(durs.begin(), durs.end());
      const std::size_t mid = durs.size() / 2;
      const double median = durs.size() % 2 == 1
                                ? durs[mid]
                                : 0.5 * (durs[mid - 1] + durs[mid]);
      if (median > 0.0 &&
          inclusive[slowest] >= opts.straggler_skew * median) {
        cp.stragglers.push_back(Straggler{std::string(nodes[c]->name),
                                          nodes[slowest]->key,
                                          inclusive[slowest], median,
                                          g.size()});
      }
    }
  }
  std::sort(cp.stragglers.begin(), cp.stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              if (a.max_ms != b.max_ms) return a.max_ms > b.max_ms;
              if (a.name != b.name) return a.name < b.name;
              return a.key < b.key;
            });
  return cp;
}

std::string CriticalPath::to_text() const {
  const char* unit = mode == DurationMode::kDeterministic ? "units" : "ms";
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "epoch %" PRIu64 ": root %.3f %s over %zu spans (%zu "
                "orphans, %zu duplicates)\n",
                trace_id, root_inclusive_ms, unit, span_count, orphans,
                duplicates);
  out += buf;
  out += "  critical path:";
  for (const PathNode& n : path) {
    std::snprintf(buf, sizeof(buf), " %s[%" PRIu64 "] %.3f", n.name.c_str(),
                  n.key, n.inclusive_ms);
    out += buf;
    if (&n != &path.back()) out += " ->";
  }
  out += '\n';
  for (const StageTime& st : stages) {
    const double pct = root_inclusive_ms > 0.0
                           ? 100.0 * st.exclusive_ms / root_inclusive_ms
                           : 0.0;
    std::snprintf(buf, sizeof(buf), "  %-18s excl %10.3f %s  %5.1f%%  x%zu\n",
                  st.name.c_str(), st.exclusive_ms, unit, pct, st.spans);
    out += buf;
  }
  for (const Straggler& s : stragglers) {
    std::snprintf(buf, sizeof(buf),
                  "  straggler: %s[%" PRIu64 "] %.3f ms vs median %.3f ms "
                  "(group of %zu)\n",
                  s.name.c_str(), s.key, s.max_ms, s.median_ms, s.group_size);
    out += buf;
  }
  return out;
}

void ProfileReport::add(const CriticalPath& cp) {
  ++epochs_;
  total_root_ms_ += cp.root_inclusive_ms;
  stragglers_ += cp.stragglers.size();
  auto row_for = [this](const std::string& name) -> Row& {
    for (auto& [n, row] : rows_) {
      if (n == name) return row;
    }
    rows_.emplace_back(name, Row{});
    return rows_.back().second;
  };
  for (const StageTime& st : cp.stages) {
    Row& row = row_for(st.name);
    row.inclusive_ms += st.inclusive_ms;
    row.exclusive_ms += st.exclusive_ms;
    row.spans += st.spans;
  }
  std::unordered_set<std::string_view> hit;
  for (const PathNode& n : cp.path) {
    if (hit.insert(n.name).second) ++row_for(n.name).path_hits;
  }
}

std::vector<std::pair<std::string, ProfileReport::Row>> ProfileReport::ranked()
    const {
  auto rows = rows_;
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.exclusive_ms != b.second.exclusive_ms) {
      return a.second.exclusive_ms > b.second.exclusive_ms;
    }
    return a.first < b.first;
  });
  return rows;
}

std::string ProfileReport::to_text() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "critical-path profile over %zu epochs (total root %.3f, "
                "%zu stragglers)\n",
                epochs_, total_root_ms_, stragglers_);
  out += buf;
  out += "  stage               exclusive        %          busy  path-hits"
         "  spans\n";
  for (const auto& [name, row] : ranked()) {
    const double pct =
        total_root_ms_ > 0.0 ? 100.0 * row.exclusive_ms / total_root_ms_ : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "  %-18s %12.3f  %6.1f  %12.3f  %9zu  %5zu\n", name.c_str(),
                  row.exclusive_ms, pct, row.inclusive_ms, row.path_hits,
                  row.spans);
    out += buf;
  }
  return out;
}

std::string ProfileReport::to_jsonl() const {
  std::string out;
  char buf[96];
  for (const auto& [name, row] : ranked()) {
    const double pct =
        total_root_ms_ > 0.0 ? 100.0 * row.exclusive_ms / total_root_ms_ : 0.0;
    out += "{\"kind\":\"profile_stage\",\"stage\":\"" + json_escape(name) +
           "\",\"exclusive_ms\":" + fmt_double(row.exclusive_ms) +
           ",\"inclusive_ms\":" + fmt_double(row.inclusive_ms) +
           ",\"percent\":" + fmt_double(pct);
    std::snprintf(buf, sizeof(buf), ",\"path_hits\":%zu,\"spans\":%zu}\n",
                  row.path_hits, row.spans);
    out += buf;
  }
  out += "{\"kind\":\"profile_summary\"";
  std::snprintf(buf, sizeof(buf), ",\"epochs\":%zu", epochs_);
  out += buf;
  out += ",\"total_root_ms\":" + fmt_double(total_root_ms_);
  std::snprintf(buf, sizeof(buf), ",\"stragglers\":%zu}\n", stragglers_);
  out += buf;
  return out;
}

}  // namespace jaal::telemetry
