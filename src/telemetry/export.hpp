// Exporters: Prometheus text exposition and JSONL metric/span dump.
//
// Both exporters emit metrics sorted by name and spans sorted by
// (trace_id, name, key, span_id) — a deterministic order that does not
// depend on registration races or thread interleaving.
//
// The JSONL dump has two modes:
//  * include_timings = true  — the operator report: every field, including
//    wall-clock durations and the runtime (scheduler) metrics.
//  * include_timings = false — the deterministic trace: span duration_ms is
//    omitted and wall-clock-derived metrics (any name containing "_ms" and
//    the whole jaal_runtime_* family, whose queue/task interleaving depends
//    on scheduling) are skipped.  Two runs of the same seeded experiment
//    produce byte-identical output in this mode; a tier-1 test pins that.
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace jaal::telemetry {

/// Prometheus text exposition (version 0.0.4) of a metrics snapshot.
/// Labels embedded in metric names ('name{k="v"}') are split onto each
/// sample line; histograms expand to _bucket{le=...}/_sum/_count series.
/// Every metric family gets a '# HELP' line from metric_help() ahead of its
/// '# TYPE' line.
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot);

/// One-line description of a metric family (the base name, labels
/// stripped).  Known jaal_* families come from a fixed registry; unknown
/// names fall back to a generic line derived from the naming convention, so
/// every family always has help text.
[[nodiscard]] std::string metric_help(const std::string& base_name);

struct JsonlOptions {
  bool include_timings = true;
};

/// One JSON object per line: first metrics ({"kind":"counter"|"gauge"|
/// "histogram", ...}), then spans ({"kind":"span", ...}).
[[nodiscard]] std::string to_jsonl(const MetricsSnapshot& metrics,
                                   const std::vector<SpanRecord>& spans,
                                   const JsonlOptions& options = {});

/// True for metrics excluded from the deterministic JSONL mode (wall-clock
/// histograms and the scheduler-dependent jaal_runtime_* family).
[[nodiscard]] bool is_wall_clock_metric(const std::string& name) noexcept;

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed become \\, \", and \n.
[[nodiscard]] std::string escape_label_value(const std::string& value);

/// Composes a labeled metric name: 'base' -> 'base{key="value"}', or appends
/// to an existing label set ('base{a="1"}' -> 'base{a="1",key="value"}').
/// The value is escaped with escape_label_value; the key must already be a
/// valid label name.  Registering per-label-value series goes through this
/// helper so arbitrary strings (rule messages, scenario names) cannot break
/// the exposition format.
[[nodiscard]] std::string with_label(const std::string& name,
                                     const std::string& key,
                                     const std::string& value);

}  // namespace jaal::telemetry
