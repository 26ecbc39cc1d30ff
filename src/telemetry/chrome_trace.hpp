// Chrome trace-event export: span records -> Perfetto-loadable JSON.
//
// Two modes, mirroring profile.hpp's DurationMode:
//  - kWall: real start/duration timestamps (microseconds, relative to the
//    tracer's birth).  Spans are packed greedily into "thread" lanes so
//    parallel siblings (monitor flushes) render side by
//    side while parent/child nesting stays on one lane.  This is the mode
//    an operator opens in https://ui.perfetto.dev.
//  - kDeterministic: a synthetic layout derived only from the span tree
//    shape.  Every span is 1 unit wide plus its children (1 unit = 1 us),
//    children are laid out in sorted (name, key, span_id) order, and the
//    trace base timestamp comes from the deterministic sim_time.  The
//    output is byte-identical across runs and thread counts; a tier-1
//    test pins that.
#pragma once

#include <string>
#include <vector>

#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"

namespace jaal::telemetry {

struct ChromeTraceOptions {
  DurationMode mode = DurationMode::kWall;
};

/// Serializes spans as Chrome trace-event JSON ("X" complete events, one
/// process per trace/epoch).  Load the result in Perfetto or
/// chrome://tracing.
[[nodiscard]] std::string export_chrome_trace(
    const std::vector<SpanRecord>& spans, const ChromeTraceOptions& options = {});

}  // namespace jaal::telemetry
