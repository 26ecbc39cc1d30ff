// The telemetry bundle a deployment threads through its components.
//
// One Telemetry instance per deployment: components receive a `Telemetry*`
// via set_telemetry()/config and treat null as "telemetry off".  That is
// the default and the only off switch; its cost is a pointer check at
// wiring points (never per packet: hot-path counters are cached Counter
// handles, incremented per batch/epoch or guarded by the same null check).
#pragma once

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace jaal::telemetry {

struct Telemetry {
  MetricsRegistry metrics;
  Tracer tracer;
};

}  // namespace jaal::telemetry
