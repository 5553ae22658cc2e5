// Exporters: turn a MetricsSnapshot into Prometheus text exposition or
// structured JSON, and a trace snapshot into Chrome trace_event JSON
// (loadable in about://tracing / Perfetto).
// These are pure functions over snapshots so tests can assert on exact
// output and the CLI can serve any combination.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsparse::obs {

/// Prometheus text exposition format, version 0.0.4: one # HELP / # TYPE
/// pair per family, histograms expanded into cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// {"metrics": [{"name": ..., "type": ..., "labels": {...}, ...}]} —
/// counters/gauges carry "value", histograms carry "count"/"sum"/
/// "buckets" (upper bound + cumulative count, +Inf last).
std::string to_json(const MetricsSnapshot& snapshot);

/// Chrome trace_event JSON: {"traceEvents": [...]} of complete ("X")
/// events, microsecond timestamps, span attributes under "args". Load the
/// output in about://tracing or ui.perfetto.dev.
std::string trace_to_chrome(const std::vector<SpanRecord>& spans);

/// Minimal JSON string escaping (quotes, backslashes, control bytes),
/// shared by every JSON emitter that grew out of this subsystem.
std::string json_escape(std::string_view text);

}  // namespace artsparse::obs
