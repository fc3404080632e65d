#pragma once

// Prometheus text-exposition helpers (version 0.0.4 format).
//
// Small append-style emitters the service's `metrics` verb composes into
// one exposition body: each helper writes a `# TYPE` header plus sample
// lines into a growing string. Histograms emit the standard cumulative
// `_bucket{le="..."}` series (occupied boundaries plus the mandatory
// `+Inf`) with `_sum`/`_count`; quantile readouts emit a separate
// `summary`-typed family, which must use a *different* family name than
// the histogram so the exposition stays well-formed.
//
// Family names are chosen by the caller and must already be in the
// [a-zA-Z_:][a-zA-Z0-9_:]* charset Prometheus requires; nothing here
// rewrites them.

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"

namespace aa::obs {

/// Shortest round-trip decimal rendering ("+Inf" for infinity), used for
/// every sample value and `le` boundary in the exposition.
[[nodiscard]] std::string prometheus_value(double value);

/// `# TYPE <name> <type>` header. Call once per metric family, before its
/// samples. `type` is one of counter/gauge/histogram/summary.
void prometheus_header(std::string& out, std::string_view name,
                       std::string_view type);

/// One sample line: `name{labels} value` (labels may be empty; when given,
/// pass them fully rendered, e.g. `path="warm"`).
void prometheus_sample(std::string& out, std::string_view name,
                       std::string_view labels, double value);
void prometheus_sample(std::string& out, std::string_view name,
                       std::string_view labels, std::int64_t value);

/// Full counter family with a single unlabelled sample.
void prometheus_counter(std::string& out, std::string_view name,
                        std::int64_t value);

/// Full gauge family with a single unlabelled sample.
void prometheus_gauge(std::string& out, std::string_view name, double value);

/// Full histogram family: cumulative `_bucket` lines for every occupied
/// boundary plus `+Inf`, then `_sum` and `_count`.
void prometheus_histogram(std::string& out, std::string_view name,
                          const Histogram& histogram);

/// Companion summary family (p50/p90/p99/p99.9 as `quantile` labels plus
/// `_sum`/`_count`). `name` must differ from the histogram family's name.
void prometheus_summary(std::string& out, std::string_view name,
                        const Histogram& histogram);

}  // namespace aa::obs
