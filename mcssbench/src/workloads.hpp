// The four workloads. Each runs its set-up several times (setup_s is the
// median), then one measured pass with tracing off that yields every
// end-to-end metric. With Options::trace it then runs a second, traced
// pass that yields the per-layer metrics and the tracing overhead.
#pragma once

#include "common.hpp"

namespace mcssbench {

[[nodiscard]] Result run_stream(const Options& opts);
[[nodiscard]] Result run_section6(const Options& opts);
[[nodiscard]] Result run_churn(const Options& opts);
[[nodiscard]] Result run_psim(const Options& opts);

/// Switch on what a traced pass records: the span recorder and the
/// library's obs registry.
void begin_traced_pass();

/// trace.overhead_frac: relative CPU cost per operation of the traced
/// pass over the untraced one.
[[nodiscard]] double tracing_overhead(double untraced_cpu_us,
                                      double traced_cpu_us);

}  // namespace mcssbench
