// The four workloads. Each returns the metrics of one run: end-to-end
// metrics with tracing off, per-layer metrics with tracing on.
#pragma once

#include "common.h"

namespace perfbench {

Result run_serve(const Options& opts);  ///< serve_poisson, serve_bursty_evict
Result run_graph_native(const Options& opts);
Result run_sim_cycle(const Options& opts);

}  // namespace perfbench
