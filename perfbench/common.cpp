#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/digest.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "obs/telemetry.h"

namespace perfbench {

namespace {

constexpr unsigned kGS = kGraphNative | kSimCycle;

// Every workload reports every end-to-end metric; a query is one algorithm
// run (one serve request, or one BFS/SSSP/PageRank/CF call on the engine).
// Per-layer metrics carry the workloads that exercise their layer; the
// others print 0 for them (main.cpp fills those in).
const std::vector<MetricSpec> kMetrics = {
    // ---- end to end (tracing off) ----
    {"throughput_rps", "1/s", true, kAll},
    {"service_p50_ms", "ms", true, kAll},
    {"service_tail_ms", "ms", true, kAll},
    {"setup_s", "s", true, kAll},
    {"peak_rss_mb", "MB", true, kAll},
    // ---- serve ----
    {"serve.batches", "count", false, kServe},
    {"serve.requests_per_batch", "count", false, kServe},
    {"serve.batch_overhead_ms", "ms", false, kServe},
    {"serve.worker_busy_frac", "frac", false, kServe},
    {"serve.cache_acquire_hit_ms", "ms", false, kServe},
    {"serve.cache_acquire_miss_ms", "ms", false, kServe},
    {"serve.cache_hits", "count", false, kServe},
    {"serve.cache_misses", "count", false, kServe},
    {"serve.cache_evictions", "count", false, kServe},
    {"serve.cache_hit_ratio", "frac", false, kServe},
    {"serve.cache_peak_bytes", "bytes", false, kServe},
    {"serve.plan_ms", "ms", false, kServe},
    {"serve.report_ms", "ms", false, kServe},
    {"serve.virtual_p50_us", "us", false, kServe},
    {"serve.virtual_p99_us", "us", false, kServe},
    {"serve.peak_queue_depth", "count", false, kServe},
    {"serve.rejected", "count", false, kServe},
    {"serve.errored", "count", false, kServe},
    {"serve.self_ms", "ms", false, kServe},
    // ---- runtime ----
    {"runtime.engine_build_ms", "ms", false, kAll},
    {"runtime.spmv_overhead_ms", "ms", false, kGraphNative},
    {"runtime.frontier_conversions", "count", false, kGS},
    {"runtime.sw_switches", "count", false, kGS},
    {"runtime.hw_switches", "count", false, kGS},
    {"runtime.decision_regret_pct", "%", false, kGS},
    {"runtime.decision_regret_max_pct", "%", false, kGS},
    {"runtime.best_choice_frac", "frac", false, kGS},
    {"runtime.decision_invocations", "count", false, kGS},
    {"runtime.decision_counted", "count", false, kGS},
    {"runtime.decision_chosen_est_cycles", "cycles", false, kGS},
    {"runtime.decision_best_est_cycles", "cycles", false, kGS},
    {"runtime.self_ms", "ms", false, kAll},
    // ---- native (computed bytes: from array sizes, not counters) ----
    {"native.pull_ms", "ms", false, kGraphNative},
    {"native.push_ms", "ms", false, kGraphNative},
    {"native.pull_bytes", "bytes", false, kGraphNative},
    {"native.push_bytes", "bytes", false, kGraphNative},
    {"native.pull_gbps", "GB/s", false, kGraphNative},
    {"native.push_gbps", "GB/s", false, kGraphNative},
    {"native.pull_stream_frac", "frac", false, kGraphNative},
    {"native.push_stream_frac", "frac", false, kGraphNative},
    {"native.self_ms", "ms", false, kGraphNative},
    {"host.stream_gbps", "GB/s", false, kGraphNative},
    // ---- kernels ----
    {"kernels.self_ms", "ms", false, kGraphNative},
    // ---- graph ----
    {"graph.bfs_iterations", "count", false, kGS},
    {"graph.sssp_iterations", "count", false, kGraphNative},
    {"graph.pagerank_iterations", "count", false, kGS},
    {"graph.cf_iterations", "count", false, kGraphNative},
    {"graph.bfs_ms", "ms", false, kAll},
    {"graph.sssp_ms", "ms", false, kServe | kGraphNative},
    {"graph.pagerank_ms", "ms", false, kAll},
    {"graph.cf_ms", "ms", false, kGraphNative},
    {"graph.apply_ms", "ms", false, kGS},
    {"graph.self_ms", "ms", false, kAll},
    // ---- sparse ----
    {"sparse.generate_ms", "ms", false, kAll},
    {"sparse.self_ms", "ms", false, kAll},
    // ---- sim ----
    {"sim.cycles", "cycles", false, kSimCycle},
    {"sim.host_ns_per_cycle", "ns/cycle", false, kSimCycle},
    {"sim.log_fill_ms", "ms", false, kSimCycle},
    {"sim.replay_ms", "ms", false, kSimCycle},
    {"sim.l1_hit_ratio", "frac", false, kSimCycle},
    {"sim.l2_hit_ratio", "frac", false, kSimCycle},
    {"sim.dram_bytes", "bytes", false, kSimCycle},
    {"sim.xbar_transfers", "count", false, kSimCycle},
    {"sim.pe_mem_stall_cycles", "cycles", false, kSimCycle},
    {"sim.reconfigurations", "count", false, kSimCycle},
    {"sim.energy_pj", "pJ", false, kSimCycle},
    {"sim.self_ms", "ms", false, kSimCycle},
    // ---- obs ----
    {"obs.trace_overhead_pct", "%", false, kAll},
    {"obs.uncovered_frac", "frac", false, kAll},
};

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case kServePoisson: return "serve_poisson";
    case kServeBurstyEvict: return "serve_bursty_evict";
    case kGraphNative: return "graph_native";
    case kSimCycle: return "sim_cycle";
  }
  return "?";
}

Workload workload_from_name(const std::string& name) {
  for (const Workload w : all_workloads())
    if (name == workload_name(w)) return w;
  throw cs::Error("unknown workload '" + name + "'");
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kList = {kServePoisson, kServeBurstyEvict,
                                              kGraphNative, kSimCycle};
  return kList;
}

const std::vector<MetricSpec>& metric_specs() { return kMetrics; }

const MetricSpec& metric_spec(const std::string& name) {
  for (const MetricSpec& m : kMetrics)
    if (name == m.name) return m;
  throw cs::Error("metric '" + name + "' is not in the registry");
}

void Result::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  mismatches.push_back(what);
}

void check_pinned(const Options& opts, Result& r, const std::string& key,
                  const std::string& value) {
  std::ifstream in(opts.pinned_path);
  if (!in) {
    r.expect(false, "pinned digests unreadable: " + opts.pinned_path);
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const cs::Json doc = cs::Json::parse(ss.str());
  const cs::Json* seed = doc.find("seed");
  if (seed == nullptr ||
      static_cast<std::uint64_t>(seed->as_int()) != opts.seed)
    return;  // other seeds are checked against in-run references only
  const cs::Json* w = doc.find(workload_name(opts.workload));
  const cs::Json* v = w == nullptr ? nullptr : w->find(key);
  r.expect(v != nullptr && v->as_string() == value,
           "pinned " + std::string(workload_name(opts.workload)) + "." + key +
               ": got " + value + ", pinned " +
               (v == nullptr ? std::string("(none)") : v->as_string()));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

AlgoRun run_algo(cs::runtime::Engine& eng, const cs::sparse::Graph& g,
                 cs::serve::Algo algo, cs::Index source,
                 std::uint32_t iterations, std::uint64_t seed) {
  namespace graph = cs::graph;
  const cs::Index dim = eng.dimension();
  const cs::Index src = dim == 0 ? 0 : source % dim;
  cs::Digest d;
  AlgoRun out;
  switch (algo) {
    case cs::serve::Algo::kBfs: {
      const graph::BfsResult res = graph::bfs(eng, src);
      for (const std::int64_t level : res.level)
        d.update_u64(static_cast<std::uint64_t>(level));
      out.iterations = res.stats.iterations;
      break;
    }
    case cs::serve::Algo::kSssp: {
      const graph::SsspResult res = graph::sssp(eng, src, iterations);
      for (const cs::Value dist : res.dist) d.update_value(dist);
      out.iterations = res.stats.iterations;
      break;
    }
    case cs::serve::Algo::kPagerank: {
      graph::PageRankOptions o;
      if (iterations != 0) o.max_iterations = iterations;
      const graph::PageRankResult res =
          graph::pagerank(eng, g.out_degrees(), o);
      for (const cs::Value rank : res.rank) d.update_value(rank);
      d.update_value(res.residual);
      out.iterations = res.stats.iterations;
      break;
    }
    case cs::serve::Algo::kCf: {
      graph::CfOptions o;
      if (iterations != 0) o.iterations = iterations;
      o.seed = seed;
      const graph::CfResult res = graph::cf(eng, g.adjacency(), o);
      for (const cs::Value v : res.latent) d.update_value(v);
      for (const double loss : res.loss_per_iteration) d.update_value(loss);
      out.iterations = res.stats.iterations;
      break;
    }
  }
  out.digest = d.hex();
  return out;
}

std::vector<cs::Index> pick_sources(const cs::sparse::Graph& g,
                                    std::uint64_t seed, std::size_t count) {
  const std::vector<cs::Index>& deg = g.out_degrees();
  count = std::min(count, deg.size());
  std::vector<cs::Index> order(deg.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<cs::Index>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](cs::Index a, cs::Index b) { return deg[a] > deg[b]; });
  order.resize(std::max(count, order.size() / 100));
  // Partial Fisher-Yates over the top slice: `count` distinct picks.
  cs::Rng rng(seed, "perfbench.sources");
  for (std::size_t i = 0; i < count; ++i)
    std::swap(order[i], order[i + rng.next_below(order.size() - i)]);
  order.resize(count);
  return order;
}

Regret audit_regret(const cs::runtime::AuditTrail& audit) {
  std::vector<std::vector<Candidate>> inv;
  for (const cs::runtime::DecisionRecord& rec : audit.records()) {
    std::vector<Candidate> c;
    for (const cs::runtime::Counterfactual& cf : rec.counterfactuals)
      c.push_back({cf.est_cycles, cf.chosen});
    inv.push_back(std::move(c));
  }
  return regret(inv);
}

EngineCounts engine_counts(const cs::runtime::Engine& eng) {
  EngineCounts c;
  for (const cs::runtime::IterationRecord& rec : eng.iterations()) {
    c.conversions += rec.converted_frontier ? 1 : 0;
    c.sw_switches += rec.sw_switched ? 1 : 0;
    c.hw_switches += rec.hw_switched ? 1 : 0;
  }
  return c;
}

double hist_sum(const cs::obs::Telemetry& t, const std::string& name) {
  const cs::obs::StreamingHistogram* h = t.find_histogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

void set_regret(Result& r, const Regret& g) {
  r.set("runtime.decision_regret_pct", g.regret_pct);
  r.set("runtime.decision_regret_max_pct", g.max_regret_pct);
  r.set("runtime.best_choice_frac", g.best_choice_frac);
  r.set("runtime.decision_invocations", static_cast<double>(g.invocations));
  r.set("runtime.decision_counted", static_cast<double>(g.counted));
  r.set("runtime.decision_chosen_est_cycles", g.chosen_est_cycles);
  r.set("runtime.decision_best_est_cycles", g.best_est_cycles);
}

void set_span_metrics(Result& r, const SpanLog& log, double t0_ms,
                      double t1_ms, const std::vector<std::string>& layers) {
  const std::vector<Span> spans = log.spans();
  const std::map<std::string, double> self = layer_self_ms(spans);
  cs::Json jself = cs::Json::object();
  for (const std::string& layer : layers) {
    const auto it = self.find(layer);
    r.set(layer + ".self_ms", it == self.end() ? 0.0 : it->second);
  }
  for (const auto& [layer, ms] : self) jself[layer] = ms;
  // graph.<algo>_ms: median wall time of the traced runs of each algorithm.
  std::map<std::string, std::vector<double>> algo_ms;
  for (const Span& s : spans)
    if (!s.aggregate && s.layer() == "graph")
      algo_ms[s.name].push_back(s.duration_ms());
  for (const char* algo : {"bfs", "sssp", "pagerank", "cf"}) {
    const auto it = algo_ms.find(std::string("graph.") + algo);
    if (it != algo_ms.end())
      r.set(std::string("graph.") + algo + "_ms", median(it->second));
  }
  const double wall = t1_ms - t0_ms;
  r.set("obs.uncovered_frac",
        wall > 0.0 ? uncovered_ms(spans, t0_ms, t1_ms) / wall : 0.0);
  r.info["traced_wall_ms"] = wall;
  r.info["span_count"] = static_cast<std::uint64_t>(spans.size());
  r.info["layer_self_ms"] = std::move(jself);
  r.spans = spans;
}

}  // namespace perfbench
