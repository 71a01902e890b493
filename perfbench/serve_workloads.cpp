// serve_poisson and serve_bursty_evict: seeded traffic through
// serve::Server::replay() in native mode.
//
// Timed run: the set-up of a replay (cold cache loads and engine builds)
// timed on its own, then repeated replays for --seconds; throughput and
// service-time percentiles are per-replay values, reported as medians over
// replays. Each replay builds a cold cache, so its set-up is inside
// throughput as well.
// Every replay's results_digest must equal the first one's (and the pinned
// one for the default seed), and every request's output digest must equal
// an in-run reference that reruns every request on a 1-thread engine.
//
// Traced run: Server::execute is private, so the benchmark drives the
// same batch plan (serve::build_schedule on the same trace) through the
// public calls the server makes per batch — MatrixCache::acquire, the
// runtime::Engine constructor, graph::bfs/sssp/pagerank — with spans
// around each, and checks its per-request digests against the replay's.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/telemetry.h"
#include "serve/cache.h"
#include "serve/config.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "sim/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = cs::serve;

/// Budget below the ~3 MB the three scale-64 stand-ins occupy by
/// MatrixCache::graph_bytes, so LRU eviction forces regeneration.
constexpr std::uint64_t kEvictBudgetBytes = 2'000'000;
/// Requests per trace: enough that the seeded mix of datasets and
/// algorithms varies little from one seed to the next.
constexpr std::uint32_t kRequests = 1000;

struct ServeSetup {
  serve::ServeConfig cfg;
  std::uint32_t serve_threads = 1;
};

ServeSetup make_setup(const Options& opts) {
  ServeSetup s;
  serve::ServeConfig& cfg = s.cfg;
  cfg.scheduler_type = "same-dataset-batch";
  cfg.max_active_reqs = 64;
  cfg.max_batch_size = 8;
  cfg.virtual_workers = 2;
  cfg.exec_mode = "native";
  cfg.system = "8x8";
  cfg.scale = 64;
  cfg.dataset_seed = kDatasetSeed;
  cfg.traffic.request_interval_us = 800;
  cfg.traffic.request_total_cnt = kRequests;
  cfg.traffic.seed = opts.seed;
  cfg.traffic.datasets = {"twitter", "vsp", "youtube"};
  cfg.traffic.algos = {"bfs", "sssp", "pagerank"};
  if (opts.workload == kServePoisson) {
    cfg.traffic.arrival = "poisson";
    s.serve_threads = kHostThreads;
  } else {
    cfg.traffic.arrival = "bursty";
    cfg.traffic.burst_factor = 8.0;
    cfg.traffic.burst_fraction = 0.2;
    cfg.traffic.burst_period_us = 20000;
    cfg.cache_budget_bytes = kEvictBudgetBytes;
    // 8x bursts overrun a 64-request admission bound on some seeds, and a
    // rejected request counts as failed; admit the whole trace instead.
    cfg.max_active_reqs = cfg.traffic.request_total_cnt;
    // One serve thread: the cache miss sequence is then a pure function of
    // the plan (with more threads, pin timing moves it run to run).
    s.serve_threads = 1;
  }
  return s;
}

cs::sim::SystemConfig system_8x8() {
  return cs::sim::SystemConfig::transmuter(8, 8);
}

cs::runtime::EngineOptions serial_native(cs::obs::Telemetry* tel = nullptr) {
  cs::runtime::EngineOptions o;
  o.exec_mode = cs::native::ExecMode::kNative;
  o.sim_threads = 0;  // serial inside a batch, as the server runs it
  o.telemetry = tel;
  return o;
}

/// Per-request output digests of every admitted request, run in trace
/// order on one 1-thread engine per dataset: the in-run reference.
std::vector<std::string> reference_digests(
    const serve::ServeConfig& cfg, const std::vector<serve::QueryRequest>& tr,
    const serve::Schedule& sched) {
  const cs::sparse::DatasetRegistry registry;
  std::map<std::string, cs::sparse::Graph> graphs;
  std::map<std::string, std::unique_ptr<cs::runtime::Engine>> engines;
  std::vector<std::string> out(tr.size());
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (sched.responses[i].status != serve::Status::kOk) continue;
    const std::string& ds = tr[i].dataset;
    if (!graphs.contains(ds)) {
      graphs.emplace(ds, registry.load(ds, cfg.scale, cfg.dataset_seed));
      engines.emplace(ds, std::make_unique<cs::runtime::Engine>(
                              graphs.at(ds).adjacency(), system_8x8(),
                              serial_native()));
    }
    out[i] = run_algo(*engines.at(ds), graphs.at(ds), tr[i].algo,
                      tr[i].source, tr[i].iterations, tr[i].seed)
                 .digest;
  }
  return out;
}

/// Set-up of one replay, timed apart: a cold MatrixCache loads each
/// dataset and a batch engine is built on it, as the server's first batch
/// on each dataset does. Median of several set-ups, in seconds.
double setup_seconds(const ServeSetup& s) {
  constexpr int kSetups = 7;
  const cs::sparse::DatasetRegistry registry;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    serve::MatrixCache cache(&registry, s.cfg.cache_budget_bytes, s.cfg.scale,
                             s.cfg.dataset_seed);
    for (const std::string& ds : s.cfg.traffic.datasets) {
      const serve::MatrixCache::Lease lease = cache.acquire(ds);
      const cs::runtime::Engine eng(lease.graph().adjacency(), system_8x8(),
                                    serial_native());
    }
    setups.push_back(now_s() - t0);
  }
  return median(setups);
}

struct Replay {
  double wall_ms = 0.0;
  std::string results_digest;
  std::vector<std::string> digests;  ///< per trace index, "" if not ok
  std::vector<double> service_ms;    ///< kOk responses
  std::uint64_t not_ok = 0;          ///< rejected + errored
  cs::Json report;
  serve::Schedule schedule;
  serve::CacheStats cache;
};

Replay replay_once(const ServeSetup& s) {
  serve::ServerOptions so;
  so.serve_threads = s.serve_threads;
  serve::Server server(s.cfg, so);
  Replay r;
  const double t0 = now_s();
  r.report = server.replay();
  r.wall_ms = (now_s() - t0) * 1e3;
  r.results_digest =
      r.report.find("results")->find("results_digest")->as_string();
  r.schedule = server.schedule();
  r.cache = server.cache_stats();
  for (const serve::QueryResponse& resp : r.schedule.responses) {
    if (resp.status == serve::Status::kOk) {
      r.service_ms.push_back(resp.wall_service_ms);
      r.digests.push_back(resp.digest);
    } else {
      ++r.not_ok;
      r.digests.emplace_back();
    }
  }
  return r;
}

/// Checks one replay's outputs; every request is one attempted operation.
void verify_replay(Result& res, const Replay& rp,
                   const std::string& first_digest) {
  res.attempted += rp.digests.size();
  res.failed += rp.not_ok;
  if (rp.not_ok != 0)
    res.mismatches.push_back(std::to_string(rp.not_ok) +
                             " request(s) rejected or errored");
  res.expect(rp.results_digest == first_digest,
             "results_digest differs between replays: " + rp.results_digest +
                 " vs " + first_digest);
}

struct Drive {
  double t0_ms = 0.0;
  double t1_ms = 0.0;
  std::vector<std::string> digests;
};

/// Runs the batch plan through the server's public per-batch calls.
Drive drive_plan(const ServeSetup& s,
                 const std::vector<serve::QueryRequest>& trace,
                 const serve::Schedule& sched, SpanLog& log) {
  const cs::sparse::DatasetRegistry registry;
  serve::MatrixCache cache(&registry, s.cfg.cache_budget_bytes, s.cfg.scale,
                           s.cfg.dataset_seed);
  Drive d;
  d.digests.assign(trace.size(), "");
  const auto run_batch = [&](std::uint32_t b) {
    const serve::BatchPlan& batch = sched.batches[b];
    const SpanLog::Scope bs(log, "serve.batch", batch.id);
    serve::MatrixCache::Lease lease;
    {
      const bool resident = cache.resident(batch.dataset);
      const SpanLog::Scope as(log,
                              resident ? "serve.cache_acquire_hit"
                                       : "serve.cache_acquire_miss",
                              batch.id);
      lease = cache.acquire(batch.dataset);
    }
    const cs::sparse::Graph& g = lease.graph();
    cs::obs::Telemetry tel;
    std::int64_t build_span = log.open("runtime.engine_build", batch.id);
    cs::runtime::Engine eng(g.adjacency(), system_8x8(),
                            serial_native(log.enabled() ? &tel : nullptr));
    log.close(build_span);
    for (const std::size_t idx : batch.request_indices) {
      const serve::QueryRequest& req = trace[idx];
      const double iter_before = hist_sum(tel, "engine.iteration_ms");
      const SpanLog::Scope rs(
          log, std::string("graph.") + serve::to_string(req.algo), req.id);
      d.digests[idx] = run_algo(eng, g, req.algo, req.source,
                                req.iterations, req.seed)
                           .digest;
      log.add_aggregate("runtime.spmv", rs.id(),
                        hist_sum(tel, "engine.iteration_ms") - iter_before,
                        req.id);
    }
  };
  d.t0_ms = log.now_ms();
  {
    cs::sim::ParallelExecutor pool(s.serve_threads);
    pool.run(static_cast<std::uint32_t>(sched.batches.size()), run_batch);
  }
  d.t1_ms = log.now_ms();
  return d;
}

void traced_metrics(Result& res, const ServeSetup& s, const Options& opts) {
  const serve::ServeConfig& cfg = s.cfg;

  // Untraced first: the reference replay (host cache, virtual schedule,
  // report timing) and the same plan driven without spans.
  const Replay rp = replay_once(s);
  res.attempted += rp.digests.size();
  res.failed += rp.not_ok;
  check_pinned(opts, res, "results_digest", rp.results_digest);
  SpanLog off(false);
  const auto plain_trace = serve::generate_trace(cfg.traffic);
  const Drive plain = drive_plan(
      s, plain_trace, serve::build_schedule(cfg, plain_trace), off);

  // The traced window: plan, dataset generation, the driven plan.
  SpanLog log(true);
  const double t0 = log.now_ms();
  std::vector<serve::QueryRequest> trace;
  serve::Schedule sched;
  {
    const SpanLog::Scope ps(log, "serve.plan");
    trace = serve::generate_trace(cfg.traffic);
    sched = serve::build_schedule(cfg, trace);
  }
  {
    const cs::sparse::DatasetRegistry registry;
    for (const std::string& ds : cfg.traffic.datasets) {
      const SpanLog::Scope gs(log, "sparse.generate");
      const cs::sparse::Graph g =
          registry.load(ds, cfg.scale, cfg.dataset_seed);
    }
  }
  const Drive drv = drive_plan(s, trace, sched, log);
  const double t1 = log.now_ms();
  res.expect(rp.schedule.batches.size() == sched.batches.size(),
             "replay and build_schedule disagree on the batch plan");
  for (const Drive* d : {&plain, &drv}) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (rp.digests[i].empty()) continue;
      ++res.attempted;
      res.expect(d->digests[i] == rp.digests[i],
                 "driven request " + std::to_string(i + 1) +
                     " digest differs from the replay");
    }
  }

  const std::vector<Span> spans = log.spans();
  const std::vector<double> self = self_ms(spans);
  std::map<std::string, std::vector<double>> dur;
  double overhead_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    dur[sp.name].push_back(sp.duration_ms());
    if (sp.name == "serve.batch") {
      // Batch wall minus its requests' service: self time plus the
      // acquire and engine-build children.
      overhead_total += self[i];
    } else if (sp.parent >= 0 && !sp.aggregate && sp.layer() != "graph" &&
               spans[static_cast<std::size_t>(sp.parent)].name ==
                   "serve.batch") {
      overhead_total += sp.duration_ms();
    }
  }
  const auto total = [&](const std::string& name) {
    double t = 0.0;
    for (const double d : dur[name]) t += d;
    return t;
  };
  const auto mean = [&](const std::string& name) {
    const auto n = dur[name].size();
    return n == 0 ? 0.0 : total(name) / static_cast<double>(n);
  };
  const double drive_wall = drv.t1_ms - drv.t0_ms;
  const double plain_wall = plain.t1_ms - plain.t0_ms;
  const auto batches = static_cast<double>(sched.batches.size());

  res.set("serve.batches", batches);
  res.set("serve.requests_per_batch",
          static_cast<double>(sched.stats.admitted) / std::max(1.0, batches));
  res.set("serve.batch_overhead_ms", overhead_total / std::max(1.0, batches));
  res.set("serve.worker_busy_frac",
          drive_wall > 0.0
              ? total("serve.batch") / (drive_wall * s.serve_threads)
              : 0.0);
  res.set("serve.cache_acquire_hit_ms", mean("serve.cache_acquire_hit"));
  res.set("serve.cache_acquire_miss_ms", mean("serve.cache_acquire_miss"));
  res.set("serve.cache_hits", static_cast<double>(rp.cache.hits));
  res.set("serve.cache_misses", static_cast<double>(rp.cache.misses));
  res.set("serve.cache_evictions", static_cast<double>(rp.cache.evictions));
  const auto lookups = static_cast<double>(rp.cache.hits + rp.cache.misses);
  res.set("serve.cache_hit_ratio",
          lookups == 0.0 ? 0.0 : static_cast<double>(rp.cache.hits) / lookups);
  res.set("serve.cache_peak_bytes",
          static_cast<double>(rp.cache.peak_bytes_resident));
  res.set("serve.plan_ms", total("serve.plan"));
  res.set("serve.report_ms",
          rp.wall_ms -
              rp.report.find("timing")->find("total_wall_ms")->as_double());
  res.set("serve.virtual_p50_us",
          static_cast<double>(
              serve::latency_percentile_us(rp.schedule.responses, 50.0)));
  res.set("serve.virtual_p99_us",
          static_cast<double>(
              serve::latency_percentile_us(rp.schedule.responses, 99.0)));
  res.set("serve.peak_queue_depth",
          static_cast<double>(rp.schedule.stats.peak_queue_depth));
  res.set("serve.rejected", static_cast<double>(rp.schedule.stats.rejected));
  res.set("serve.errored", static_cast<double>(rp.schedule.stats.errored));
  res.set("runtime.engine_build_ms", mean("runtime.engine_build"));
  res.set("sparse.generate_ms", mean("sparse.generate"));
  res.set("obs.trace_overhead_pct",
          plain_wall > 0.0 ? 100.0 * (drive_wall - plain_wall) / plain_wall
                           : 0.0);
  res.info["drive_acquire_hits"] =
      static_cast<std::uint64_t>(dur["serve.cache_acquire_hit"].size());
  res.info["drive_acquire_misses"] =
      static_cast<std::uint64_t>(dur["serve.cache_acquire_miss"].size());
  set_span_metrics(res, log, t0, t1, {"serve", "runtime", "graph", "sparse"});
}

}  // namespace

Result run_serve(const Options& opts) {
  Result res;
  const ServeSetup s = make_setup(opts);
  res.info["exec_mode"] = "native";
  res.info["serve_threads"] = s.serve_threads;
  res.info["engine_sim_threads"] = 0;
  res.info["system"] = s.cfg.system;
  res.info["scale"] = s.cfg.scale;
  res.info["arrival"] = s.cfg.traffic.arrival;
  res.info["requests"] = s.cfg.traffic.request_total_cnt;
  res.info["cache_budget_bytes"] = s.cfg.cache_budget_bytes;

  if (opts.trace) {
    traced_metrics(res, s, opts);
    return res;
  }

  res.set("setup_s", setup_seconds(s));
  std::vector<double> rps, p50, tail;
  std::string first_digest;
  std::vector<std::string> first_digests;
  Tail first_tail;
  const double t_end = now_s() + opts.seconds;
  while (rps.size() < 3 || now_s() < t_end) {
    const Replay rp = replay_once(s);
    const Tail t = tail_percentile(rp.service_ms);
    if (rps.empty()) {
      first_digest = rp.results_digest;
      first_digests = rp.digests;
      first_tail = t;
    }
    verify_replay(res, rp, first_digest);
    res.expect(t.percentile == first_tail.percentile,
               "tail percentile rung changed between replays");
    rps.push_back(static_cast<double>(rp.service_ms.size()) * 1e3 /
                  rp.wall_ms);
    p50.push_back(percentile(rp.service_ms, 50.0));
    tail.push_back(t.value);
  }
  res.set("peak_rss_mb", peak_rss_mb());
  check_pinned(opts, res, "results_digest", first_digest);

  // In-run reference, after the timed replays so it stays out of the
  // peak RSS: every request rerun on a 1-thread engine per dataset must
  // give the replay's digest.
  const auto trace = serve::generate_trace(s.cfg.traffic);
  const serve::Schedule sched = serve::build_schedule(s.cfg, trace);
  const std::vector<std::string> reference =
      reference_digests(s.cfg, trace, sched);
  for (std::size_t i = 0; i < first_digests.size(); ++i) {
    if (first_digests[i].empty()) continue;
    ++res.attempted;
    res.expect(first_digests[i] == reference[i],
               "request " + std::to_string(i + 1) +
                   " digest differs from the 1-thread reference");
  }

  res.set("throughput_rps", median(rps));
  res.set("service_p50_ms", median(p50));
  res.set("service_tail_ms", median(tail));
  res.info["replays"] = static_cast<std::uint64_t>(rps.size());
  res.info["service_tail_percentile"] = first_tail.percentile;
  res.info["service_tail_beyond"] = static_cast<std::uint64_t>(first_tail.beyond);
  res.info["batches"] = static_cast<std::uint64_t>(sched.batches.size());
  res.info["results_digest"] = first_digest;
  return res;
}

}  // namespace perfbench
