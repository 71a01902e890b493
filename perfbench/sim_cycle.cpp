// sim_cycle: the cycle-accurate simulator with automatic SW/HW
// reconfiguration. youtube stand-in at scale 16 on a 64x4 system with 4
// simulator threads (the log-fill/replay path); BFS from 4 seeded
// sources, then 5 PageRank iterations.
//
// Timed run: set-up (generation + engine build) nine times; then rounds
// for --seconds, each on a fresh engine (cold caches, so a round's cycles
// depend only on its sources) and from its own seeded sources. A query is
// one algorithm run: throughput is the median over rounds of queries per
// second of simulation, and the service percentiles are over every query
// of the run. Every round's outputs must equal the native backend's, the
// serial (0-thread) simulator must reproduce the first round's cycles and
// outputs, and the default seed must match the pinned values.
//
// Traced run: one round with a Telemetry attached through EngineOptions
// (engine iteration and tile-phase wall times) and spans around the
// algorithm calls, then the same round untraced for the overhead.
#include <array>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/digest.h"
#include "obs/telemetry.h"
#include "sim/parallel.h"
#include "sparse/datasets.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr unsigned kScale = 16;
constexpr const char* kDataset = "youtube";
constexpr std::uint32_t kPagerankIterations = 5;

cs::sim::SystemConfig system_64x4() {
  return cs::sim::SystemConfig::transmuter(64, 4);
}

/// `pool` (may be null) is shared by every engine of the run, so rounds
/// reuse the same worker threads; null means serial execution.
cs::runtime::EngineOptions sim_options(cs::native::ExecMode mode,
                                       cs::sim::ParallelExecutor* pool,
                                       cs::obs::Telemetry* tel = nullptr) {
  cs::runtime::EngineOptions o;
  o.exec_mode = mode;
  o.sim_threads = 0;
  o.executor = pool;
  o.telemetry = tel;
  return o;
}

/// BFS runs from this many seeded sources per round, so most of a run's
/// queries are the traversals that reconfigure the hardware.
constexpr std::size_t kSources = 4;
/// Rounds per timed run at least: 40 queries, so the tail rule always
/// lands on the same rung (p75).
constexpr std::size_t kMinRounds = 8;
/// Each round of a timed run traverses from its own seeded sources (the
/// slices of one pool, reused after this many rounds), so the service
/// percentiles sample many sources rather than the slowest of four.
constexpr std::size_t kSourceRounds = 32;

std::vector<cs::Index> round_sources(const std::vector<cs::Index>& pool,
                                     std::size_t round) {
  const auto first = pool.begin() + static_cast<std::ptrdiff_t>(
                                        (round % kSourceRounds) * kSources);
  return {first, first + kSources};
}

struct SimRound {
  double wall_s = 0.0;
  cs::Cycles cycles = 0;
  std::string digest;  ///< functional: BFS levels + PageRank ranks
  std::array<std::uint32_t, 2> iterations{};  ///< BFS (summed), PageRank
  std::vector<double> ms;                     ///< wall time of each query
};

/// BFS from every source, then PageRank, on `eng`; with an enabled log and
/// a telemetry, each algorithm span holds the engine iteration time
/// (aggregate runtime child), which holds the tile-phase time (aggregate
/// sim child).
SimRound run_round(cs::runtime::Engine& eng, const cs::sparse::Graph& g,
                   const std::vector<cs::Index>& sources, SpanLog& log,
                   const cs::obs::Telemetry* tel) {
  SimRound r;
  const cs::Cycles c0 = eng.total_cycles();
  const double t0 = now_s();
  cs::Digest d;
  const auto one = [&](cs::serve::Algo algo, cs::Index source) {
    const bool bfs = algo == cs::serve::Algo::kBfs;
    const double iter0 = tel ? hist_sum(*tel, "engine.iteration_ms") : 0.0;
    const double phase0 = tel ? hist_sum(*tel, "sim.phase_ms") : 0.0;
    const SpanLog::Scope span(log, bfs ? "graph.bfs" : "graph.pagerank");
    const double a0 = now_s();
    const AlgoRun run =
        run_algo(eng, g, algo, source, bfs ? 0 : kPagerankIterations, 0);
    r.ms.push_back((now_s() - a0) * 1e3);
    r.iterations[bfs ? 0 : 1] += run.iterations;
    d.update_u64(std::stoull(run.digest, nullptr, 16));
    if (tel != nullptr) {
      const std::int64_t rt = log.add_aggregate(
          "runtime.spmv", span.id(),
          hist_sum(*tel, "engine.iteration_ms") - iter0);
      log.add_aggregate("sim.tiles", rt,
                        hist_sum(*tel, "sim.phase_ms") - phase0);
    }
  };
  for (const cs::Index source : sources) one(cs::serve::Algo::kBfs, source);
  one(cs::serve::Algo::kPagerank, 0);
  r.wall_s = now_s() - t0;
  r.cycles = eng.total_cycles() - c0;
  r.digest = d.hex();
  return r;
}

/// A fresh engine per round: caches start cold, so cycles repeat exactly.
SimRound fresh_round(const cs::sparse::Graph& g,
                     const std::vector<cs::Index>& sources,
                     cs::native::ExecMode mode,
                     cs::sim::ParallelExecutor* pool) {
  cs::runtime::Engine eng(g.adjacency(), system_64x4(),
                          sim_options(mode, pool));
  SpanLog off(false);
  return run_round(eng, g, sources, off, nullptr);
}

void verify(Result& res, const SimRound& r, const SimRound& ref,
            const std::string& what) {
  ++res.attempted;
  res.expect(r.cycles == ref.cycles,
             what + ": sim_cycles " + std::to_string(r.cycles) + " vs " +
                 std::to_string(ref.cycles));
  res.expect(r.digest == ref.digest, what + ": functional digest " +
                                           r.digest + " vs " + ref.digest);
}

void traced_run(Result& res, const Options& opts) {
  const cs::sparse::DatasetRegistry registry;
  SpanLog log(true);
  const double t0 = log.now_ms();
  cs::sparse::Graph g;
  {
    const SpanLog::Scope s(log, "sparse.generate");
    g = registry.load(kDataset, kScale, kDatasetSeed);
  }
  res.set("sparse.generate_ms", log.spans().back().duration_ms());
  cs::sim::ParallelExecutor pool(kHostThreads);
  cs::obs::Telemetry tel;
  std::unique_ptr<cs::runtime::Engine> eng;
  {
    const SpanLog::Scope s(log, "runtime.engine_build");
    eng = std::make_unique<cs::runtime::Engine>(
        g.adjacency(), system_64x4(),
        sim_options(cs::native::ExecMode::kSim, &pool, &tel));
  }
  res.set("runtime.engine_build_ms", log.spans().back().duration_ms());
  const std::vector<cs::Index> sources = pick_sources(g, opts.seed, kSources);
  const cs::sim::Stats s0 = eng->machine().stats();
  const double e0 = eng->total_energy_pj();
  const SimRound traced = run_round(*eng, g, sources, log, &tel);
  const double t1 = log.now_ms();
  set_span_metrics(res, log, t0, t1, {"sparse", "runtime", "graph", "sim"});

  const cs::sim::Stats st = eng->machine().stats() - s0;
  const double replay = hist_sum(tel, "sim.replay_ms");
  res.set("sim.cycles", static_cast<double>(traced.cycles));
  res.set("sim.host_ns_per_cycle",
          traced.wall_s * 1e9 / static_cast<double>(traced.cycles));
  res.set("sim.log_fill_ms", hist_sum(tel, "sim.phase_ms") - replay);
  res.set("sim.replay_ms", replay);
  res.set("sim.l1_hit_ratio", st.l1_hit_rate());
  res.set("sim.l2_hit_ratio", st.l2_hit_rate());
  res.set("sim.dram_bytes",
          static_cast<double>(st.dram_read_bytes + st.dram_write_bytes));
  res.set("sim.xbar_transfers", static_cast<double>(st.xbar_transfers));
  res.set("sim.pe_mem_stall_cycles", st.pe_mem_stall_cycles);
  res.set("sim.reconfigurations", static_cast<double>(st.reconfigurations));
  res.set("sim.energy_pj", eng->total_energy_pj() - e0);
  const EngineCounts counts = engine_counts(*eng);
  res.set("runtime.frontier_conversions",
          static_cast<double>(counts.conversions));
  res.set("runtime.sw_switches", static_cast<double>(counts.sw_switches));
  res.set("runtime.hw_switches", static_cast<double>(counts.hw_switches));
  set_regret(res, audit_regret(eng->audit()));
  res.set("graph.bfs_iterations", traced.iterations[0]);
  res.set("graph.pagerank_iterations", traced.iterations[1]);
  double traced_query_ms = 0.0;
  for (const double ms : traced.ms) traced_query_ms += ms;
  res.set("graph.apply_ms", traced_query_ms -
                                hist_sum(tel, "engine.iteration_ms"));
  eng.reset();

  // The same round untraced: no span log, no telemetry.
  const SimRound plain =
      fresh_round(g, sources, cs::native::ExecMode::kSim, &pool);
  res.set("obs.trace_overhead_pct",
          100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s);
  verify(res, traced, plain, "traced round");
  check_pinned(opts, res, "sim_cycles", std::to_string(traced.cycles));
  check_pinned(opts, res, "functional_digest", traced.digest);
}

}  // namespace

Result run_sim_cycle(const Options& opts) {
  Result res;
  res.info["exec_mode"] = "sim";
  res.info["sim_threads"] = kHostThreads;
  res.info["system"] = system_64x4().name();
  res.info["dataset"] = kDataset;
  res.info["scale"] = kScale;
  res.info["pagerank_iterations"] = kPagerankIterations;
  if (opts.trace) {
    traced_run(res, opts);
    return res;
  }

  const cs::sparse::DatasetRegistry registry;
  cs::sim::ParallelExecutor pool(kHostThreads);
  std::vector<double> setups;
  cs::sparse::Graph g;
  for (int i = 0; i < 9; ++i) {
    const double t0 = now_s();
    g = registry.load(kDataset, kScale, kDatasetSeed);
    const cs::runtime::Engine eng(
        g.adjacency(), system_64x4(),
        sim_options(cs::native::ExecMode::kSim, &pool));
    setups.push_back(now_s() - t0);
  }
  res.set("setup_s", median(setups));
  const std::vector<cs::Index> source_pool =
      pick_sources(g, opts.seed, kSources * kSourceRounds);
  res.info["vertices"] = g.num_vertices();
  res.info["edges"] = static_cast<std::uint64_t>(g.num_edges());

  std::vector<SimRound> rounds;
  std::vector<double> query_ms, rps;
  const double t_end = now_s() + opts.seconds;
  while (rounds.size() < kMinRounds || now_s() < t_end) {
    rounds.push_back(fresh_round(g, round_sources(source_pool, rounds.size()),
                                 cs::native::ExecMode::kSim, &pool));
    const SimRound& r = rounds.back();
    query_ms.insert(query_ms.end(), r.ms.begin(), r.ms.end());
    rps.push_back(static_cast<double>(r.ms.size()) / r.wall_s);
  }
  const Tail tail = tail_percentile(query_ms);
  res.set("throughput_rps", median(rps));
  res.set("service_p50_ms", percentile(query_ms, 50.0));
  res.set("service_tail_ms", tail.value);
  res.set("peak_rss_mb", peak_rss_mb());
  res.info["service_tail_percentile"] = tail.percentile;
  res.info["service_tail_beyond"] = static_cast<std::uint64_t>(tail.beyond);

  // In-run references: every round's outputs must equal the native
  // backend's on the same sources, and the serial simulator must give the
  // first round's cycles and outputs.
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    SimRound native = fresh_round(g, round_sources(source_pool, i),
                                  cs::native::ExecMode::kNative, nullptr);
    native.cycles = rounds[i].cycles;  // no cycle model in native mode
    verify(res, rounds[i], native, "round " + std::to_string(i) +
                                       " against the native backend");
  }
  const std::vector<cs::Index> sources = round_sources(source_pool, 0);
  verify(res, fresh_round(g, sources, cs::native::ExecMode::kSim, nullptr),
         rounds.front(), "serial simulation");
  check_pinned(opts, res, "sim_cycles", std::to_string(rounds.front().cycles));
  check_pinned(opts, res, "functional_digest", rounds.front().digest);
  res.info["sources"] = cs::Json::array();
  for (const cs::Index v : sources) res.info["sources"].push_back(v);
  res.info["sim_cycles"] = std::to_string(rounds.front().cycles);
  res.info["functional_digest"] = rounds.front().digest;
  res.info["rounds"] = static_cast<std::uint64_t>(rounds.size());
  return res;
}

}  // namespace perfbench
