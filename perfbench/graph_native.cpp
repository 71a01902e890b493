// graph_native: one native runtime::Engine (8x8 system, 4 threads) on the
// pokec stand-in at scale 16, running BFS and SSSP from 8 seeded sources,
// PageRank (20 iterations) and CF. It bypasses serving entirely, so the
// kernels set its pace.
//
// Timed run: set-up (generation + engine build) three times; then rounds
// of the four algorithms for --seconds. A query is one algorithm run:
// throughput is the median over rounds of queries per second, and the
// service percentiles are over every query of the run. Every round's
// output digests must equal a 1-thread reference run and, for the default
// seed, the pinned digests.
//
// Traced run: a STREAM-style triad probe, then one traced round (engine
// iterations read from a Telemetry attached through EngineOptions), then
// a seeded frontier-density ramp that times Engine::spmv against the
// native kernel it chose, called directly on the same frontier.
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.h"
#include "kernels/partition.h"
#include "kernels/region_plan.h"
#include "native/spmv.h"
#include "obs/telemetry.h"
#include "sparse/datasets.h"
#include "sparse/formats.h"
#include "sparse/generate.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr unsigned kScale = 16;
constexpr const char* kDataset = "pokec";
constexpr std::array<cs::serve::Algo, 4> kAlgos = {
    cs::serve::Algo::kBfs, cs::serve::Algo::kSssp, cs::serve::Algo::kPagerank,
    cs::serve::Algo::kCf};
constexpr std::array<double, 7> kDensityRamp = {0.0008, 0.003, 0.03, 0.3,
                                                0.9,    0.02,  0.001};

cs::sim::SystemConfig system_8x8() {
  return cs::sim::SystemConfig::transmuter(8, 8);
}

cs::runtime::EngineOptions native_options(std::uint32_t threads,
                                          cs::obs::Telemetry* tel = nullptr) {
  cs::runtime::EngineOptions o;
  o.exec_mode = cs::native::ExecMode::kNative;
  o.sim_threads = threads;
  o.telemetry = tel;
  return o;
}

/// BFS and SSSP run from this many seeded sources per round.
constexpr std::size_t kSources = 8;

struct Round {
  std::array<std::string, 4> digest;  ///< per algorithm, over all its runs
  std::array<std::uint32_t, 4> iterations{};  ///< summed over its runs
  std::array<std::vector<double>, 4> ms;      ///< wall time of each run
};

/// One round: BFS and SSSP from every source, then PageRank and CF. With
/// an enabled log each run is a graph.<algo> span holding the engine's
/// iteration time as an aggregate runtime.spmv child.
Round run_round(cs::runtime::Engine& eng, const cs::sparse::Graph& g,
                const std::vector<cs::Index>& sources, std::uint64_t seed,
                SpanLog& log, const cs::obs::Telemetry* tel) {
  Round r;
  std::array<cs::Digest, 4> digests;
  const auto one = [&](std::size_t a, cs::Index source) {
    const double iter_before =
        tel == nullptr ? 0.0 : hist_sum(*tel, "engine.iteration_ms");
    const SpanLog::Scope span(
        log, std::string("graph.") + cs::serve::to_string(kAlgos[a]));
    const double t0 = now_s();
    const AlgoRun run = run_algo(eng, g, kAlgos[a], source, 0, seed);
    r.ms[a].push_back((now_s() - t0) * 1e3);
    r.iterations[a] += run.iterations;
    digests[a].update_u64(std::stoull(run.digest, nullptr, 16));
    if (tel != nullptr)
      log.add_aggregate("runtime.spmv", span.id(),
                        hist_sum(*tel, "engine.iteration_ms") - iter_before);
  };
  for (const cs::Index source : sources) {
    one(0, source);
    one(1, source);
  }
  one(2, 0);
  one(3, 0);
  for (std::size_t a = 0; a < kAlgos.size(); ++a) r.digest[a] = digests[a].hex();
  return r;
}

const char* digest_key(std::size_t a) {
  static constexpr std::array<const char*, 4> kKeys = {
      "bfs_digest", "sssp_digest", "pagerank_digest", "cf_digest"};
  return kKeys[a];
}

void verify_round(Result& res, const Round& r, const Round& reference) {
  for (std::size_t a = 0; a < kAlgos.size(); ++a) {
    res.attempted += r.ms[a].size();
    res.expect(r.digest[a] == reference.digest[a],
               std::string(digest_key(a)) + " " + r.digest[a] +
                   " differs from the 1-thread reference " +
                   reference.digest[a]);
  }
}

/// The last-level cache size the host reports (0 when unknown).
std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream size_in(dir + "/size");
    std::ifstream type_in(dir + "/type");
    std::string size, type;
    if (!(size_in >> size) || !(type_in >> type) || type == "Instruction")
      continue;
    std::uint64_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    best = std::max(best, bytes);
  }
  return best;
}

struct Triad {
  double gbps = 0.0;
  std::uint64_t llc_bytes = 0;
  std::uint64_t array_bytes = 0;  ///< all three arrays together
};

/// STREAM-style triad a[i] = b[i] + s * c[i] over arrays at least 4x the
/// last-level cache, on kHostThreads threads; best of five passes,
/// counting 24 bytes per element (two reads, one write).
Triad stream_triad() {
  Triad t;
  t.llc_bytes = llc_bytes();
  const std::uint64_t want =
      std::max<std::uint64_t>(4 * t.llc_bytes, std::uint64_t{64} << 20);
  const std::size_t n = want / (3 * sizeof(double)) + 1;
  t.array_bytes = 3 * n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto chunk = [&](std::uint32_t w, auto&& fn) {
    const std::size_t lo = n * w / kHostThreads;
    const std::size_t hi = n * (w + 1) / kHostThreads;
    fn(lo, hi);
  };
  const auto parallel = [&](auto&& fn) {
    std::vector<std::thread> th;
    for (std::uint32_t w = 0; w < kHostThreads; ++w)
      th.emplace_back([&, w] { chunk(w, fn); });
    for (std::thread& x : th) x.join();
  };
  // First touch on the worker that later streams the same chunk.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best_s = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    best_s = std::min(best_s, now_s() - t0);
  }
  if (a[n / 2] != 7.0) throw cs::Error("stream triad produced wrong values");
  t.gbps = static_cast<double>(t.array_bytes) / best_s / 1e9;
  return t;
}

/// Output digest of one SpMV, in either representation.
std::string spmv_digest(const cs::runtime::Engine::Output& out) {
  cs::Digest d;
  d.update_u64(out.num_touched());
  out.for_each_touched([&d](cs::Index r, cs::Value v) {
    d.update_index(r);
    d.update_value(v);
  });
  return d.hex();
}

/// The density ramp: Engine::spmv against the native kernel it chose.
void density_ramp(Result& res, cs::runtime::Engine& eng,
                  const cs::sparse::Graph& g, std::uint64_t seed,
                  SpanLog& log, double stream_gbps) {
  const cs::sim::SystemConfig cfg = eng.system();
  const cs::Index n = eng.dimension();
  // The engine's resident layouts are private: build the same ones.
  cs::sparse::Coo mt;
  {
    const SpanLog::Scope s(log, "sparse.transpose");
    mt = cs::sparse::transpose(g.adjacency());
  }
  cs::kernels::IpPartitionedMatrix ip_sc, ip_scs;
  cs::kernels::OpStripedMatrix op;
  {
    const SpanLog::Scope s(log, "kernels.partition");
    ip_sc = cs::kernels::IpPartitionedMatrix::build(mt, cfg.num_pes(), 0);
    ip_scs = cs::kernels::IpPartitionedMatrix::build(
        mt, cfg.num_pes(), cs::kernels::default_vblock_cols(cfg));
    op = cs::kernels::OpStripedMatrix::build(mt, cfg.num_tiles);
  }
  const cs::kernels::PlainSpmv sr;
  std::vector<cs::sparse::SparseVector> xs;
  std::vector<cs::kernels::DenseFrontier> dense;
  for (std::size_t i = 0; i < kDensityRamp.size(); ++i) {
    xs.push_back(cs::sparse::random_sparse_vector(
        n, kDensityRamp[i], seed * 1000 + 31 + i));
    dense.push_back(
        cs::kernels::DenseFrontier::from_sparse(xs.back(), sr.vector_identity()));
  }
  constexpr int kReps = 3;
  std::vector<std::vector<double>> eng_ms(xs.size()), ker_ms(xs.size());
  std::vector<bool> pull(xs.size());
  double pull_bytes = 0.0, push_bytes = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double t0 = now_s();
      std::string eng_digest;
      cs::runtime::Decision d;
      {
        const SpanLog::Scope s(log, "runtime.spmv");
        const auto out =
            eng.spmv(cs::runtime::Engine::Frontier::from_sparse(xs[i]), sr);
        eng_ms[i].push_back((now_s() - t0) * 1e3);
        eng_digest = spmv_digest(out);
        d = out.decision;
      }
      pull[i] = d.sw == cs::runtime::SwConfig::kIP;
      cs::runtime::Engine::Output direct;
      direct.dense = pull[i];
      t0 = now_s();
      if (pull[i]) {
        const auto& layout = d.hw == cs::sim::HwConfig::kSCS ? ip_scs : ip_sc;
        const SpanLog::Scope s(log, "native.pull");
        direct.ip = cs::native::pull_spmv(cfg, d.hw, eng.machine().executor(),
                                          layout, dense[i], sr);
      } else {
        const SpanLog::Scope s(log, "native.push");
        direct.op = cs::native::push_spmsv(cfg, d.hw, eng.machine().executor(),
                                           op, xs[i], nullptr, sr);
      }
      ker_ms[i].push_back((now_s() - t0) * 1e3);
      ++res.attempted;
      res.expect(spmv_digest(direct) == eng_digest,
                 "ramp step " + std::to_string(i) +
                     ": direct kernel output differs from Engine::spmv");
      if (rep != 0) continue;
      // Bytes computed from array sizes (not measured by counters).
      if (pull[i]) {
        pull_bytes += static_cast<double>(ip_sc.nnz()) *
                          sizeof(cs::sparse::Triplet) +
                      2.0 * n * (sizeof(cs::Value) + 1);
      } else {
        // Each tile reads the whole frontier (index + value), then its
        // stripe's column pointers and elements of every active column.
        double b = 0.0;
        for (const auto& stripe : op.stripes()) {
          b += static_cast<double>(xs[i].nnz()) * 12.0;
          for (const auto& e : xs[i].entries()) {
            b += 2.0 * sizeof(cs::Offset) +
                 static_cast<double>(stripe.col_end(e.index) -
                                     stripe.col_begin(e.index)) *
                     sizeof(cs::kernels::OpStripedMatrix::Element);
          }
        }
        b += static_cast<double>(direct.op.y.nnz()) * 12.0;  // output
        push_bytes += b;
      }
    }
  }
  double pull_ms = 0.0, push_ms = 0.0, overhead_ms = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double k = median(ker_ms[i]);
    (pull[i] ? pull_ms : push_ms) += k;
    overhead_ms += median(eng_ms[i]) - k;
  }
  const auto gbps = [](double bytes, double ms) {
    return ms > 0.0 ? bytes / (ms * 1e6) : 0.0;
  };
  res.set("runtime.spmv_overhead_ms", overhead_ms);
  res.set("native.pull_ms", pull_ms);
  res.set("native.push_ms", push_ms);
  res.set("native.pull_bytes", pull_bytes);
  res.set("native.push_bytes", push_bytes);
  res.set("native.pull_gbps", gbps(pull_bytes, pull_ms));
  res.set("native.push_gbps", gbps(push_bytes, push_ms));
  res.set("native.pull_stream_frac", gbps(pull_bytes, pull_ms) / stream_gbps);
  res.set("native.push_stream_frac", gbps(push_bytes, push_ms) / stream_gbps);
  res.info["ramp_densities"] = cs::Json::array();
  for (const double dens : kDensityRamp) res.info["ramp_densities"].push_back(dens);
  res.info["native_bytes_note"] = "computed from array sizes";
}

void traced_run(Result& res, const Options& opts) {
  const Triad triad = stream_triad();
  res.set("host.stream_gbps", triad.gbps);
  res.info["stream_llc_bytes"] = triad.llc_bytes;
  res.info["stream_array_bytes"] = triad.array_bytes;
  std::cerr << "perfbench: triad probe " << triad.gbps << " GB/s over "
            << triad.array_bytes / (1u << 20) << " MiB of arrays (LLC "
            << triad.llc_bytes / (1u << 20) << " MiB)\n";

  const cs::sparse::DatasetRegistry registry;
  SpanLog log(true);
  const double t0 = log.now_ms();
  cs::sparse::Graph g;
  {
    const SpanLog::Scope s(log, "sparse.generate");
    g = registry.load(kDataset, kScale, kDatasetSeed);
  }
  res.set("sparse.generate_ms", log.spans().back().duration_ms());
  cs::obs::Telemetry tel;
  std::unique_ptr<cs::runtime::Engine> eng;
  {
    const SpanLog::Scope s(log, "runtime.engine_build");
    eng = std::make_unique<cs::runtime::Engine>(
        g.adjacency(), system_8x8(), native_options(kHostThreads, &tel));
  }
  res.set("runtime.engine_build_ms", log.spans().back().duration_ms());
  const std::vector<cs::Index> sources = pick_sources(g, opts.seed, kSources);

  const double round_t0 = now_s();
  const Round traced = run_round(*eng, g, sources, opts.seed, log, &tel);
  const double traced_ms = (now_s() - round_t0) * 1e3;
  const EngineCounts counts = engine_counts(*eng);
  set_regret(res, audit_regret(eng->audit()));
  res.set("runtime.frontier_conversions", static_cast<double>(counts.conversions));
  res.set("runtime.sw_switches", static_cast<double>(counts.sw_switches));
  res.set("runtime.hw_switches", static_cast<double>(counts.hw_switches));
  static constexpr std::array<const char*, 4> kIterNames = {
      "graph.bfs_iterations", "graph.sssp_iterations",
      "graph.pagerank_iterations", "graph.cf_iterations"};
  for (std::size_t a = 0; a < kAlgos.size(); ++a)
    res.set(kIterNames[a], traced.iterations[a]);
  res.set("graph.apply_ms",
          traced_ms - hist_sum(tel, "engine.iteration_ms"));

  density_ramp(res, *eng, g, opts.seed, log, triad.gbps);
  const double t1 = log.now_ms();
  set_span_metrics(res, log, t0, t1,
                   {"sparse", "kernels", "native", "runtime", "graph"});

  // The same round with the span log off: the tracing overhead.
  SpanLog off(false);
  const double plain_t0 = now_s();
  const Round plain = run_round(*eng, g, sources, opts.seed, off, nullptr);
  const double plain_ms = (now_s() - plain_t0) * 1e3;
  res.set("obs.trace_overhead_pct", 100.0 * (traced_ms - plain_ms) / plain_ms);
  verify_round(res, traced, plain);
  for (std::size_t a = 0; a < kAlgos.size(); ++a)
    check_pinned(opts, res, digest_key(a), traced.digest[a]);
}

}  // namespace

Result run_graph_native(const Options& opts) {
  Result res;
  res.info["exec_mode"] = "native";
  res.info["engine_threads"] = kHostThreads;
  res.info["system"] = system_8x8().name();
  res.info["dataset"] = kDataset;
  res.info["scale"] = kScale;
  if (opts.trace) {
    traced_run(res, opts);
    return res;
  }

  const cs::sparse::DatasetRegistry registry;
  std::vector<double> setups;
  cs::sparse::Graph g;
  std::unique_ptr<cs::runtime::Engine> eng;
  for (int i = 0; i < 3; ++i) {
    eng.reset();
    const double t0 = now_s();
    g = registry.load(kDataset, kScale, kDatasetSeed);
    eng = std::make_unique<cs::runtime::Engine>(g.adjacency(), system_8x8(),
                                                native_options(kHostThreads));
    setups.push_back(now_s() - t0);
  }
  res.set("setup_s", median(setups));
  const std::vector<cs::Index> sources = pick_sources(g, opts.seed, kSources);
  res.info["sources"] = cs::Json::array();
  for (const cs::Index v : sources) res.info["sources"].push_back(v);
  res.info["vertices"] = g.num_vertices();
  res.info["edges"] = static_cast<std::uint64_t>(g.num_edges());

  SpanLog off(false);
  std::vector<double> query_ms, rps;
  std::vector<Round> rounds;
  const double t_end = now_s() + opts.seconds;
  while (rounds.size() < 3 || now_s() < t_end) {
    const double t0 = now_s();
    rounds.push_back(run_round(*eng, g, sources, opts.seed, off, nullptr));
    const double wall_s = now_s() - t0;
    std::size_t queries = 0;
    for (const std::vector<double>& ms : rounds.back().ms) {
      query_ms.insert(query_ms.end(), ms.begin(), ms.end());
      queries += ms.size();
    }
    rps.push_back(static_cast<double>(queries) / wall_s);
  }
  res.set("peak_rss_mb", peak_rss_mb());
  eng.reset();

  // In-run reference: the same round on a 1-thread native engine.
  cs::runtime::Engine ref_eng(g.adjacency(), system_8x8(), native_options(0));
  const Round reference =
      run_round(ref_eng, g, sources, opts.seed, off, nullptr);
  for (const Round& r : rounds) verify_round(res, r, reference);
  for (std::size_t a = 0; a < kAlgos.size(); ++a) {
    check_pinned(opts, res, digest_key(a), reference.digest[a]);
    res.info[digest_key(a)] = reference.digest[a];
  }
  const Tail tail = tail_percentile(query_ms);
  res.set("throughput_rps", median(rps));
  res.set("service_p50_ms", percentile(query_ms, 50.0));
  res.set("service_tail_ms", tail.value);
  res.info["service_tail_percentile"] = tail.percentile;
  res.info["service_tail_beyond"] = static_cast<std::uint64_t>(tail.beyond);
  res.info["rounds"] = static_cast<std::uint64_t>(rounds.size());
  return res;
}

}  // namespace perfbench
