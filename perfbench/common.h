// Shared pieces of the benchmark program: options, the metric registry
// (the one list BENCHMARK.json mirrors), result bookkeeping, digest
// checks and the small measurement helpers every workload uses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "ledger.h"
#include "runtime/audit.h"
#include "runtime/engine.h"
#include "serve/request.h"
#include "sparse/graph.h"

namespace perfbench {

namespace cs = cosparse;

/// Host threads every workload may use (kernels, simulator, serving).
inline constexpr std::uint32_t kHostThreads = 4;

enum Workload : unsigned {
  kServePoisson = 1u << 0,
  kServeBurstyEvict = 1u << 1,
  kGraphNative = 1u << 2,
  kSimCycle = 1u << 3,
};
inline constexpr unsigned kServe = kServePoisson | kServeBurstyEvict;
inline constexpr unsigned kAll = kServe | kGraphNative | kSimCycle;

[[nodiscard]] const char* workload_name(Workload w);
/// Throws cosparse::Error for unknown names.
[[nodiscard]] Workload workload_from_name(const std::string& name);
[[nodiscard]] const std::vector<Workload>& all_workloads();

struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;     ///< false: per-layer (traced run)
  unsigned workloads;  ///< Workload bits the metric is reported on
};

/// Every metric the benchmark can print. BENCHMARK.json lists the same
/// names and units in the same sections, and adds each one's direction
/// and bound (run.py checks both ways before every run).
[[nodiscard]] const std::vector<MetricSpec>& metric_specs();
[[nodiscard]] const MetricSpec& metric_spec(const std::string& name);

/// Input datasets are the canonical stand-ins (generator seed offset 0);
/// the workload seed draws the queries: traffic, sources, CF init.
inline constexpr std::uint64_t kDatasetSeed = 0;

struct Options {
  Workload workload = kServePoisson;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pinned_path;  ///< pinned digests for the default seed
};

/// What one workload run produces. Metric units come from the registry.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;  ///< operations run
  std::uint64_t failed = 0;     ///< rejected, errored or mismatched
  std::vector<std::string> mismatches;
  cs::Json info = cs::Json::object();  ///< provenance and digests
  std::vector<Span> spans;             ///< traced runs: the traced window

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one failed operation with a reason when `ok` is false.
  void expect(bool ok, const std::string& what);
};

/// Compares `value` with the pinned digest `<workload>.<key>` when the
/// run uses the pinned seed; a missing pinned entry is a mismatch.
void check_pinned(const Options& opts, Result& r, const std::string& key,
                  const std::string& value);

/// Seconds on the steady clock.
[[nodiscard]] double now_s();
[[nodiscard]] double peak_rss_mb();

/// Output of one algorithm run: a digest over every result bit (the
/// digest the serving layer records per request) and its iteration count.
struct AlgoRun {
  std::string digest;
  std::uint32_t iterations = 0;
};

/// Runs one request's algorithm on `eng` exactly as the server does
/// (source reduced modulo the dimension; iterations 0 keeps defaults).
AlgoRun run_algo(cs::runtime::Engine& eng, const cs::sparse::Graph& g,
                 cs::serve::Algo algo, cs::Index source,
                 std::uint32_t iterations, std::uint64_t seed);

/// `count` distinct seeded traversal sources among the top 1% of vertices
/// by out-degree, so every seed starts from the well-connected core.
[[nodiscard]] std::vector<cs::Index> pick_sources(const cs::sparse::Graph& g,
                                                  std::uint64_t seed,
                                                  std::size_t count);

/// Decision regret over every audit record.
[[nodiscard]] Regret audit_regret(const cs::runtime::AuditTrail& audit);

/// Counters over the engine's whole iteration log.
struct EngineCounts {
  std::uint64_t conversions = 0;
  std::uint64_t sw_switches = 0;
  std::uint64_t hw_switches = 0;
};
[[nodiscard]] EngineCounts engine_counts(const cs::runtime::Engine& eng);

/// Sum of a Telemetry histogram (0 when it was never observed).
[[nodiscard]] double hist_sum(const cs::obs::Telemetry& t,
                              const std::string& name);

/// Records the regret metrics and their base under runtime.*.
void set_regret(Result& r, const Regret& g);

/// Records <layer>.self_ms for the given layers and obs.uncovered_frac,
/// and keeps the spans for writing out.
void set_span_metrics(Result& r, const SpanLog& log, double t0_ms,
                      double t1_ms, const std::vector<std::string>& layers);

}  // namespace perfbench
