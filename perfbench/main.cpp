// perfbench — the repository benchmark program (one workload per process).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --pinned <pinned.json> [--spans-out <file>]
//   perfbench --list-metrics
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// record: the metrics (end-to-end with --trace 0, per-layer with
// --trace 1), the operations attempted and failed, the reasons for any
// failure, and the workload's own provenance. A traced run writes its
// spans, with their self times, to --spans-out. perfbench/run.py builds
// this program, adds the checkout's provenance, appends the record to the
// results ledger and prints the summary line. Exit code 1 when any output
// check failed, 2 on a usage or environment error.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "common/error.h"
#include "native/simd.h"
#include "workloads.h"

using perfbench::cs::Json;

namespace {

/// Variables that silently change what runs (backend, thread counts, SIMD
/// path, input files, instrumentation); the benchmark refuses them.
constexpr const char* kRefusedEnv[] = {
    "COSPARSE_EXEC_MODE", "COSPARSE_SIM_THREADS", "COSPARSE_NATIVE_SIMD",
    "COSPARSE_DATA_DIR",  "COSPARSE_CACHE_DIR",   "COSPARSE_TELEMETRY",
    "COSPARSE_TRACE",     "COSPARSE_CPU_PROFILE"};

Json list_metrics() {
  Json list = Json::array();
  for (const perfbench::MetricSpec& m : perfbench::metric_specs()) {
    Json o = Json::object();
    o["name"] = m.name;
    o["unit"] = m.unit;
    o["section"] = m.end_to_end ? "end_to_end" : "per_layer";
    Json ws = Json::array();
    for (const perfbench::Workload w : perfbench::all_workloads())
      if ((m.workloads & w) != 0) ws.push_back(perfbench::workload_name(w));
    o["workloads"] = std::move(ws);
    list.push_back(std::move(o));
  }
  Json doc = Json::object();
  doc["metrics"] = std::move(list);
  return doc;
}

/// The printed metrics must be exactly the registry's for this workload
/// and section, each a finite number.
void check_metric_set(const perfbench::Options& opts,
                      const perfbench::Result& r) {
  for (const auto& [name, value] : r.metrics) {
    const perfbench::MetricSpec& m = perfbench::metric_spec(name);
    if (m.end_to_end == opts.trace || (m.workloads & opts.workload) == 0)
      throw perfbench::cs::Error("metric " + name +
                                 " is not registered for this run");
    if (!std::isfinite(value))
      throw perfbench::cs::Error("metric " + name + " is not finite");
  }
  for (const perfbench::MetricSpec& m : perfbench::metric_specs()) {
    if (m.end_to_end != opts.trace && (m.workloads & opts.workload) != 0 &&
        !r.metrics.contains(m.name))
      throw perfbench::cs::Error(std::string("metric ") + m.name +
                                 " was not measured");
  }
}

void write_spans(const std::string& path,
                 const std::vector<perfbench::Span>& spans) {
  const std::vector<double> self = perfbench::self_ms(spans);
  Json list = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    Json o = Json::object();
    o["name"] = s.name;
    o["request"] = s.request;
    o["parent"] = s.parent;
    if (s.aggregate) {
      o["aggregate_ms"] = s.aggregate_ms;
    } else {
      o["start_ms"] = s.start_ms;
      o["end_ms"] = s.end_ms;
    }
    o["self_ms"] = self[i];
    list.push_back(std::move(o));
  }
  Json doc = Json::object();
  doc["spans"] = std::move(list);
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  if (!out) throw perfbench::cs::Error("cannot write spans to " + path);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <serve_poisson|"
               "serve_bursty_evict|graph_native|sim_cycle> --seed <n> "
               "--seconds <s> --trace <0|1> --pinned <file> "
               "[--spans-out <file>]\n"
               "       perfbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false;
  std::string spans_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-metrics") {
        std::cout << list_metrics().dump(1) << "\n";
        return 0;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string val = argv[++i];
      if (arg == "--workload") {
        opts.workload = perfbench::workload_from_name(val);
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opts.trace = val == "1";
      } else if (arg == "--pinned") {
        opts.pinned_path = val;
      } else if (arg == "--spans-out") {
        spans_out = val;
      } else {
        return usage("unknown option " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload) return usage("--workload is required");
  if (opts.pinned_path.empty()) return usage("--pinned is required");
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set: it changes what the benchmark runs\n";
      return 2;
    }
  }

  perfbench::Result r;
  try {
    std::cerr << "perfbench: " << perfbench::workload_name(opts.workload)
              << " seed " << opts.seed << ", " << opts.seconds << " s, "
              << (opts.trace ? "traced" : "untraced") << "\n";
    switch (opts.workload) {
      case perfbench::kServePoisson:
      case perfbench::kServeBurstyEvict:
        r = perfbench::run_serve(opts);
        break;
      case perfbench::kGraphNative:
        r = perfbench::run_graph_native(opts);
        break;
      case perfbench::kSimCycle:
        r = perfbench::run_sim_cycle(opts);
        break;
    }
    check_metric_set(opts, r);
    // A layer this workload does not run reports 0 for each of its
    // metrics, so every run prints its section's full metric list.
    Json idle = Json::array();
    for (const perfbench::MetricSpec& m : perfbench::metric_specs()) {
      if (m.end_to_end != opts.trace && (m.workloads & opts.workload) == 0) {
        r.set(m.name, 0.0);
        idle.push_back(m.name);
      }
    }
    r.info["not_exercised"] = std::move(idle);
    if (opts.trace && !spans_out.empty()) write_spans(spans_out, r.spans);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  Json metrics = Json::object();
  for (const auto& [name, value] : r.metrics) {
    Json m = Json::object();
    m["value"] = value;
    m["unit"] = perfbench::metric_spec(name).unit;
    metrics[name] = std::move(m);
  }
  Json mismatches = Json::array();
  for (const std::string& m : r.mismatches) mismatches.push_back(m);
  Json host = Json::object();
  host["cpu_model"] = perfbench::cs::native::cpu_model_string();
  host["nproc"] = std::thread::hardware_concurrency();
  host["simd"] = perfbench::cs::native::to_string(
      perfbench::cs::native::simd_level());

  Json rec = Json::object();
  rec["workload"] = perfbench::workload_name(opts.workload);
  rec["seed"] = opts.seed;
  rec["seconds"] = opts.seconds;
  rec["trace"] = opts.trace ? 1 : 0;
  rec["correct"] = r.failed == 0;
  rec["attempted"] = r.attempted;
  rec["failed"] = r.failed;
  rec["failed_frac"] =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  rec["mismatches"] = std::move(mismatches);
  rec["metrics"] = std::move(metrics);
  rec["workload_config"] = std::move(r.info);
  rec["host"] = std::move(host);
  for (const std::string& m : r.mismatches)
    std::cerr << "perfbench: MISMATCH " << m << "\n";
  std::cout << rec.dump() << "\n";
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
