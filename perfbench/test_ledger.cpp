// Unit tests of the benchmark's ledger arithmetic (ledger.h). Built and
// run by `python3 perfbench/run.py --self-test`, or by ctest in the
// perfbench build tree. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1 (unsorted on purpose)
}

void test_median_and_percentile() {
  check(near(perfbench::median({}), 0.0), "median of nothing is 0");
  check(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
  // ceil(p/100 * n) - 1 on 1..100: p50 -> 50, p99 -> 99.
  check(near(perfbench::percentile(ramp(100), 50), 50.0), "p50 of 1..100");
  check(near(perfbench::percentile(ramp(100), 99), 99.0), "p99 of 1..100");
}

void test_tail_rule() {
  // 200 samples: p99 leaves 2 beyond, p98 4, p95 exactly 10 -> p95.
  const perfbench::Tail t200 = perfbench::tail_percentile(ramp(200));
  check(near(t200.percentile, 95.0), "200 samples -> p95");
  check(near(t200.value, 190.0), "p95 of 1..200 is 190");
  check(t200.beyond == 10, "p95 of 200 leaves 10 beyond");
  // 1000 samples: p99 leaves 10 beyond.
  const perfbench::Tail t1000 = perfbench::tail_percentile(ramp(1000));
  check(near(t1000.percentile, 99.0), "1000 samples -> p99");
  check(t1000.beyond == 10, "p99 of 1000 leaves 10 beyond");
  // 20000 samples: p99.9 leaves 20 beyond.
  check(near(perfbench::tail_percentile(ramp(20000)).percentile, 99.9),
        "20000 samples -> p99.9");
  // 199 samples: p95 leaves 9 beyond, so the rule falls to p90.
  check(near(perfbench::tail_percentile(ramp(199)).percentile, 90.0),
        "199 samples -> p90");
  // 10 samples cannot have 10 beyond any rank.
  check(near(perfbench::tail_percentile(ramp(10)).percentile, 0.0),
        "10 samples -> no tail");
  check(near(perfbench::tail_percentile(ramp(11)).percentile, 0.0),
        "11 samples: p50 leaves 5 beyond, no rung");
  check(near(perfbench::tail_percentile(ramp(21)).percentile, 50.0),
        "21 samples -> p50 leaves 10 beyond");
}

void test_regret() {
  using perfbench::Candidate;
  // Invocation 1 chose the best (100); invocation 2 chose 150 over 100;
  // invocation 3 has no chosen candidate and is not counted.
  const perfbench::Regret r = perfbench::regret({
      {{100, true}, {200, false}, {300, false}, {400, false}},
      {{150, true}, {100, false}, {120, false}, {400, false}},
      {{10, false}, {20, false}},
  });
  check(r.invocations == 3, "regret: invocations offered");
  check(r.counted == 2, "regret: invocations counted");
  check(near(r.chosen_est_cycles, 250.0), "regret: chosen sum");
  check(near(r.best_est_cycles, 200.0), "regret: best sum");
  check(near(r.regret_pct, 25.0), "regret: 100 * (250 - 200) / 200");
  check(near(r.max_regret_pct, 50.0), "regret: worst invocation 50%");
  check(near(r.best_choice_frac, 0.5), "regret: one of two chose best");
  // A tie with the best counts as the best choice.
  const perfbench::Regret tie =
      perfbench::regret({{{70, true}, {70, false}}});
  check(near(tie.regret_pct, 0.0) && near(tie.best_choice_frac, 1.0),
        "regret: tie is a best choice");
  // Zero-cost best estimates cannot carry a ratio and are skipped.
  const perfbench::Regret zero = perfbench::regret({{{5, true}, {0, false}}});
  check(zero.counted == 0 && near(zero.regret_pct, 0.0),
        "regret: best of 0 is not counted");
}

perfbench::Span timed(const std::string& name, std::int64_t parent,
                      double a, double b) {
  perfbench::Span s;
  s.name = name;
  s.parent = parent;
  s.start_ms = a;
  s.end_ms = b;
  return s;
}

void test_self_time() {
  // serve.batch [0, 10) with children runtime.engine_build [1, 3),
  // graph.bfs [3, 6) and graph.sssp [6, 8) (union [1, 8) = 7 ms);
  // graph.bfs holds a 3 ms aggregate runtime child, which holds a 1 ms
  // aggregate sim child.
  std::vector<perfbench::Span> spans = {
      timed("serve.batch", -1, 0, 10),
      timed("runtime.engine_build", 0, 1, 3),
      timed("graph.bfs", 0, 3, 6),
      timed("graph.sssp", 0, 6, 8),
  };
  perfbench::Span agg;
  agg.name = "runtime.spmv";
  agg.parent = 2;
  agg.aggregate = true;
  agg.aggregate_ms = 3;
  spans.push_back(agg);
  agg.name = "sim.tiles";
  agg.parent = 4;
  agg.aggregate_ms = 1;
  spans.push_back(agg);

  const std::vector<double> self = perfbench::self_ms(spans);
  check(near(self[0], 3.0), "self: batch 10 - union 7");
  check(near(self[1], 2.0), "self: leaf span is its duration");
  check(near(self[2], 0.0), "self: bfs 3 - aggregate 3");
  check(near(self[3], 2.0), "self: sssp has no children");
  check(near(self[4], 2.0), "self: aggregate 3 - nested aggregate 1");
  check(near(self[5], 1.0), "self: innermost aggregate");

  const auto layers = perfbench::layer_self_ms(spans);
  check(near(layers.at("serve"), 3.0), "layer self: serve");
  check(near(layers.at("runtime"), 4.0), "layer self: runtime 2 + 2");
  check(near(layers.at("graph"), 2.0), "layer self: graph 0 + 2");
  check(near(layers.at("sim"), 1.0), "layer self: sim");
  double sum = 0.0;
  for (const auto& [layer, ms] : layers) sum += ms;
  check(near(sum, 10.0), "layer self times add up to the root span");

  // Two more roots on other threads, [12, 14) and [13, 16), overlap:
  // their union is 4 ms, leaving [10, 12) and [16, 20) uncovered.
  spans.push_back(timed("serve.batch", -1, 12, 14));
  spans.push_back(timed("serve.batch", -1, 13, 16));
  check(near(perfbench::uncovered_ms(spans, 0, 20), 6.0),
        "uncovered: 20 - 10 - 4");

  // SpanLog: nesting by thread, disabled logs record nothing.
  perfbench::SpanLog log(true);
  {
    const perfbench::SpanLog::Scope outer(log, "graph.bfs", 7);
    const perfbench::SpanLog::Scope inner(log, "runtime.spmv", 7);
    log.add_aggregate("sim.tiles", inner.id(), 0.5, 7);
  }
  const auto recorded = log.spans();
  check(recorded.size() == 3, "span log: three spans");
  check(recorded[1].parent == 0 && recorded[2].parent == 1,
        "span log: parents follow nesting");
  check(recorded[0].request == 7 && recorded[0].end_ms >= recorded[1].end_ms,
        "span log: request id and containment");
  perfbench::SpanLog off(false);
  { const perfbench::SpanLog::Scope s(off, "graph.bfs"); }
  check(off.spans().empty(), "disabled span log records nothing");
}

}  // namespace

int main() {
  test_median_and_percentile();
  test_tail_rule();
  test_regret();
  test_self_time();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench ledger tests passed\n";
  return 0;
}
