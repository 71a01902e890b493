// Arithmetic behind the benchmark's ledger, kept free of any workload so
// test_ledger.cpp can pin it down:
//
//   * medians and the tail-percentile rule (the highest percentile that
//     still has at least ten samples beyond it);
//   * decision regret against the audit trail's counterfactual estimates;
//   * an in-memory span log (name, start, end, parent, request id) and the
//     self-time / uncovered-time arithmetic over it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even sizes); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// Value at percentile `p` by the sorted-index rule ceil(p/100 * n) - 1,
/// the rule serve::latency_percentile_us uses. 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

struct Tail {
  double percentile = 0.0;  ///< e.g. 95 for p95; 0 when no rung qualifies
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly above the percentile's rank
};

/// The highest rung of {99.9, 99.5, 99, 98, 95, 90, 75, 50} whose rank
/// leaves at least `min_beyond` samples above it. With fewer than
/// min_beyond + 1 samples no rung qualifies and percentile stays 0.
[[nodiscard]] Tail tail_percentile(std::vector<double> samples,
                                   std::size_t min_beyond = 10);

/// One candidate configuration of one decision: its estimated cycles and
/// whether the decision tree chose it.
struct Candidate {
  std::uint64_t est_cycles = 0;
  bool chosen = false;
};

/// Regret of the chosen configurations against the best estimate of each
/// invocation. Ratios carry their base: `counted` invocations, and the
/// summed chosen vs. best estimates.
struct Regret {
  std::uint64_t invocations = 0;  ///< invocations offered
  std::uint64_t counted = 0;      ///< with a chosen candidate and best > 0
  double chosen_est_cycles = 0.0; ///< sum over counted invocations
  double best_est_cycles = 0.0;   ///< sum over counted invocations
  double regret_pct = 0.0;        ///< 100 * (chosen - best) / best, summed
  double max_regret_pct = 0.0;    ///< worst single invocation
  double best_choice_frac = 0.0;  ///< counted invocations that chose best
};

[[nodiscard]] Regret regret(
    const std::vector<std::vector<Candidate>>& invocations);

/// One span. Timed spans have start/end on the log's clock (ms since the
/// log was created). Aggregate spans are children known only by their
/// summed duration (read from the program's own Telemetry histograms,
/// nested inside their parent by construction); they have no timestamps.
struct Span {
  std::string name;            ///< "<layer>.<what>"
  std::uint64_t request = 0;   ///< shared by the spans of one request
  std::int64_t parent = -1;    ///< index into the log, -1 for roots
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool aggregate = false;
  double aggregate_ms = 0.0;

  [[nodiscard]] double duration_ms() const {
    return aggregate ? aggregate_ms : end_ms - start_ms;
  }
  [[nodiscard]] std::string layer() const;
};

/// Thread-safe in-memory span log. The parent of a span is the innermost
/// span the same thread has open. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_ms() const;

  /// Opens a timed span; returns its index (-1 when disabled).
  std::int64_t open(const std::string& name, std::uint64_t request = 0);
  void close(std::int64_t id);
  /// Records an aggregate child of `parent` (ignored when disabled or
  /// when `parent` is -1); returns its index.
  std::int64_t add_aggregate(const std::string& name, std::int64_t parent,
                             double ms, std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;

  /// RAII timed span.
  class Scope {
   public:
    Scope(SpanLog& log, const std::string& name, std::uint64_t request = 0)
        : log_(log), id_(log.open(name, request)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    SpanLog& log_;
    std::int64_t id_;
  };

 private:
  bool enabled_;
  double origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the part of its interval
/// its timed children cover, minus its aggregate children's durations.
[[nodiscard]] std::vector<double> self_ms(const std::vector<Span>& spans);

/// Self time summed per layer (the name prefix before the first '.').
[[nodiscard]] std::map<std::string, double> layer_self_ms(
    const std::vector<Span>& spans);

/// Length of [t0, t1] that no timed span covers.
[[nodiscard]] double uncovered_ms(const std::vector<Span>& spans, double t0,
                                  double t1);

}  // namespace perfbench
