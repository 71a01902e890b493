#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace perfbench {

namespace {

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t rank_index(std::size_t n, double p) {
  auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (idx > 0) --idx;
  return std::min(idx, n - 1);
}

/// Total length of the union of [a, b) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = -std::numeric_limits<double>::infinity();
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

/// Innermost open span per thread (spans nest within a thread).
thread_local std::vector<std::int64_t> t_open;

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_index(samples.size(), p)];
}

Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond) {
  Tail t;
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t idx = rank_index(n, p);
    const std::size_t beyond = n - 1 - idx;
    if (beyond >= min_beyond) {
      t.percentile = p;
      t.value = samples[idx];
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

Regret regret(const std::vector<std::vector<Candidate>>& invocations) {
  Regret r;
  r.invocations = invocations.size();
  std::uint64_t best_chosen = 0;
  for (const auto& cands : invocations) {
    const Candidate* chosen = nullptr;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (const Candidate& c : cands) {
      if (c.chosen) chosen = &c;
      best = std::min(best, c.est_cycles);
    }
    if (chosen == nullptr || cands.empty() || best == 0) continue;
    ++r.counted;
    const auto chosen_est = static_cast<double>(chosen->est_cycles);
    const auto best_est = static_cast<double>(best);
    r.chosen_est_cycles += chosen_est;
    r.best_est_cycles += best_est;
    r.max_regret_pct =
        std::max(r.max_regret_pct, 100.0 * (chosen_est - best_est) / best_est);
    if (chosen->est_cycles == best) ++best_chosen;
  }
  if (r.counted > 0) {
    r.regret_pct = 100.0 * (r.chosen_est_cycles - r.best_est_cycles) /
                   r.best_est_cycles;
    r.best_choice_frac =
        static_cast<double>(best_chosen) / static_cast<double>(r.counted);
  }
  return r;
}

std::string Span::layer() const { return name.substr(0, name.find('.')); }

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_ns_(steady_ns()) {}

double SpanLog::now_ms() const { return (steady_ns() - origin_ns_) * 1e-6; }

std::int64_t SpanLog::open(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.start_ms = now_ms();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  const double end = now_ms();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ms = end;
}

std::int64_t SpanLog::add_aggregate(const std::string& name,
                                    std::int64_t parent, double ms,
                                    std::uint64_t request) {
  if (!enabled_ || parent < 0) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.aggregate = true;
  s.aggregate_ms = ms;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> timed(spans.size());
  std::vector<double> aggregate(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (s.aggregate) {
      aggregate[p] += s.aggregate_ms;
    } else {
      const Span& ps = spans[p];
      timed[p].emplace_back(std::max(s.start_ms, ps.start_ms),
                            std::min(s.end_ms, ps.end_ms));
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].duration_ms() - union_length(std::move(timed[i])) -
             aggregate[i];
  }
  return out;
}

std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  const std::vector<double> self = self_ms(spans);
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].layer()] += self[i];
  return out;
}

double uncovered_ms(const std::vector<Span>& spans, double t0, double t1) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    if (s.aggregate) continue;
    iv.emplace_back(std::max(s.start_ms, t0), std::min(s.end_ms, t1));
  }
  return std::max(0.0, (t1 - t0) - union_length(std::move(iv)));
}

}  // namespace perfbench
