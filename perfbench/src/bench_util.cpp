#include "bench_util.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {

using dabs::Energy;
using dabs::VarIndex;

Energy evaluate_energy(const dabs::QuboModel& model,
                       const dabs::BitVector& x) {
  if (x.size() != model.size()) {
    throw std::invalid_argument("solution length differs from the model");
  }
  Energy e = 0;
  for (VarIndex i = 0; i < model.size(); ++i) {
    if (!x.get(i)) continue;
    e += model.diag(i);
    const auto cols = model.neighbors(i);
    const auto vals = model.weights(i);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      // Each undirected coupling appears in both rows; count it once.
      if (cols[t] > i && x.get(cols[t])) e += vals[t];
    }
  }
  return e;
}

Energy exhaustive_minimum(const dabs::QuboModel& model) {
  const std::size_t n = model.size();
  if (n > 24) throw std::invalid_argument("exhaustive_minimum: n > 24");
  std::vector<std::uint8_t> x(n, 0);
  // field[k] = W_kk + sum_j W_kj x_j: flipping k changes E by +-field[k].
  std::vector<Energy> field(n);
  for (VarIndex k = 0; k < n; ++k) field[k] = model.diag(k);
  Energy e = 0;
  Energy best = 0;
  const std::uint64_t count = std::uint64_t{1} << n;
  for (std::uint64_t step = 1; step < count; ++step) {
    const auto k = static_cast<VarIndex>(std::countr_zero(step));
    const int sign = x[k] ? -1 : 1;
    e += sign * field[k];
    x[k] ^= 1;
    const auto cols = model.neighbors(k);
    const auto vals = model.weights(k);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      field[cols[t]] += sign * static_cast<Energy>(vals[t]);
    }
    best = std::min(best, e);
  }
  return best;
}

Energy cut_weight(const dabs::problems::MaxCutInstance& inst,
                  const dabs::BitVector& x) {
  Energy cut = 0;
  for (const auto& edge : inst.edges) {
    if (x.get(edge.u) != x.get(edge.v)) cut += edge.w;
  }
  return cut;
}

bool is_permutation(const std::vector<std::int64_t>& p) {
  std::vector<bool> seen(p.size(), false);
  for (const std::int64_t v : p) {
    if (v < 0 || static_cast<std::size_t>(v) >= p.size() || seen[v]) {
      return false;
    }
    seen[v] = true;
  }
  return true;
}

Energy qap_assignment_cost(std::size_t n, const std::vector<int>& flow,
                           const std::vector<int>& dist,
                           const std::vector<std::int64_t>& g) {
  if (g.size() != n || flow.size() != n * n || dist.size() != n * n) {
    throw std::invalid_argument("qap_assignment_cost: size mismatch");
  }
  Energy cost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t i2 = 0; i2 < n; ++i2) {
      if (i == i2) continue;
      cost += Energy{flow[i * n + i2]} *
              dist[static_cast<std::size_t>(g[i]) * n +
                   static_cast<std::size_t>(g[i2])];
    }
  }
  return cost;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::optional<double> tail_percentile(std::vector<double> samples, double p) {
  if (samples.empty() || p <= 0.0 || p >= 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the k-th smallest sample, k = ceil(p n).
  auto k = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n);
  if (n - k < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[k - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and would
  // report the launching interpreter's peak when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool want_another_setup(const std::vector<double>& setups) {
  const double spent = std::accumulate(setups.begin(), setups.end(), 0.0);
  return setups.size() < 5 || (spent < 1.0 && setups.size() < 1001);
}

std::string format_number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

void RunResult::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " could not be measured");
  }
  metrics.push_back({name, value, unit});
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::cerr << "perfbench: check failed: " << what << "\n";
  correct = false;
}

std::string RunResult::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << metrics[i].name
       << "\": {\"value\": " << format_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::now() const { return seconds_between(epoch_, Clock::now()); }

std::int64_t Tracer::open(std::string name, std::uint64_t op_id,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  const double start = now();
  std::lock_guard lock(mu_);
  spans_.push_back({std::move(name), start, -1.0, parent, op_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const double end = now();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::int64_t Tracer::record(std::string name, double start, double end,
                            std::uint64_t op_id, std::int64_t parent) {
  if (!enabled_) return -1;
  std::lock_guard lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, op_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  dabs::obs::TraceCollector collector;
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end < s.start) continue;
      dabs::obs::TraceSpan span;
      span.name = s.name;
      span.category = "perfbench";
      span.pid = 1;
      span.tid = s.op_id;
      span.start_seconds = s.start;
      span.duration_seconds = s.end - s.start;
      span.args = {{"span", std::to_string(i)},
                   {"parent", std::to_string(s.parent)},
                   {"op", std::to_string(s.op_id)}};
      collector.add_span(std::move(span));
    }
  }
  return collector.write_file(path);
}

}  // namespace perfbench
