// Shared helpers of the repository benchmark: the independent output
// checks (energy evaluator, exhaustive optimum, QAP and cut recomputation),
// the statistics the metrics are reported with, the result record printed
// as the run's last line, and the in-memory span recorder of traced runs.
//
// The checks deliberately use only the model's coefficient accessors
// (diag / neighbors / weights) and the raw instance data, never the
// library's own energy or cost routines, so a wrong result cannot be
// confirmed by the code that produced it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "problems/maxcut.hpp"
#include "qubo/qubo_model.hpp"
#include "util/bit_vector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- independent output checks ---------------------------------------------

/// E(x) = sum_i W_ii x_i + sum_{i<j} W_ij x_i x_j by a plain loop over the
/// model's coefficients.
dabs::Energy evaluate_energy(const dabs::QuboModel& model,
                             const dabs::BitVector& x);

/// Minimum of E over all 2^n vectors (Gray-code walk with its own flip
/// deltas).  Throws std::invalid_argument for n > 24.
dabs::Energy exhaustive_minimum(const dabs::QuboModel& model);

/// Total weight of the edges whose endpoints lie on different sides.
dabs::Energy cut_weight(const dabs::problems::MaxCutInstance& inst,
                        const dabs::BitVector& x);

/// True when `p` holds each of 0..p.size()-1 exactly once.
bool is_permutation(const std::vector<std::int64_t>& p);

/// C(g) = sum_{i != i'} flow(i, i') * dist(g(i), g(i')), row-major n x n
/// flow and distance matrices.
dabs::Energy qap_assignment_cost(std::size_t n, const std::vector<int>& flow,
                                 const std::vector<int>& dist,
                                 const std::vector<std::int64_t>& g);

// --- statistics ---------------------------------------------------------------

/// Median (mean of the two middle samples for even counts); NaN when empty.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

/// Nearest-rank percentile p in (0, 1), reported only when at least ten
/// samples lie beyond it (a tail with fewer samples is no tail): nullopt
/// otherwise.
std::optional<double> tail_percentile(std::vector<double> samples, double p);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Set-up is repeated and reported as a median: at least five times and
/// until 1 s has gone into it (at most 1001 times), so a cheap set-up is
/// measured as steadily as an expensive one.
bool want_another_setup(const std::vector<double>& setups);

// --- the run record -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.  Every failed check flips
/// `correct` and is reported on stderr; `attempted`/`failed` count the
/// workload's operations (trials or HTTP jobs).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Throws std::runtime_error for a non-finite value: a metric that could
  /// not be measured must fail the run, not print a placeholder.
  void add(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;
};

/// Shortest round-trip decimal rendering of a double.
std::string format_number(double value);

// --- tracing ------------------------------------------------------------------

/// One layer call recorded by a traced run: its name, start and end on
/// the tracer's clock, the span that caused it (-1 = none), and the trial
/// or job it belongs to.
struct Span {
  std::string name;
  double start = 0.0;
  double end = -1.0;
  std::int64_t parent = -1;
  std::uint64_t op_id = 0;
};

/// In-memory span store.  Disabled tracers record nothing and return -1
/// from open(), so untraced runs pay only a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Seconds since the tracer was created.
  double now() const;

  /// Starts a span now; returns its id (-1 when disabled).
  std::int64_t open(std::string name, std::uint64_t op_id,
                    std::int64_t parent = -1);
  /// Ends span `id` now (no-op for -1).
  void close(std::int64_t id);
  /// Records a finished span with explicit times (no-op when disabled).
  std::int64_t record(std::string name, double start, double end,
                      std::uint64_t op_id, std::int64_t parent = -1);

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations(std::string_view name) const;

  std::size_t size() const;
  /// Chrome trace-event JSON through obs::TraceCollector; false on failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t op_id,
             std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.open(std::move(name), op_id, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
