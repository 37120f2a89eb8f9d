// The solver workloads (k2000-sync, qasp-bulk): repeated trials of the
// registry "dabs" solver on a registry instance, driven only through
// Solver::solve(SolveRequest) and read back only through SolveReport.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <random>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "problems/problem_registry.hpp"
#include "problems/standard_problems.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dabs::Energy;

constexpr double kInf = std::numeric_limits<double>::infinity();

dabs::SolverOptions to_options(const std::map<std::string, std::string>& m) {
  dabs::SolverOptions o;
  for (const auto& [k, v] : m) o.set(k, v);
  return o;
}

/// Solver options per workload.  k2000-sync takes the registry defaults
/// (synchronous, one thread).  qasp-bulk takes the 64-replica fast path:
/// one island whose host thread feeds one bulk block, two busy threads in
/// all.  One block, because with two the three busy threads share a few
/// cores with whatever else runs on the host, and a pass's fill (so its
/// batches per second) follows the scheduler: three more busy processes
/// on a 4-core host cut two-block throughput by 30 % but left one block
/// unchanged.  A single island, because with two or more the threaded
/// engine can select from a neighbour's pool while a ring restart has it
/// empty, which kills the process (see the README's known faults).
std::map<std::string, std::string> solver_options_for(
    const std::string& workload) {
  if (workload != "qasp-bulk") return {};
  return {{"replicas", "64"}, {"islands", "1"}, {"blocks", "1"}};
}

std::size_t device_workers(const std::map<std::string, std::string>& opts) {
  const auto islands = opts.find("islands");
  const auto blocks = opts.find("blocks");
  if (islands == opts.end() || blocks == opts.end()) return 0;  // synchronous
  return std::stoul(islands->second) * std::stoul(blocks->second);
}

struct Setup {
  std::shared_ptr<const dabs::Problem> problem;
  dabs::QuboModel model;
  std::unique_ptr<dabs::Solver> solver;
  double setup_s = 0.0;
};

Setup build(const Reference& ref,
            const std::map<std::string, std::string>& solver_opts) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.problem =
      dabs::ProblemRegistry::global().create(ref.problem, to_options(ref.params));
  s.model = s.problem->encode();
  s.solver = dabs::SolverRegistry::global().create("dabs",
                                                   to_options(solver_opts));
  s.setup_s = seconds_between(t0, Clock::now());
  return s;
}

/// Records, on the benchmark's clock, when the solve first reached the
/// stated target and when it reached its stop energy.  Threaded solvers
/// call back from any host thread.
class TrialObserver final : public dabs::ProgressObserver {
 public:
  TrialObserver(Energy target, Energy stop_energy)
      : target_(target), stop_energy_(stop_energy) {}

  void on_new_best(const dabs::ProgressEvent& event) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(mu_);
    if (!target_hit && event.best_energy <= target_) {
      target_hit = true;
      target_at = now;
      work_at_target = event.work;
    }
    if (!stop_hit && event.best_energy <= stop_energy_) {
      stop_hit = true;
      stop_at = now;
    }
  }

  std::mutex mu_;
  bool target_hit = false;
  bool stop_hit = false;
  Clock::time_point target_at;
  Clock::time_point stop_at;
  std::uint64_t work_at_target = 0;

 private:
  Energy target_;
  Energy stop_energy_;
};

struct Trial {
  std::uint64_t seed = 0;
  bool ok = false;
  double wall_s = 0.0;
  double tts_s = kInf;  // time to the stated target; inf = missed
  std::uint64_t batches = 0;
  std::uint64_t batches_at_target = 0;
  bool best_known_hit = false;
  double overshoot_s = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
};

std::uint64_t extra_u64(const dabs::SolveReport& report,
                        const std::string& key) {
  const auto it = report.extras.find(key);
  return it == report.extras.end() ? 0 : std::stoull(it->second);
}

/// Checks one report against computations made apart from the solver.
bool check_report(const Setup& s, const Reference& ref, Energy stop_energy,
                  const dabs::SolveReport& report, RunResult& out) {
  const std::string where = ref.workload + " trial: ";
  if (report.best_solution.size() != s.model.size()) {
    out.check(false, where + "solution length differs from the model");
    return false;
  }
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    out.check(cond, where + what);
    ok = ok && cond;
  };
  const Energy e = evaluate_energy(s.model, report.best_solution);
  expect(e == report.best_energy,
         "re-evaluated energy " + std::to_string(e) +
             " differs from best_energy " +
             std::to_string(report.best_energy));
  expect(report.reached_target == (e <= stop_energy),
         "reached_target disagrees with the energy");
  const dabs::DomainSolution sol = s.problem->decode(report.best_solution);
  const dabs::VerifyResult verdict =
      s.problem->verify(report.best_solution, e);
  expect(sol.feasible && verdict.ok, "decode/verify rejected the solution");
  if (const auto* mc =
          dynamic_cast<const dabs::problems::MaxCutProblem*>(s.problem.get())) {
    expect(sol.objective == -e, "MaxCut objective is not -energy");
    expect(cut_weight(mc->instance(), report.best_solution) == -e,
           "recomputed cut is not -energy");
  } else if (const auto* q = dynamic_cast<const dabs::problems::QaspProblem*>(
                 s.problem.get())) {
    expect(sol.objective == e + q->instance().offset,
           "QASP objective is not energy + offset");
  }
  if (e < ref.best_known) {
    std::cerr << "perfbench: " << ref.workload << " found energy " << e
              << " below the stored best-known " << ref.best_known
              << "; run derive-refs\n";
  }
  return ok;
}

Trial run_trial(const Setup& s, const Reference& ref, std::uint64_t seed,
                Energy stop_energy, Tracer& tracer, std::uint64_t op_id,
                RunResult& out) {
  TrialObserver observer(ref.target, stop_energy);
  dabs::SolveRequest request;
  request.model = &s.model;
  request.stop.target_energy = stop_energy;
  request.stop.time_limit_seconds = ref.limit_seconds;
  request.seed = seed;
  request.observer = &observer;

  const double span_start = tracer.now();
  const Clock::time_point t0 = Clock::now();
  const dabs::SolveReport report = s.solver->solve(request);
  const Clock::time_point t1 = Clock::now();
  const std::int64_t solve_span =
      tracer.record("core.solve", span_start, tracer.now(), op_id);

  Trial t;
  t.seed = seed;
  t.wall_s = seconds_between(t0, t1);
  t.batches = report.batches;
  t.generated = extra_u64(report, "packets_generated");
  t.accepted = extra_u64(report, "packets_accepted");
  {
    std::lock_guard lock(observer.mu_);
    if (observer.target_hit) {
      t.tts_s = seconds_between(t0, observer.target_at);
      t.batches_at_target = observer.work_at_target;
      tracer.record("core.target_hit", span_start + t.tts_s,
                    span_start + t.tts_s, op_id, solve_span);
    }
    // Stop overshoot: return minus the moment the stop energy was hit,
    // or minus the limit when it never was.
    t.overshoot_s = observer.stop_hit
                        ? seconds_between(observer.stop_at, t1)
                        : t.wall_s - ref.limit_seconds;
  }
  t.ok = check_report(s, ref, stop_energy, report, out);
  t.best_known_hit = t.ok && report.best_energy <= ref.best_known;
  return t;
}

struct LoopStats {
  std::vector<Trial> trials;
  /// Index one past each round's last trial, and each round's duration.
  std::vector<std::size_t> round_end;
  std::vector<double> round_s;
  double phase_s = 0.0;
  std::uint64_t failed = 0;

  /// Throughputs are medians over rounds, so a burst of interference
  /// from outside the process moves them less than a whole-run mean.
  double batches_per_s() const {
    std::vector<double> rates;
    std::size_t begin = 0;
    for (const std::size_t end : round_end) {
      double batches = 0.0;
      double wall = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        batches += static_cast<double>(trials[i].batches);
        wall += trials[i].wall_s;
      }
      rates.push_back(batches / wall);
      begin = end;
    }
    return median(rates);
  }
  double trials_per_s() const {
    std::vector<double> rates;
    std::size_t begin = 0;
    for (std::size_t r = 0; r < round_end.size(); ++r) {
      rates.push_back(static_cast<double>(round_end[r] - begin) / round_s[r]);
      begin = round_end[r];
    }
    return median(rates);
  }
  /// Median over the trial seeds of each seed's median across the run's
  /// rounds: every seed weighs the same, and one slow trial moves only
  /// its own seed's value.
  double per_seed_median(double Trial::*field) const {
    std::map<std::uint64_t, std::vector<double>> by_seed;
    for (const Trial& t : trials) by_seed[t.seed].push_back(t.*field);
    std::vector<double> medians;
    for (const auto& [seed, values] : by_seed) medians.push_back(median(values));
    return median(medians);
  }
  std::vector<double> column(double Trial::*field) const {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(t.*field);
    return v;
  }
};

/// Whole rounds over the fixed trial seeds, in an order drawn from the
/// run's seed, until `seconds` have passed.
LoopStats run_trials(const Setup& s, const Reference& ref,
                     Energy stop_energy, std::uint64_t order_seed,
                     double seconds, Tracer& tracer, std::uint64_t& next_op,
                     RunResult& out) {
  std::mt19937_64 order(order_seed);
  LoopStats stats;
  const Clock::time_point start = Clock::now();
  do {
    std::vector<std::uint64_t> round = ref.trial_seeds;
    std::shuffle(round.begin(), round.end(), order);
    const Clock::time_point round_start = Clock::now();
    for (const std::uint64_t seed : round) {
      Trial t = run_trial(s, ref, seed, stop_energy, tracer, next_op++, out);
      if (!t.ok) ++stats.failed;
      stats.trials.push_back(t);
    }
    stats.round_end.push_back(stats.trials.size());
    stats.round_s.push_back(seconds_between(round_start, Clock::now()));
  } while (seconds_between(start, Clock::now()) < seconds);
  stats.phase_s = seconds_between(start, Clock::now());
  return stats;
}

/// The trial request as an HTTP job body, for the traced run's service
/// probe.
JobPlan job_plan(const Reference& ref,
                 std::shared_ptr<const dabs::Problem> problem,
                 const std::map<std::string, std::string>& solver_opts,
                 Energy stop_energy, std::uint64_t seed) {
  std::string params;
  for (const auto& [k, v] : ref.params) {
    params += (params.empty() ? "" : ", ") + ("\"" + k + "\": " + v);
  }
  std::string options;
  for (const auto& [k, v] : solver_opts) {
    options += (options.empty() ? "" : ", ") + ("\"" + k + "\": " + v);
  }
  JobPlan plan;
  plan.problem = problem;
  plan.has_target = true;
  plan.target = stop_energy;
  plan.body = "{\"problem\": \"" + ref.problem + "\", \"params\": {" +
              params + "}, \"solver\": \"dabs\", \"options\": {" + options +
              "}, \"target\": " + std::to_string(stop_energy) +
              ", \"time_limit\": " + format_number(ref.limit_seconds) +
              ", \"seed\": " + std::to_string(seed) + "}";
  return plan;
}

}  // namespace

RunResult run_solver_workload(const RunOptions& opts, const Reference& ref) {
  RunResult out;
  const std::map<std::string, std::string> solver_opts =
      solver_options_for(opts.workload);
  // Trials stop at the stated target, except that traced qasp-bulk trials
  // run on to the best-known (up to the limit) for
  // core.best_known_hit_ratio.  Untraced trials do not: how many of a
  // run's trials end at the limit varies from run to run, which would
  // swamp every end-to-end metric.
  const Energy stop_energy = opts.workload == "qasp-bulk" && opts.trace
                                 ? ref.best_known
                                 : ref.target;

  std::vector<double> setups;
  Setup s;
  do {
    s = build(ref, solver_opts);
    setups.push_back(s.setup_s);
  } while (want_another_setup(setups));

  // The stored reference must hold under the benchmark's own evaluator.
  const dabs::BitVector known =
      dabs::BitVector::from_string(ref.best_known_bits);
  out.check(known.size() == s.model.size() &&
                evaluate_energy(s.model, known) == ref.best_known,
            ref.workload + ": stored best-known bits do not evaluate to " +
                std::to_string(ref.best_known));

  std::cout << "# " << ref.workload << ": " << s.problem->describe() << "; "
            << s.model.describe() << "\n# target " << ref.target << " ("
            << ref.target_note << "), best-known " << ref.best_known
            << ", limit " << ref.limit_seconds << " s, "
            << ref.trial_seeds.size() << " trial seeds, dabs options {";
  for (const auto& [k, v] : solver_opts) std::cout << " " << k << "=" << v;
  std::cout << " }\n";

  std::uint64_t op = 0;
  Tracer off(false);
  if (!opts.trace) {
    const LoopStats loop = run_trials(s, ref, stop_energy, opts.seed,
                                      opts.seconds, off, op, out);
    out.attempted = loop.trials.size();
    out.failed = loop.failed;
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("tts_s", loop.per_seed_median(&Trial::tts_s), "s");
    out.add("batches_per_s", loop.batches_per_s(), "1/s");
    out.add("jobs_per_s", loop.trials_per_s(), "1/s");
    out.add("job_latency_p50_ms", 1e3 * loop.per_seed_median(&Trial::wall_s),
            "ms");
    std::size_t missed = 0;
    for (const Trial& t : loop.trials) missed += std::isinf(t.tts_s) ? 1 : 0;
    std::cout << "# trials " << loop.trials.size() << " (missed target "
              << missed << "), phase " << loop.phase_s << " s\n";
    return out;
  }

  // Traced run: layer probes, the trial loop untraced then traced, and the
  // same trials served over HTTP.
  Tracer tracer(true);
  const LayerCosts costs = probe_layers(*s.problem, s.model, opts.seed,
                                        tracer, out);
  const LoopStats plain = run_trials(s, ref, stop_energy, opts.seed,
                                     opts.seconds / 2, off, op, out);
  const LoopStats traced = run_trials(s, ref, stop_energy, opts.seed + 1,
                                      opts.seconds / 2, tracer, op, out);

  const std::shared_ptr<const dabs::Problem> problem = s.problem;
  std::vector<JobPlan> poll;
  std::vector<JobPlan> follow;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t seed = ref.trial_seeds[i % ref.trial_seeds.size()];
    (i % 2 == 0 ? poll : follow)
        .push_back(job_plan(ref, problem, solver_opts, stop_energy, seed));
  }
  const std::uint64_t probe_failed = probe_service(poll, follow, tracer, out);

  out.attempted = plain.trials.size() + traced.trials.size() + poll.size() +
                  follow.size();
  out.failed = plain.failed + traced.failed + probe_failed;

  out.add("core.solve_s", median(tracer.durations("core.solve")), "s");
  std::vector<double> at_target;
  for (const Trial& t : traced.trials) {
    if (!std::isinf(t.tts_s)) {
      at_target.push_back(static_cast<double>(t.batches_at_target));
    }
  }
  out.add("core.batches_to_target", median(at_target), "count");
  out.add("core.stop_overshoot_ms",
          1e3 * median(traced.column(&Trial::overshoot_s)), "ms");
  // Share of solve wall time not covered by the probed per-call costs:
  // synchronous trials spend one batch plus one packet round trip per
  // batch on one thread; threaded bulk trials are charged a 64th of a
  // full bulk pass per batch on each device thread.
  double wall = 0.0;
  double batches = 0.0;
  double hits = 0.0;
  double generated = 0.0;
  double accepted = 0.0;
  for (const Trial& t : traced.trials) {
    wall += t.wall_s;
    batches += static_cast<double>(t.batches);
    hits += t.best_known_hit ? 1.0 : 0.0;
    generated += static_cast<double>(t.generated);
    accepted += static_cast<double>(t.accepted);
  }
  const std::size_t workers = device_workers(solver_opts);
  const double covered =
      workers == 0
          ? batches * (costs.batch_s + costs.next_packet_s + costs.accept_s)
          : batches * costs.bulk_pass_s / 64.0;
  out.add("core.unattributed_frac",
          1.0 - covered / (wall * static_cast<double>(std::max<std::size_t>(
                                      workers, 1))),
          "ratio");
  out.add("core.best_known_hit_ratio",
          hits / static_cast<double>(traced.trials.size()), "ratio");
  out.add("evolve.accept_ratio", accepted / generated, "ratio");
  out.add("bench.trace_overhead_frac",
          (plain.batches_per_s() - traced.batches_per_s()) /
              plain.batches_per_s(),
          "ratio");
  std::cout << "# traced: " << plain.trials.size() << " untraced and "
            << traced.trials.size() << " traced trials, " << tracer.size()
            << " spans\n";
  if (!opts.trace_path.empty()) tracer.write_chrome_json(opts.trace_path);
  return out;
}

int derive_references(const std::string& refs_path, double seconds_each) {
  std::map<std::string, Reference> refs = load_references(refs_path);
  int lowered = 0;
  for (auto& [name, ref] : refs) {
    const Setup s = build(ref, {});
    struct Candidate {
      std::string solver;
      std::map<std::string, std::string> options;
    };
    const std::vector<Candidate> candidates = {
        {"dabs", {}},
        {"dabs", solver_options_for("qasp-bulk")},
        {"tabu", {}},
        {"sa", {}},
    };
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      const Candidate& c = candidates[ci];
      auto solver =
          dabs::SolverRegistry::global().create(c.solver, to_options(c.options));
      dabs::SolveRequest request;
      request.model = &s.model;
      request.stop.time_limit_seconds = seconds_each;
      request.stop.target_energy = ref.best_known - 1;
      request.seed = 0xdab5 + ci;
      const dabs::SolveReport report = solver->solve(request);
      const Energy e = evaluate_energy(s.model, report.best_solution);
      const bool verified = s.problem->verify(report.best_solution, e).ok;
      std::cout << name << ": " << c.solver << " found " << e
                << (verified ? "" : " (failed verify)") << " in "
                << report.elapsed_seconds << " s; stored best-known "
                << ref.best_known << "\n";
      if (verified && e < ref.best_known) {
        ref.best_known = e;
        ref.best_known_bits = report.best_solution.to_string();
        ref.best_known_source = c.solver + " (derive-refs, " +
                                format_number(seconds_each) + " s)";
        ++lowered;
      }
    }
  }
  if (lowered > 0) save_references(refs_path, refs);
  std::cout << "references lowered: " << lowered << "\n";
  return lowered;
}

}  // namespace perfbench
