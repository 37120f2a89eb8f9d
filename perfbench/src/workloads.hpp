// The three workloads of the repository benchmark and the pieces they
// share.  See perfbench/README.md for what each one runs and why.
//
//   k2000-sync  dense K2000 MaxCut, registry-default synchronous dabs,
//               fixed trial seeds, each trial to a stated-accuracy cut
//   qasp-bulk   sparse QASP on Pegasus P(6), threaded 64-replica dabs,
//               fixed trial seeds, each trial to a stated-accuracy energy
//   http-jobs   in-process SolveServer + JobApi, closed-loop polling and
//               following clients over loopback
//
// Untraced runs (--trace 0) measure the end-to-end metrics.  Traced runs
// (--trace 1) probe each layer from outside, run the workload loop once
// untraced and once with spans, and report the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "problems/problem.hpp"
#include "qubo/qubo_model.hpp"
#include "references.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_path;
};

RunResult run_solver_workload(const RunOptions& opts, const Reference& ref);
RunResult run_http_workload(const RunOptions& opts);

/// Long runs of several registry solvers on every solver workload's
/// instance; lowers a stored best-known energy (and its bits) when one of
/// them finds better.  Returns the number of references lowered.
int derive_references(const std::string& refs_path, double seconds_each);

// --- shared by the workloads ----------------------------------------------

/// Per-call costs measured by the layer probes, used to attribute a
/// solve's wall time to layer calls.
struct LayerCosts {
  double batch_s = 0.0;        // one scalar BatchSearch::run, engine mix
  double bulk_pass_s = 0.0;    // one BulkBatchSearch::run over 64 targets
  double next_packet_s = 0.0;  // DiversityEngine::next_packet
  double accept_s = 0.0;       // DiversityEngine::accept_result
};

/// Times the qubo, search, evolve and problems layers from outside on
/// `model` (the encode of `problem`) and adds their per-layer metrics.
LayerCosts probe_layers(const dabs::Problem& problem,
                        const dabs::QuboModel& model, std::uint64_t seed,
                        Tracer& tracer, RunResult& out);

/// One job of the HTTP client loops: the POST body plus what the
/// independent checks need to know about its instance.
struct JobPlan {
  std::string body;
  /// The instance the body names, built by the benchmark for the checks.
  std::shared_ptr<const dabs::Problem> problem;
  /// Exhaustive optimum of the encode, for instances small enough to
  /// enumerate (the reported energy may never lie below it).
  bool has_optimum = false;
  dabs::Energy optimum = 0;
  /// Stop target carried in the body, if any.
  bool has_target = false;
  dabs::Energy target = 0;
};

/// Submits `poll` jobs through a polling client and `follow` jobs through
/// a following client of a fresh in-process server (one service worker),
/// checks every report and adds the service.* and net.* metrics.  Used by
/// the solver workloads' traced runs to show the same instance served over
/// HTTP.  Returns the number of jobs that failed.
std::uint64_t probe_service(const std::vector<JobPlan>& poll,
                            const std::vector<JobPlan>& follow,
                            Tracer& tracer, RunResult& out);

}  // namespace perfbench
