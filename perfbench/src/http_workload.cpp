// The http-jobs workload: an in-process SolveServer over a JobApi with two
// service workers, driven over loopback by closed-loop polling and
// following clients, one thread and connection each.  A poller POSTs a
// job and GETs its status after a fixed pause until it is terminal; a
// follower POSTs, reads the chunked events stream to its end, then GETs
// the report.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "core/solver_registry.hpp"
#include "io/json_reader.hpp"
#include "net/http_client.hpp"
#include "net/job_api.hpp"
#include "net/solve_server.hpp"
#include "problems/problem_registry.hpp"
#include "problems/standard_problems.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dabs::Energy;
using dabs::io::JsonValue;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kServiceWorkers = 2;
/// The poller's pause between status GETs.
constexpr auto kPollPause = std::chrono::microseconds(500);

/// Pollers, and followers, each.  Two of each keep more jobs in flight
/// than the service has workers, so the loop measures service capacity
/// rather than idle wake-ups: with one of each, jobs/s spread by about a
/// quarter between runs on a shared 4-vCPU host, with two of each by a
/// few percent.  The client threads never outnumber the cores.
std::size_t clients_per_role() {
  return std::thread::hardware_concurrency() >= 4 ? 2 : 1;
}

/// The http-jobs model cache budget.  The fresh specs fill it within
/// seconds, after which memory stops growing with the number of jobs
/// served, so peak RSS does not track throughput.
constexpr std::size_t kMixCacheBytes = std::size_t{4} << 20;

/// JobApi + SolveServer on a loopback ephemeral port, served by its own
/// thread until destruction.
class BenchServer {
 public:
  BenchServer(std::size_t workers, std::size_t cache_bytes) {
    dabs::net::JobApi::Config api;
    api.threads = workers;
    api.max_events_per_job = 64;
    api.cache_bytes = cache_bytes;
    backend_ = std::make_unique<dabs::net::JobApi>(api);
    server_ = std::make_unique<dabs::net::SolveServer>(
        dabs::net::SolveServer::Config{}, *backend_);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~BenchServer() {
    server_->stop();
    thread_.join();
  }
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;

  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<dabs::net::JobApi> backend_;
  std::unique_ptr<dabs::net::SolveServer> server_;
  std::thread thread_;
};

/// What one job cost and returned, as the client saw it.
struct JobRecord {
  bool ok = false;
  bool follower = false;
  double latency_s = kNaN;  // POST sent -> terminal report in hand
  double finished_at = kNaN;  // seconds after the client loops started
  double follow_gap_s = kNaN;
  std::size_t requests = 0;
  std::size_t bytes = 0;  // request + response bodies
  double queue_s = kNaN;
  double run_s = kNaN;
  double solve_s = kNaN;
  bool dabs = false;
  std::uint64_t batches = 0;
  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
  bool cache_hit = false;
  bool has_optimum = false;
  bool optimum_hit = false;
};

const std::string& extra(const JsonValue& extras, const std::string& key) {
  static const std::string empty;
  const JsonValue* v = extras.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : empty;
}

double extra_double(const JsonValue& extras, const std::string& key) {
  const std::string& v = extra(extras, key);
  return v.empty() ? kNaN : std::stod(v);
}

/// Checks a terminal status body against the plan's instance and fills
/// the record's report fields.  Returns false (and flags the run) on any
/// mismatch.
bool check_status(const JsonValue& status, const JobPlan& plan,
                  JobRecord& rec, RunResult& out) {
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    out.check(cond, "job " + plan.body + ": " + what);
    ok = ok && cond;
  };
  const JsonValue* state = status.find("state");
  expect(state != nullptr && state->as_string() == "done",
         "ended " + (state ? state->as_string() : std::string("?")));
  const JsonValue* report = status.find("report");
  if (!ok || report == nullptr || report->find("extras") == nullptr) {
    expect(false, "no report");
    return false;
  }
  const JsonValue& extras = *report->find("extras");
  expect(extra(extras, "feasible") == "true", "not feasible");
  expect(extra(extras, "verified") == "true", "not verified");
  const Energy energy = report->find("best_energy")->as_int();
  const std::string& objective_text = extra(extras, "objective");
  expect(!objective_text.empty(), "no objective");
  if (!ok) return false;
  const Energy objective = std::stoll(objective_text);

  const dabs::Problem* problem = plan.problem.get();
  if (dynamic_cast<const dabs::problems::MaxCutProblem*>(problem)) {
    expect(objective == -energy, "MaxCut objective is not -energy");
  } else if (const auto* qap =
                 dynamic_cast<const dabs::problems::QapProblem*>(problem)) {
    std::vector<std::int64_t> g;
    std::istringstream in(extra(extras, "assignment"));
    for (std::int64_t v; in >> v;) g.push_back(v);
    const auto& inst = qap->instance();
    expect(g.size() == inst.n && is_permutation(g),
           "assignment is not a permutation");
    if (!ok) return false;
    const Energy cost =
        qap_assignment_cost(inst.n, inst.flow, inst.dist, g);
    expect(cost == objective, "recomputed assignment cost " +
                                  std::to_string(cost) + " != objective");
    expect(energy == cost - static_cast<Energy>(inst.n) * qap->penalty(),
           "energy is not cost - n * penalty");
  } else if (const auto* qasp =
                 dynamic_cast<const dabs::problems::QaspProblem*>(problem)) {
    expect(objective == energy + qasp->instance().offset,
           "QASP objective is not energy + offset");
  }
  if (plan.has_optimum) {
    expect(energy >= plan.optimum, "energy below the exhaustive optimum");
    rec.has_optimum = true;
    rec.optimum_hit = energy == plan.optimum;
  }
  if (plan.has_target) {
    expect(report->find("reached_target")->as_bool() ==
               (energy <= plan.target),
           "reached_target disagrees with the energy");
  }
  rec.queue_s = extra_double(extras, "queue_seconds");
  rec.run_s = extra_double(extras, "run_seconds");
  rec.solve_s = report->find("elapsed_seconds")->as_double();
  rec.dabs = report->find("solver")->as_string() == "dabs";
  rec.batches = static_cast<std::uint64_t>(report->find("batches")->as_int());
  rec.cache_hit = extra(extras, "model_cache") == "hit";
  if (rec.dabs) {
    rec.generated = static_cast<std::uint64_t>(
        extra_double(extras, "packets_generated"));
    rec.accepted = static_cast<std::uint64_t>(
        extra_double(extras, "packets_accepted"));
  }
  return ok;
}

bool is_terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled" ||
         state == "rejected";
}

/// A status is final once the job is terminal and, when done, its report
/// carries the decode/verify extras.  The server can answer "done" a
/// moment before those are added, so clients poll on until they are.
bool is_final(const JsonValue& status) {
  const JsonValue* state = status.find("state");
  if (state == nullptr) return true;  // an error body; the checks flag it
  if (state->as_string() != "done") return is_terminal(state->as_string());
  const JsonValue* report = status.find("report");
  const JsonValue* extras =
      report != nullptr ? report->find("extras") : nullptr;
  return extras != nullptr && extras->find("verified") != nullptr;
}

/// POSTs the plan; returns the job id, or nullopt after flagging a
/// non-202 reply.
std::optional<std::uint64_t> submit(dabs::net::HttpClient& client,
                                    const JobPlan& plan, JobRecord& rec,
                                    Tracer& tracer, std::uint64_t op,
                                    std::int64_t parent, RunResult& out) {
  const std::int64_t span = tracer.open("net.post", op, parent);
  const auto reply = client.request("POST", "/v1/jobs", plan.body);
  tracer.close(span);
  ++rec.requests;
  rec.bytes += plan.body.size() + reply.body.size();
  out.check(reply.status == 202, "POST returned " +
                                     std::to_string(reply.status) + ": " +
                                     reply.body);
  if (reply.status != 202) return std::nullopt;
  return static_cast<std::uint64_t>(
      dabs::io::parse_json(reply.body).find("job_id")->as_int());
}

JsonValue get_status(dabs::net::HttpClient& client, std::uint64_t id,
                     JobRecord& rec, Tracer& tracer, std::uint64_t op,
                     std::int64_t parent) {
  const std::int64_t span = tracer.open("net.get", op, parent);
  const auto reply = client.request("GET", "/v1/jobs/" + std::to_string(id));
  tracer.close(span);
  ++rec.requests;
  rec.bytes += reply.body.size();
  return dabs::io::parse_json(reply.body);
}

JobRecord poll_job(dabs::net::HttpClient& client, const JobPlan& plan,
                   Tracer& tracer, std::uint64_t op, RunResult& out) {
  JobRecord rec;
  const std::int64_t job_span = tracer.open("net.job", op);
  const Clock::time_point t0 = Clock::now();
  const auto id = submit(client, plan, rec, tracer, op, job_span, out);
  if (id) {
    JsonValue status;
    for (;;) {
      std::this_thread::sleep_for(kPollPause);
      status = get_status(client, *id, rec, tracer, op, job_span);
      if (is_final(status)) break;
    }
    rec.latency_s = seconds_between(t0, Clock::now());
    rec.ok = check_status(status, plan, rec, out);
  }
  tracer.close(job_span);
  return rec;
}

JobRecord follow_job(dabs::net::HttpClient& client, const JobPlan& plan,
                     Tracer& tracer, std::uint64_t op, RunResult& out) {
  JobRecord rec;
  rec.follower = true;
  const std::int64_t job_span = tracer.open("net.job", op);
  const Clock::time_point t0 = Clock::now();
  const auto id = submit(client, plan, rec, tracer, op, job_span, out);
  if (id) {
    Clock::time_point terminal_seen{};
    bool seen = false;
    const std::int64_t span = tracer.open("net.follow", op, job_span);
    const auto reply = client.stream(
        "GET", "/v1/jobs/" + std::to_string(*id) + "/events",
        [&](const std::string& chunk) {
          rec.bytes += chunk.size();
          if (!seen) {
            const JsonValue page = dabs::io::parse_json(chunk);
            const JsonValue* state = page.find("state");
            if (state != nullptr && is_terminal(state->as_string())) {
              seen = true;
              terminal_seen = Clock::now();
            }
          }
          return true;
        });
    tracer.close(span);
    ++rec.requests;
    out.check(reply.status == 200 && seen,
              "events stream ended without a terminal page");
    JsonValue status = get_status(client, *id, rec, tracer, op, job_span);
    while (!is_final(status)) {
      std::this_thread::sleep_for(kPollPause);
      status = get_status(client, *id, rec, tracer, op, job_span);
    }
    rec.latency_s = seconds_between(t0, Clock::now());
    rec.ok = check_status(status, plan, rec, out) && seen;
    if (rec.ok) {
      // Job finished (its total_seconds after submission) until the
      // follower saw the terminal page.
      const double total = extra_double(
          *status.find("report")->find("extras"), "total_seconds");
      rec.follow_gap_s = seconds_between(t0, terminal_seen) - total;
    }
  }
  tracer.close(job_span);
  return rec;
}

// --- the job mix ----------------------------------------------------------------

struct SpecTemplate {
  std::string problem;
  std::map<std::string, std::string> params;
  std::string solver;
  std::uint64_t budget;  // max_batches: batches for dabs, flips otherwise
};

/// Repeated specs: each round submits every one of them once, with the
/// same solver seed, so the server's model cache serves them.
const std::vector<SpecTemplate>& repeated_specs() {
  static const std::vector<SpecTemplate> specs = {
      {"maxcut", {{"n", "16"}, {"m", "40"}, {"seed", "7"}}, "sa", 20000},
      {"qap", {{"kind", "uniform"}, {"n", "4"}, {"seed", "3"}}, "tabu", 20000},
      {"qasp", {{"m", "2"}}, "dabs", 64},
      {"maxcut", {{"n", "64"}, {"m", "400"}, {"seed", "11"}}, "dabs", 64},
      {"qap", {{"kind", "uniform"}, {"n", "6"}, {"seed", "5"}}, "sa", 10000},
      {"qasp", {{"m", "2"}, {"value-seed", "9"}}, "tabu", 8000},
  };
  return specs;
}

/// Fresh specs: each round submits every one of them once with a problem
/// seed never used before in the run, so the server encodes and caches a
/// new model.
const std::vector<SpecTemplate>& fresh_specs() {
  static const std::vector<SpecTemplate> specs = {
      {"maxcut", {{"n", "48"}, {"m", "200"}}, "tabu", 6000},
      {"qap", {{"kind", "uniform"}, {"n", "5"}}, "dabs", 64},
  };
  return specs;
}

constexpr std::size_t kEnumerableBits = 16;

JobPlan make_plan(const SpecTemplate& spec,
                  const std::map<std::string, std::string>& params,
                  std::uint64_t solver_seed) {
  dabs::SolverOptions options;
  std::string json_params;
  for (const auto& [k, v] : params) {
    options.set(k, v);
    const bool numeric = v.find_first_not_of("0123456789") == std::string::npos;
    json_params += (json_params.empty() ? "" : ", ") +
                   ("\"" + k + "\": " + (numeric ? v : "\"" + v + "\""));
  }
  JobPlan plan;
  plan.problem = dabs::ProblemRegistry::global().create(spec.problem, options);
  plan.body = "{\"problem\": \"" + spec.problem + "\", \"params\": {" +
              json_params + "}, \"solver\": \"" + spec.solver +
              "\", \"max_batches\": " + std::to_string(spec.budget) +
              ", \"seed\": " + std::to_string(solver_seed) + "}";
  const dabs::QuboModel model = plan.problem->encode();
  if (model.size() <= kEnumerableBits) {
    plan.has_optimum = true;
    plan.optimum = exhaustive_minimum(model);
  }
  return plan;
}

/// One client's source of jobs: whole rounds of every repeated spec plus
/// every fresh spec, shuffled per round by the run seed.
class JobSource {
 public:
  JobSource(std::vector<JobPlan> repeated, std::uint64_t seed,
            std::uint64_t fresh_base)
      : repeated_(std::move(repeated)), order_(seed), fresh_(fresh_base) {}

  std::vector<JobPlan> next_round() {
    std::vector<JobPlan> round = repeated_;
    for (const SpecTemplate& spec : fresh_specs()) {
      auto params = spec.params;
      params["seed"] = std::to_string(fresh_++);
      round.push_back(make_plan(spec, params, 1));
    }
    std::shuffle(round.begin(), round.end(), order_);
    return round;
  }

 private:
  std::vector<JobPlan> repeated_;
  std::mt19937_64 order_;
  std::uint64_t fresh_;
};

struct LoopStats {
  std::vector<JobRecord> jobs;
  double phase_s = 0.0;

  std::uint64_t failed() const {
    return static_cast<std::uint64_t>(std::count_if(
        jobs.begin(), jobs.end(), [](const JobRecord& r) { return !r.ok; }));
  }
  using Window = std::vector<const JobRecord*>;

  /// `of` evaluated on the jobs finished in each whole one-second window
  /// of the run, then the nearest-rank quantile q over the windows (NaN
  /// values skipped).  The end-to-end figures take the better quartile
  /// boundary, q = 0.75 for rates and 0.25 for latencies: a slow stretch
  /// from outside the process (CPU steal on a shared host) must cover
  /// three quarters of a run to move them, while a slower program moves
  /// every window.
  double window_quantile(double q,
                         const std::function<double(const Window&)>& of) const {
    std::vector<Window> windows(std::max<std::size_t>(
        1, static_cast<std::size_t>(phase_s)));
    for (const JobRecord& r : jobs) {
      const auto w = static_cast<std::size_t>(r.finished_at);
      if (w < windows.size()) windows[w].push_back(&r);
    }
    std::vector<double> values;
    for (const Window& w : windows) {
      const double v = of(w);
      if (!std::isnan(v)) values.push_back(v);
    }
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(k, 1, values.size()) - 1];
  }
  double jobs_per_s() const {
    return window_quantile(
        0.75, [](const Window& w) { return static_cast<double>(w.size()); });
  }
  /// Better-quartile window of the median latency of one role.
  double latency_s(bool follower) const {
    return window_quantile(0.25, [follower](const Window& w) {
      std::vector<double> v;
      for (const JobRecord* r : w) {
        if (r->ok && r->follower == follower) v.push_back(r->latency_s);
      }
      return median(v);
    });
  }
  /// Better-quartile window of sum batches / sum solver time of the dabs
  /// jobs.
  double dabs_batches_per_s() const {
    return window_quantile(0.75, [](const Window& w) {
      double batches = 0.0;
      double seconds = 0.0;
      for (const JobRecord* r : w) {
        if (!r->ok || !r->dabs) continue;
        batches += static_cast<double>(r->batches);
        seconds += r->solve_s;
      }
      return seconds > 0.0 ? batches / seconds
                           : std::numeric_limits<double>::quiet_NaN();
    });
  }
  std::vector<double> latencies(bool follower) const {
    std::vector<double> v;
    for (const JobRecord& r : jobs) {
      if (r.ok && r.follower == follower) v.push_back(r.latency_s);
    }
    return v;
  }
};

/// Every client runs whole rounds until `seconds` have passed, on its own
/// thread and connection.
LoopStats run_clients(std::uint16_t port,
                      const std::vector<JobPlan>& repeated,
                      std::uint64_t seed, std::uint64_t& fresh_base,
                      double seconds, Tracer& tracer, RunResult& out) {
  LoopStats stats;
  std::mutex mu;
  std::atomic<std::uint64_t> next_op{0};
  const Clock::time_point start = Clock::now();
  const auto client_loop = [&](bool follower, std::uint64_t client_seed,
                               std::uint64_t fresh) {
    RunResult local;
    std::vector<JobRecord> done;
    try {
      dabs::net::HttpClient client("127.0.0.1", port);
      JobSource source(repeated, client_seed, fresh);
      do {
        for (const JobPlan& plan : source.next_round()) {
          const std::uint64_t op = next_op++;
          done.push_back(follower
                             ? follow_job(client, plan, tracer, op, local)
                             : poll_job(client, plan, tracer, op, local));
          done.back().finished_at = seconds_between(start, Clock::now());
        }
      } while (seconds_between(start, Clock::now()) < seconds);
    } catch (const std::exception& e) {
      local.check(false, std::string("client connection failed: ") + e.what());
      done.push_back(JobRecord{});  // the job in flight counts as failed
    }
    std::lock_guard lock(mu);
    stats.jobs.insert(stats.jobs.end(), done.begin(), done.end());
    out.check(local.correct, "client checks failed");
  };
  // Fresh problem seeds never repeat within a run: each client draws from
  // its own range of a million.
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2 * clients_per_role(); ++c) {
    clients.emplace_back(client_loop, c % 2 == 1, seed * 8 + c, fresh_base);
    fresh_base += 1000000;
  }
  for (std::thread& t : clients) t.join();
  stats.phase_s = seconds_between(start, Clock::now());
  return stats;
}

/// service.* and net.* metrics from finished job records and their spans.
void add_service_metrics(const std::vector<JobRecord>& jobs,
                         const Tracer& tracer, RunResult& out) {
  std::vector<double> queue;
  std::vector<double> run;
  std::vector<double> gaps;
  double hits = 0.0;
  double requests = 0.0;
  double bytes = 0.0;
  for (const JobRecord& r : jobs) {
    if (!r.ok) continue;
    queue.push_back(r.queue_s);
    run.push_back(r.run_s);
    if (r.follower) gaps.push_back(r.follow_gap_s);
    hits += r.cache_hit ? 1.0 : 0.0;
    requests += static_cast<double>(r.requests);
    bytes += static_cast<double>(r.bytes);
  }
  const auto n = static_cast<double>(queue.size());
  out.add("service.queue_wait_ms", 1e3 * median(queue), "ms");
  out.add("service.run_ms", 1e3 * median(run), "ms");
  out.add("service.cache_hit_ratio", hits / n, "ratio");
  out.add("net.post_us", 1e6 * median(tracer.durations("net.post")), "us");
  out.add("net.get_us", 1e6 * median(tracer.durations("net.get")), "us");
  out.add("net.requests_per_job", requests / n, "count");
  out.add("net.bytes_per_job", bytes / n, "B");
  out.add("net.follow_gap_ms", 1e3 * median(gaps), "ms");
}

void print_latency_summary(const LoopStats& loop) {
  const std::vector<double> poll = loop.latencies(false);
  const std::vector<double> follow = loop.latencies(true);
  const auto p99 = tail_percentile(poll, 0.99);
  std::cout << "# jobs " << loop.jobs.size() << " (poller " << poll.size()
            << ", follower " << follow.size() << ", failed " << loop.failed()
            << ") in " << loop.phase_s << " s; poller p50 "
            << 1e3 * median(poll) << " ms, p99 "
            << (p99 ? format_number(1e3 * *p99) + " ms"
                    : std::string("n/a (fewer than 1000 samples)"))
            << "; follower p50 " << 1e3 * median(follow) << " ms\n";
}

}  // namespace

RunResult run_http_workload(const RunOptions& opts) {
  RunResult out;
  std::vector<JobPlan> repeated;
  for (const SpecTemplate& spec : repeated_specs()) {
    repeated.push_back(make_plan(spec, spec.params, 1));
  }
  std::cout << "# http-jobs: " << kServiceWorkers
            << " service workers, " << clients_per_role()
            << " polling + " << clients_per_role()
            << " following clients, poll pause "
            << kPollPause.count() << " us, rounds of "
            << repeated_specs().size() << " repeated + "
            << fresh_specs().size() << " fresh specs\n";

  std::vector<double> setups;
  std::unique_ptr<BenchServer> server;
  do {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<BenchServer>(kServiceWorkers, kMixCacheBytes);
    dabs::net::HttpClient client("127.0.0.1", server->port());
    const auto health = client.request("GET", "/v1/healthz");
    setups.push_back(seconds_between(t0, Clock::now()));
    out.check(health.status == 200, "healthz returned " +
                                        std::to_string(health.status));
  } while (want_another_setup(setups));

  std::uint64_t fresh_base = 1000 + opts.seed * 100000000;
  Tracer off(false);
  if (!opts.trace) {
    const LoopStats loop = run_clients(server->port(), repeated, opts.seed,
                                       fresh_base, opts.seconds, off, out);
    out.attempted = loop.jobs.size();
    out.failed = loop.failed();
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("tts_s", loop.latency_s(true), "s");
    out.add("batches_per_s", loop.dabs_batches_per_s(), "1/s");
    out.add("jobs_per_s", loop.jobs_per_s(), "1/s");
    out.add("job_latency_p50_ms", 1e3 * loop.latency_s(false), "ms");
    print_latency_summary(loop);
    return out;
  }

  // Traced run: layer probes on the mix's largest model, the client loop
  // untraced then traced.
  Tracer tracer(true);
  const auto largest = std::max_element(
      repeated.begin(), repeated.end(), [](const JobPlan& a, const JobPlan& b) {
        return a.problem->encode().size() < b.problem->encode().size();
      });
  (void)probe_layers(*largest->problem, largest->problem->encode(), opts.seed,
                     tracer, out);
  const LoopStats plain = run_clients(server->port(), repeated, opts.seed,
                                      fresh_base, opts.seconds / 2, off, out);
  const LoopStats traced =
      run_clients(server->port(), repeated, opts.seed + 1, fresh_base,
                  opts.seconds / 2, tracer, out);
  out.attempted = plain.jobs.size() + traced.jobs.size();
  out.failed = plain.failed() + traced.failed();
  print_latency_summary(traced);

  // core.* from the solver side of each job: its solve time, batches
  // spent, the service's hold beyond the solver's own clock, and the
  // enumerable specs' optimum hits.
  std::vector<double> solve;
  std::vector<double> dabs_batches;
  std::vector<double> hold;
  double run_total = 0.0;
  double solve_total = 0.0;
  double optimum_jobs = 0.0;
  double optimum_hits = 0.0;
  double generated = 0.0;
  double accepted = 0.0;
  for (const JobRecord& r : traced.jobs) {
    if (!r.ok) continue;
    solve.push_back(r.solve_s);
    hold.push_back(r.run_s - r.solve_s);
    run_total += r.run_s;
    solve_total += r.solve_s;
    if (r.dabs) {
      dabs_batches.push_back(static_cast<double>(r.batches));
      generated += static_cast<double>(r.generated);
      accepted += static_cast<double>(r.accepted);
    }
    if (r.has_optimum) {
      optimum_jobs += 1.0;
      optimum_hits += r.optimum_hit ? 1.0 : 0.0;
    }
  }
  out.add("core.solve_s", median(solve), "s");
  out.add("core.batches_to_target", median(dabs_batches), "count");
  out.add("core.stop_overshoot_ms", 1e3 * median(hold), "ms");
  out.add("core.unattributed_frac", 1.0 - solve_total / run_total, "ratio");
  out.add("core.best_known_hit_ratio", optimum_hits / optimum_jobs, "ratio");
  out.add("evolve.accept_ratio", accepted / generated, "ratio");
  add_service_metrics(traced.jobs, tracer, out);
  out.add("bench.trace_overhead_frac",
          (plain.jobs_per_s() - traced.jobs_per_s()) / plain.jobs_per_s(),
          "ratio");
  if (!opts.trace_path.empty()) tracer.write_chrome_json(opts.trace_path);
  return out;
}

std::uint64_t probe_service(const std::vector<JobPlan>& poll,
                            const std::vector<JobPlan>& follow,
                            Tracer& tracer, RunResult& out) {
  BenchServer server(1, dabs::service::ModelCache::kDefaultMaxBytes);
  dabs::net::HttpClient client("127.0.0.1", server.port());
  std::vector<JobRecord> jobs;
  std::uint64_t op = 1000000;
  for (const JobPlan& plan : poll) {
    jobs.push_back(poll_job(client, plan, tracer, op++, out));
  }
  for (const JobPlan& plan : follow) {
    jobs.push_back(follow_job(client, plan, tracer, op++, out));
  }
  add_service_metrics(jobs, tracer, out);
  return static_cast<std::uint64_t>(std::count_if(
      jobs.begin(), jobs.end(), [](const JobRecord& r) { return !r.ok; }));
}

}  // namespace perfbench
