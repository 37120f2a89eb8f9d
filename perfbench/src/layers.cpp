// Layer probes of traced runs: each layer's public surface timed from
// outside on the workload's own model, one span per call.
#include <array>
#include <span>
#include <string>
#include <vector>

#include "evolve/diversity_engine.hpp"
#include "rng/seeder.hpp"
#include "rng/xorshift.hpp"
#include "search/batch_search.hpp"
#include "search/bulk_batch_search.hpp"
#include "search/bulk_search_state.hpp"
#include "search/registry.hpp"
#include "qubo/search_state.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Wall-clock budget of each timed kernel loop.
constexpr double kKernelSeconds = 0.2;
/// Batches per main search on engine-made targets, plus the engine's own
/// algorithm mix.
constexpr int kBatchesPerAlgo = 4;
constexpr int kMixBatches = 8;
constexpr int kBulkPasses = 3;
constexpr std::size_t kLanes = dabs::BulkSearchState::kLanesPerBlock;

std::string algo_key(dabs::MainSearch algo) {
  std::string name(dabs::to_string(algo));
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

}  // namespace

LayerCosts probe_layers(const dabs::Problem& problem,
                        const dabs::QuboModel& model, std::uint64_t seed,
                        Tracer& tracer, RunResult& out) {
  LayerCosts costs;
  const std::size_t n = model.size();
  dabs::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);

  // qubo: SearchState::flip_and_scan on a random index stream.
  {
    dabs::SearchState state(model);
    std::uint64_t flips = 0;
    const double start = tracer.now();
    double now = start;
    while (now - start < kKernelSeconds) {
      const std::int64_t span = tracer.open("qubo.flip_and_scan", 0);
      for (int i = 0; i < 256; ++i) {
        (void)state.flip_and_scan(static_cast<dabs::VarIndex>(rng.next_index(n)));
      }
      tracer.close(span);
      flips += 256;
      now = tracer.now();
    }
    out.add("qubo.flip_scan_per_s", static_cast<double>(flips) / (now - start),
            "1/s");
    // Coefficient bytes one flip reads: a full int32 row on the dense
    // backend, (column, weight) pairs of the row on CSR.
    const double bytes =
        model.has_dense_rows()
            ? static_cast<double>(n * sizeof(dabs::Weight))
            : 2.0 * static_cast<double>(model.edge_count()) /
                  static_cast<double>(n) *
                  static_cast<double>(sizeof(dabs::VarIndex) +
                                      sizeof(dabs::Weight));
    out.add("qubo.bytes_per_flip", bytes, "B");
  }

  // search + evolve: scalar batches on engine-made targets, results fed
  // back into the engine's pool.
  dabs::MersenneSeeder seeder(seed);
  dabs::EngineConfig engine_config;
  engine_config.islands = 1;
  dabs::DiversityEngine engine(engine_config, n, seeder);
  dabs::Rng engine_rng = seeder.next_rng();
  dabs::BatchSearch batch(model, dabs::BatchParams{}, seeder.next_seed());
  std::vector<double> all_batches;
  std::vector<double> flips_per_batch;
  dabs::BitVector sample_solution;
  dabs::Energy sample_energy = dabs::kInfiniteEnergy;
  const auto one_batch = [&](std::optional<dabs::MainSearch> forced,
                             std::uint64_t op) {
    const std::int64_t gen = tracer.open("evolve.next_packet", op);
    auto packet = engine.next_packet(0, engine_rng);
    tracer.close(gen);
    if (forced) packet.algo = *forced;
    const std::int64_t run = tracer.open(
        "search.batch." + algo_key(packet.algo), op);
    const dabs::BatchResult result = batch.run(packet.solution, packet.algo);
    tracer.close(run);
    flips_per_batch.push_back(static_cast<double>(result.flips));
    if (result.best_energy < sample_energy) {
      sample_energy = result.best_energy;
      sample_solution = result.best;
    }
    packet.solution = result.best;
    packet.energy = result.best_energy;
    const std::int64_t acc = tracer.open("evolve.accept_result", op);
    (void)engine.accept_result(packet);
    tracer.close(acc);
  };
  std::uint64_t op = 0;
  for (int i = 0; i < kMixBatches; ++i) one_batch(std::nullopt, op++);
  for (const dabs::MainSearch algo : dabs::kAllMainSearches) {
    for (int i = 0; i < kBatchesPerAlgo; ++i) one_batch(algo, op++);
  }
  for (const dabs::MainSearch algo : dabs::kAllMainSearches) {
    const std::vector<double> d =
        tracer.durations("search.batch." + algo_key(algo));
    all_batches.insert(all_batches.end(), d.begin(), d.end());
    out.add("search.batch_us." + algo_key(algo), 1e6 * mean(d), "us");
  }
  costs.batch_s = mean(all_batches);
  out.add("search.batch_us", 1e6 * costs.batch_s, "us");
  out.add("search.flips_per_batch", mean(flips_per_batch), "count");
  costs.next_packet_s = median(tracer.durations("evolve.next_packet"));
  costs.accept_s = median(tracer.durations("evolve.accept_result"));
  out.add("evolve.next_packet_us", 1e6 * costs.next_packet_s, "us");
  out.add("evolve.accept_result_us", 1e6 * costs.accept_s, "us");

  // search: the 64-lane bulk kernel and full bulk passes.
  {
    dabs::BulkSearchState bulk(model, kLanes);
    std::vector<dabs::ScanResult> scans(kLanes);
    const std::array<std::uint64_t, 1> all_lanes = {~std::uint64_t{0}};
    std::uint64_t calls = 0;
    const double start = tracer.now();
    double now = start;
    while (now - start < kKernelSeconds) {
      const std::int64_t span = tracer.open("search.bulk_flip_and_scan", 0);
      for (int i = 0; i < 64; ++i) {
        bulk.flip_and_scan(static_cast<dabs::VarIndex>(rng.next_index(n)),
                           all_lanes, scans);
      }
      tracer.close(span);
      calls += 64;
      now = tracer.now();
    }
    out.add("search.bulk_lane_flips_per_s",
            static_cast<double>(calls * kLanes) / (now - start), "1/s");
  }
  {
    dabs::BulkBatchSearch bulk(model, dabs::BatchParams{}, kLanes,
                               seeder.next_seed());
    for (int pass = 0; pass < kBulkPasses; ++pass) {
      std::vector<dabs::BitVector> targets;
      for (std::size_t r = 0; r < kLanes; ++r) {
        targets.push_back(engine.next_packet(0, engine_rng).solution);
      }
      ScopedSpan span(tracer, "search.bulk_pass", static_cast<std::uint64_t>(pass));
      (void)bulk.run(targets);
    }
    costs.bulk_pass_s = median(tracer.durations("search.bulk_pass"));
    out.add("search.bulk_pass_us", 1e6 * costs.bulk_pass_s, "us");
  }

  // problems: encode, and decode + verify of the probe's best solution.
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "problems.encode", 0);
    (void)problem.encode();
  }
  out.add("problems.encode_s", median(tracer.durations("problems.encode")),
          "s");
  {
    const dabs::Energy e = evaluate_energy(model, sample_solution);
    out.check(e == sample_energy,
              "probe batch energy differs from the re-evaluated energy");
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(tracer, "problems.decode_verify", 0);
      (void)problem.decode(sample_solution);
      (void)problem.verify(sample_solution, e);
    }
    out.add("problems.decode_verify_us",
            1e6 * median(tracer.durations("problems.decode_verify")), "us");
  }
  return costs;
}

}  // namespace perfbench
