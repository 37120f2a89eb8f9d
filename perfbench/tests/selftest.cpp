// The benchmark's own tests: the independent energy evaluator against
// exhaustive enumeration on tiny dense and sparse models, the percentile
// helper and its ten-samples-beyond rule, and the QAP permutation and cost
// check on a hand-made instance.  Exits non-zero on the first failure.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "qubo/qubo_builder.hpp"
#include "rng/xorshift.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

/// Random model on n variables; `density` of the pairs get a coupling.
dabs::QuboModel random_model(std::size_t n, double density,
                             std::uint64_t seed, dabs::QuboBackend backend) {
  dabs::Rng rng(seed);
  dabs::QuboBuilder b(n);
  for (dabs::VarIndex i = 0; i < n; ++i) {
    b.add_linear(i, static_cast<dabs::Weight>(rng.next_index(21)) - 10);
    for (dabs::VarIndex j = i + 1; j < n; ++j) {
      if (rng.next_unit() < density) {
        b.add_quadratic(i, j, static_cast<dabs::Weight>(rng.next_index(21)) - 10);
      }
    }
  }
  return b.set_backend(backend).build();
}

/// E(x) straight from the definition, with W_ij looked up per pair.
dabs::Energy definition_energy(const dabs::QuboModel& m,
                               const dabs::BitVector& x) {
  dabs::Energy e = 0;
  for (dabs::VarIndex i = 0; i < m.size(); ++i) {
    if (!x.get(i)) continue;
    e += m.diag(i);
    for (dabs::VarIndex j = i + 1; j < m.size(); ++j) {
      if (x.get(j)) e += m.weight(i, j);
    }
  }
  return e;
}

void test_evaluator_against_enumeration() {
  const std::vector<std::pair<double, dabs::QuboBackend>> shapes = {
      {1.0, dabs::QuboBackend::kDense}, {0.25, dabs::QuboBackend::kCsr}};
  for (const auto& [density, backend] : shapes) {
    for (const std::size_t n : {1u, 5u, 12u, 16u}) {
      const dabs::QuboModel m = random_model(n, density, 31 + n, backend);
      dabs::Energy brute = 0;
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
        dabs::BitVector x(n);
        for (std::size_t i = 0; i < n; ++i) x.set(i, (bits >> i) & 1);
        const dabs::Energy e = perfbench::evaluate_energy(m, x);
        if (e != definition_energy(m, x)) {
          expect(false, "evaluator differs from the definition, n=" +
                            std::to_string(n));
          return;
        }
        brute = std::min(brute, e);
      }
      expect(perfbench::exhaustive_minimum(m) == brute,
             "exhaustive_minimum differs from brute force, n=" +
                 std::to_string(n) + " backend=" + dabs::to_string(backend));
    }
  }
}

void test_percentiles() {
  using perfbench::tail_percentile;
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // Nearest rank: p99 of 1..1000 is 990, with exactly ten samples beyond.
  expect(tail_percentile(v, 0.99) == 990.0, "p99 of 1..1000");
  expect(tail_percentile(v, 0.5) == 500.0, "p50 of 1..1000");
  v.pop_back();
  expect(!tail_percentile(v, 0.99), "p99 needs ten samples beyond it");
  std::vector<double> w;
  for (int i = 1; i <= 100; ++i) w.push_back(101 - i);
  expect(tail_percentile(w, 0.9) == 90.0, "p90 of 100 unsorted samples");
  w.pop_back();
  expect(!tail_percentile(w, 0.9), "p90 of 99 samples is no tail");
  expect(!tail_percentile({}, 0.5), "empty sample set");
}

void test_qap_check() {
  // Three facilities, three locations: flow and distance by hand.
  const std::vector<int> flow = {0, 5, 2,  //
                                 5, 0, 3,  //
                                 2, 3, 0};
  const std::vector<int> dist = {0, 1, 4,  //
                                 1, 0, 2,  //
                                 4, 2, 0};
  // Identity: 2*(5*1 + 2*4 + 3*2) = 38.
  expect(perfbench::qap_assignment_cost(3, flow, dist, {0, 1, 2}) == 38,
         "identity assignment cost");
  // g = (1, 0, 2): 2*(5*d(1,0) + 2*d(1,2) + 3*d(0,2)) = 2*(5+4+12) = 42.
  expect(perfbench::qap_assignment_cost(3, flow, dist, {1, 0, 2}) == 42,
         "swapped assignment cost");
  expect(perfbench::is_permutation({2, 0, 1}), "a permutation");
  expect(!perfbench::is_permutation({0, 0, 1}), "a repeated location");
  expect(!perfbench::is_permutation({0, 3, 1}), "a location out of range");
  expect(!perfbench::is_permutation({0, -1, 1}), "a negative location");
}

}  // namespace

int main() {
  test_evaluator_against_enumeration();
  test_percentiles();
  test_qap_check();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
