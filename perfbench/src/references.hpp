// Stored references of the solver workloads (perfbench/references.json):
// the registry instance, the best-known energy with the solution bits that
// attain it, the stated-accuracy target, the per-trial limit and the fixed
// trial seeds.  Every run re-evaluates the stored bits with the
// benchmark's own evaluator before timing anything; `perfbench
// derive-refs` may only ever lower a best-known energy.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qubo/types.hpp"

namespace perfbench {

struct Reference {
  std::string workload;
  std::string problem;                        // registry name
  std::map<std::string, std::string> params;  // registry params
  dabs::Energy best_known = 0;
  std::string best_known_bits;  // '0'/'1' per variable, index 0 first
  std::string best_known_source;
  dabs::Energy target = 0;  // the stated-accuracy energy
  std::string target_note;
  double limit_seconds = 0.0;  // per-trial wall-clock limit
  std::vector<std::uint64_t> trial_seeds;
};

/// Parses the references file; throws std::runtime_error on a missing or
/// malformed file.
std::map<std::string, Reference> load_references(const std::string& path);

/// Rewrites the references file (derive-refs).
void save_references(const std::string& path,
                     const std::map<std::string, Reference>& refs);

}  // namespace perfbench
