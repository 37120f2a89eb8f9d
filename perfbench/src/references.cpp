#include "references.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/json_reader.hpp"
#include "io/json_writer.hpp"

namespace perfbench {

namespace {

const dabs::io::JsonValue& member(const dabs::io::JsonValue& obj,
                                  const std::string& key,
                                  const std::string& where) {
  const dabs::io::JsonValue* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error("references: " + where + " lacks \"" + key +
                             "\"");
  }
  return *v;
}

}  // namespace

std::map<std::string, Reference> load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const dabs::io::JsonValue root = dabs::io::parse_json(text.str());

  std::map<std::string, Reference> out;
  for (const auto& [name, entry] : root.as_object()) {
    Reference ref;
    ref.workload = name;
    ref.problem = member(entry, "problem", name).as_string();
    for (const auto& [k, v] : member(entry, "params", name).as_object()) {
      ref.params[k] = v.as_string();
    }
    ref.best_known = member(entry, "best_known", name).as_int();
    ref.best_known_bits = member(entry, "best_known_bits", name).as_string();
    ref.best_known_source =
        member(entry, "best_known_source", name).as_string();
    ref.target = member(entry, "target", name).as_int();
    ref.target_note = member(entry, "target_note", name).as_string();
    ref.limit_seconds = member(entry, "limit_seconds", name).as_double();
    for (const auto& seed : member(entry, "trial_seeds", name).as_array()) {
      ref.trial_seeds.push_back(static_cast<std::uint64_t>(seed.as_int()));
    }
    if (ref.trial_seeds.empty() || ref.limit_seconds <= 0.0 ||
        ref.target < ref.best_known) {
      throw std::runtime_error("references: inconsistent entry " + name);
    }
    out.emplace(name, std::move(ref));
  }
  return out;
}

void save_references(const std::string& path,
                     const std::map<std::string, Reference>& refs) {
  std::ostringstream os;
  {
    dabs::io::JsonWriter json(os);
    json.begin_object();
    for (const auto& [name, ref] : refs) {
      json.begin_object(name).value("problem", ref.problem);
      json.begin_object("params");
      for (const auto& [k, v] : ref.params) json.value(k, v);
      json.end_object();
      json.value("best_known", static_cast<std::int64_t>(ref.best_known))
          .value("best_known_source", ref.best_known_source)
          .value("target", static_cast<std::int64_t>(ref.target))
          .value("target_note", ref.target_note)
          .value("limit_seconds", ref.limit_seconds);
      json.begin_array("trial_seeds");
      for (const std::uint64_t s : ref.trial_seeds) json.value("", s);
      json.end_array();
      json.value("best_known_bits", ref.best_known_bits).end_object();
    }
    json.end_object();
  }
  std::ofstream out(path, std::ios::trunc);
  out << os.str() << "\n";
  if (!out) throw std::runtime_error("cannot write references file " + path);
}

}  // namespace perfbench
