#include "serve/session_registry.hpp"

#include <ios>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace gdp::serve {

SessionRegistry::SessionRegistry(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SessionRegistry: capacity must be > 0");
  }
}

std::string SessionRegistry::Fingerprint(const gdp::core::SessionSpec& spec,
                                         std::uint64_t compile_seed) {
  // Canonical, human-debuggable encoding; exact (hexfloat) for the doubles
  // so two specs collide iff they would compile bit-identical artifacts.
  // num_threads is left out: no pool, or a pool of any size, compiles and
  // releases the same bits, so tenants on 1 and on 8 threads share one
  // artifact (and a snapshot packed at one thread count adopts at any).
  std::ostringstream os;
  os << std::hexfloat;
  const gdp::core::HierarchySpec& h = spec.hierarchy;
  const gdp::core::BudgetSpec& b = spec.budget;
  const gdp::core::ExecSpec& e = spec.exec;
  os << "d=" << h.depth << ";a=" << h.arity
     << ";q=" << static_cast<int>(h.split_quality)
     << ";c=" << h.max_cut_candidates << ";v=" << (h.validate_hierarchy ? 1 : 0)
     << ";eps=" << b.epsilon_g << ";delta=" << b.delta
     << ";f1=" << b.phase1_fraction << ";n=" << static_cast<int>(b.noise)
     << ";grain=" << e.noise_chunk_grain
     << ";gc=" << (e.include_group_counts ? 1 : 0)
     << ";cons=" << (e.enforce_consistency ? 1 : 0)
     << ";clamp=" << (e.clamp_nonnegative ? 1 : 0) << ";seed=" << compile_seed;
  return os.str();
}

std::shared_ptr<const gdp::core::CompiledDisclosure>
SessionRegistry::GetOrCompile(const std::string& dataset,
                              const gdp::graph::BipartiteGraph& graph,
                              const gdp::core::SessionSpec& spec,
                              std::uint64_t compile_seed,
                              const gdp::storage::Snapshot* snapshot) {
  const std::string fingerprint = Fingerprint(spec, compile_seed);
  // The key folds in the graph's shape so a caller that rebinds a dataset
  // name to a different graph cannot silently hit an artifact compiled from
  // (and holding a reference into) the old one.  Shape is a cheap O(1)
  // proxy for identity: callers reusing a name for a SAME-SHAPED different
  // graph must still use distinct dataset names (DisclosureService's
  // append-only catalog guarantees this by construction).
  std::string key = dataset + "|V=" + std::to_string(graph.num_left()) + "x" +
                    std::to_string(graph.num_right()) +
                    ";E=" + std::to_string(graph.num_edges()) + "|" + fingerprint;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
    return it->second->second;
  }
  ++stats_.misses;
  if (lru_.size() == capacity_) {
    // Drop the registry's reference only; live tenant handles keep the
    // evicted artifact alive until they release it.
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  std::shared_ptr<const gdp::core::CompiledDisclosure> compiled;
  if (snapshot != nullptr && snapshot->has_plan() &&
      snapshot->fingerprint() == fingerprint) {
    // The stored fingerprint proves the embedded plan was compiled under
    // exactly this spec + seed, so adopting it is bit-identical to the
    // Compile below — minus the EM build and the node scan it skips.
    compiled = gdp::core::CompiledDisclosure::FromPrecompiled(
        graph, spec, snapshot->BuildHierarchy(),
        gdp::core::ReleasePlan(snapshot->plan()),
        snapshot->phase1_epsilon_spent());
    ++stats_.snapshot_adoptions;
  } else {
    gdp::common::Rng rng(compile_seed);
    compiled = gdp::core::CompiledDisclosure::Compile(graph, spec, rng);
  }
  lru_.emplace_front(key, compiled);
  index_.emplace(key, lru_.begin());
  return compiled;
}

SessionRegistry::Stats SessionRegistry::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SessionRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::vector<std::string> SessionRegistry::KeysMostRecentFirst() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) {
    keys.push_back(entry.first);
  }
  return keys;
}

}  // namespace gdp::serve
