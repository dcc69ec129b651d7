#include "src/partition/merge_solver.h"

#include <algorithm>
#include <cstring>

#include "src/common/hash.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/ilp_solve_cache.h"

namespace quilt {

namespace {

inline uint64_t DoubleBits(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t FingerprintProblem(const MergeProblem& problem) {
  const CallGraph& graph = *problem.graph;
  uint64_t hash = kFnvOffset;
  hash = MixWord(hash, static_cast<uint64_t>(graph.num_nodes()));
  hash = MixWord(hash, static_cast<uint64_t>(graph.num_edges()));
  hash = MixWord(hash, static_cast<uint64_t>(graph.root()));
  hash = MixWord(hash, DoubleBits(problem.cpu_limit));
  hash = MixWord(hash, DoubleBits(problem.memory_limit));
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const FunctionNode& node = graph.node(id);
    hash = MixWord(hash, DoubleBits(node.cpu));
    hash = MixWord(hash, DoubleBits(node.memory));
  }
  for (EdgeId eid = 0; eid < graph.num_edges(); ++eid) {
    const CallEdge& e = graph.edge(eid);
    hash = MixWord(hash, static_cast<uint64_t>(e.from) << 32 | static_cast<uint32_t>(e.to));
    hash = MixWord(hash, DoubleBits(e.weight));
    hash = MixWord(hash, static_cast<uint64_t>(e.alpha));
    hash = MixWord(hash, static_cast<uint64_t>(e.type));
  }
  // Mix the cost model only when it actually shapes the ILPs: an inert cost
  // struct (λ=1 or unsized vectors) keeps the fingerprint — and therefore
  // every cache key — identical to the latency-only problem's.
  const PlanCostModel& cost = problem.cost;
  if (cost.active(graph.num_edges())) {
    hash = MixWord(hash, DoubleBits(cost.weight));
    hash = MixWord(hash, DoubleBits(cost.scale));
    hash = MixWord(hash, DoubleBits(cost.base));
    for (double c : cost.cut_cost) {
      hash = MixWord(hash, DoubleBits(c));
    }
    for (double m : cost.merge_cost) {
      hash = MixWord(hash, DoubleBits(m));
    }
  }
  return hash;
}

Result<MergeSolution> SolveForRootsCached(const MergeProblem& problem,
                                          uint64_t fingerprint,
                                          const std::vector<NodeId>& roots,
                                          const IlpSolveOptions& ilp_options,
                                          IlpSolveCache* cache,
                                          SolverStats* stats) {
  if (stats != nullptr) {
    ++stats->ilp_solves;
  }
  if (cache == nullptr) {
    return SolveForRoots(problem, roots, ilp_options);
  }

  const std::string key =
      IlpSolveCache::Key(fingerprint, roots, ilp_options.mip_gap, ilp_options.max_nodes);
  std::optional<IlpSolveCache::Entry> entry = cache->Lookup(key);
  if (entry.has_value()) {
    if (stats != nullptr) {
      ++stats->ilp_cache_hits;
    }
  } else {
    // Fresh solve with canonical (sorted) roots and no cutoff: the entry must
    // be a pure function of the key so that concurrent starts — whichever
    // populates the cache first — observe identical results.
    std::vector<NodeId> sorted_roots = roots;
    std::sort(sorted_roots.begin(), sorted_roots.end());
    IlpSolveOptions pure = ilp_options;
    pure.cutoff = std::numeric_limits<double>::infinity();
    Result<MergeSolution> solved = SolveForRoots(problem, sorted_roots, pure);
    IlpSolveCache::Entry fresh;
    if (solved.ok()) {
      fresh.feasible = true;
      fresh.solution = std::move(solved).value();
    } else if (solved.status().code() != StatusCode::kInfeasible) {
      return solved.status();  // Node-limit etc.: not a memoizable outcome.
    }
    cache->Insert(key, fresh);
    entry = std::move(fresh);
  }

  if (!entry->feasible) {
    return InfeasibleError("no valid assignment for candidate root set (cached)");
  }
  if (entry->solution.cross_cost >= ilp_options.cutoff) {
    return InfeasibleError("no assignment beats the cutoff for candidate root set (cached)");
  }
  return entry->solution;
}

}  // namespace quilt
