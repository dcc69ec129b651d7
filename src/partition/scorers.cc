#include "src/partition/scorers.h"

#include <algorithm>

#include "src/graph/betweenness.h"
#include "src/graph/descendants.h"

namespace quilt {

namespace {

// Downstream Impact weights (Appendix C.1).
constexpr double kDihBeta = 0.4;      // Incoming call weight.
constexpr double kDihGamma = 0.3;     // Downstream memory.
constexpr double kDihDelta = 0.3;     // Downstream CPU.
constexpr double kDihEpsilon = 1e-9;  // Keeps the ratios finite.

}  // namespace

std::vector<double> WeightedInDegreeScores(const MergeProblem& problem) {
  const CallGraph& graph = *problem.graph;
  std::vector<double> scores(graph.num_nodes(), 0.0);
  for (const CallEdge& e : graph.edges()) {
    scores[e.to] += e.weight;
  }
  return scores;
}

std::vector<double> WeightedOutDegreeScores(const MergeProblem& problem) {
  const CallGraph& graph = *problem.graph;
  std::vector<double> scores(graph.num_nodes(), 0.0);
  for (const CallEdge& e : graph.edges()) {
    scores[e.from] += e.weight;
  }
  return scores;
}

std::vector<double> BetweennessScores(const MergeProblem& problem) {
  return BetweennessCentrality(*problem.graph);
}

std::vector<double> DownstreamImpactScores(const MergeProblem& problem) {
  const CallGraph& graph = *problem.graph;
  const DescendantAnalysis analysis(graph);

  double max_win = 0.0;
  for (NodeId j = 0; j < graph.num_nodes(); ++j) {
    if (j == graph.root()) {
      continue;
    }
    max_win = std::max(max_win, analysis.WeightedInDegree(j));
  }

  std::vector<double> scores(graph.num_nodes(), 0.0);
  for (NodeId j = 0; j < graph.num_nodes(); ++j) {
    scores[j] = kDihBeta * analysis.WeightedInDegree(j) / (max_win + kDihEpsilon) +
                kDihGamma * analysis.DownstreamMemory(j) / (problem.memory_limit + kDihEpsilon) +
                kDihDelta * analysis.DownstreamCpu(j) / (problem.cpu_limit + kDihEpsilon);
  }
  return scores;
}

std::vector<NodeId> RankCandidates(const MergeProblem& problem,
                                   const std::vector<double>& scores) {
  const CallGraph& graph = *problem.graph;
  std::vector<NodeId> ranked;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    if (id != graph.root()) {
      ranked.push_back(id);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) {
      return scores[a] > scores[b];
    }
    return a < b;
  });
  return ranked;
}

}  // namespace quilt
