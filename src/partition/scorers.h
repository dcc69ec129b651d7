// Root-candidate scores (§4.3, Appendix C).
//
// Phase 1 of the approximate merge decision ranks nodes by how promising
// they are as subgraph roots. The paper compares simple local scores
// (weighted degree, betweenness) against the Downstream Impact Heuristic,
// which also accounts for the resource footprint of a node's descendants.
// Each score is a plain function; kRootScorers names all four.
#ifndef SRC_PARTITION_SCORERS_H_
#define SRC_PARTITION_SCORERS_H_

#include <array>
#include <string_view>
#include <vector>

#include "src/partition/problem.h"

namespace quilt {

// One score per node; higher means more promising as a root. The workflow
// root's score is irrelevant (it is always a root).
using ScoreFn = std::vector<double> (*)(const MergeProblem& problem);

// W_in(j): sum of incoming edge weights.
std::vector<double> WeightedInDegreeScores(const MergeProblem& problem);

// Sum of outgoing edge weights.
std::vector<double> WeightedOutDegreeScores(const MergeProblem& problem);

// Brandes betweenness centrality.
std::vector<double> BetweennessScores(const MergeProblem& problem);

// Downstream Impact Heuristic (Appendix C.1), with β = 0.4, γ = δ = 0.3 and
// ε = 1e-9:
//   Score(j) = β · W_in(j)/(max W_in + ε)
//            + γ · M_ds(j)/(M + ε)
//            + δ · C_ds(j)/(C + ε)
std::vector<double> DownstreamImpactScores(const MergeProblem& problem);

struct NamedScorer {
  std::string_view name;
  ScoreFn score;
};

inline constexpr std::array<NamedScorer, 4> kRootScorers = {{
    {"weighted-in-degree", WeightedInDegreeScores},
    {"weighted-out-degree", WeightedOutDegreeScores},
    {"betweenness", BetweennessScores},
    {"downstream-impact", DownstreamImpactScores},
}};

// Every node but the workflow root by descending score, ties by ascending
// id: the candidate order of the DIH sweep's pool and of GRASP's draws.
std::vector<NodeId> RankCandidates(const MergeProblem& problem,
                                   const std::vector<double>& scores);

}  // namespace quilt

#endif  // SRC_PARTITION_SCORERS_H_
