// Resource-aware merging in action (§4, §7.4.1): when merging everything
// would blow the container limits, Quilt's decision algorithm splits the
// workflow at the cheapest edges instead.
//
// Uses the modified nearby-cinema workflow: six CPU-heavy get-nearby-points
// workers behind two aggregators, under 1.6 vCPU / 320 MB containers.
#include <cstdio>

#include "src/apps/deathstarbench.h"
#include "src/partition/dot_export.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/scorers.h"

int main() {
  using namespace quilt;

  const WorkflowApp app = ModifiedNearbyCinema();
  Result<CallGraph> graph = app.ReferenceGraph();
  if (!graph.ok()) {
    std::printf("graph error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("== %s ==\n%s\n", app.name.c_str(), graph->DebugString().c_str());

  MergeProblem problem{&*graph, /*cpu_limit=*/1.6, /*memory_limit=*/320.0};

  // Merging everything violates both constraints.
  const MergeSolution full = FullMergeSolution(*graph);
  const GroupResources full_res = ComputeGroupResources(*graph, full.groups[0]);
  std::printf("full merge would need %.2f vCPU (limit %.1f) and %.0f MB (limit %.0f): %s\n",
              full_res.cpu, problem.cpu_limit, full_res.memory, problem.memory_limit,
              CheckSolution(problem, full).ok() ? "feasible" : "INFEASIBLE");

  // The exact solver finds the resource-respecting optimum.
  SolverStats stats;
  Result<MergeSolution> best = SolveOptimal(problem, {}, &stats);
  if (!best.ok()) {
    std::printf("optimal solve failed: %s\n", best.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== optimal grouping (%lld candidate root sets explored) ==\n%s\n",
              static_cast<long long>(stats.candidate_sets_tried),
              SolutionToString(*graph, *best).c_str());

  // The Downstream Impact heuristic finds the same answer from a scored
  // candidate pool, with no proof of optimality. Its sweep stays small on
  // any graph; the exact sweep's worst case is 2^(|V|-1) root sets, though
  // here solving R = V first lets it stop after two.
  const std::vector<double> scores = DownstreamImpactScores(problem);
  std::printf("== downstream-impact scores (why the aggregators become roots) ==\n");
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    std::printf("  %-18s %.3f\n", graph->node(id).name.c_str(), scores[id]);
  }
  SolverStats h_stats;
  Result<MergeSolution> approx = SolveDihSweep(problem, DownstreamImpactScores, {}, &h_stats);
  if (!approx.ok()) {
    std::printf("heuristic solve failed: %s\n", approx.status().ToString().c_str());
    return 1;
  }
  std::printf("\nDIH solution: cost %.0f vs optimal %.0f (%lld vs %lld candidate sets)\n",
              approx->cross_cost, best->cross_cost,
              static_cast<long long>(h_stats.candidate_sets_tried),
              static_cast<long long>(stats.candidate_sets_tried));

  std::printf("\n== Graphviz rendering of the chosen grouping (pipe into `dot -Tsvg`) ==\n%s",
              ToDot(*graph, *best).c_str());
  return 0;
}
