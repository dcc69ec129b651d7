#include "src/partition/ilp_encoding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>

namespace quilt {

AssignmentIlp BuildAssignmentIlp(const MergeProblem& problem,
                                 const std::vector<NodeId>& roots) {
  const CallGraph& graph = *problem.graph;
  const int n = graph.num_nodes();
  const int num_edges = graph.num_edges();
  const int k = static_cast<int>(roots.size());

  AssignmentIlp out;
  out.roots = roots;
  IlpModel& model = out.model;

  std::vector<bool> is_root(n, false);
  for (NodeId r : roots) {
    assert(r >= 0 && r < n);
    is_root[r] = true;
  }
  assert(is_root[graph.root()] && "candidate set must include the workflow root");

  // Decision variables.
  //
  // Branching priorities steer the solver toward the true decisions: root
  // membership choices y_{s,r} with s ∈ R determine everything else via
  // propagation (constraint 5 closes subgraphs over non-root successors,
  // constraint 3 empties unreachable ones, constraint 8 pins z, constraint 4
  // pins x). Preferring y = 1 finds low-cost (highly merged) incumbents
  // early, which makes the incumbent-based pruning effective.
  // Blended objective (λ·latency + (1−λ)·$): with an active PlanCostModel,
  // each cross indicator's coefficient becomes λ·w_e plus the scaled dollar
  // delta between cutting and merging the edge, and the constant merge-side
  // dollars move into objective_offset. With λ = 1 (the default) the
  // coefficient is exactly the edge weight and the offset exactly 0 -- this
  // path is byte-identical to the latency-only encoding.
  const PlanCostModel& cost = problem.cost;
  const bool cost_active = cost.active(num_edges);
  out.objective_offset = cost_active ? cost.Offset() : 0.0;
  out.x_var.resize(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    out.x_var[e] = model.AddBinaryVar(/*branch_priority=*/0, /*preferred_value=*/0);
    model.SetObjectiveCoef(out.x_var[e],
                           cost_active
                               ? cost.EdgeCoef(graph.edge(e).weight, cost.cut_cost[e],
                                               cost.merge_cost[e])
                               : graph.edge(e).weight);
  }
  out.y_var.assign(n, std::vector<int>(k, -1));
  for (NodeId i = 0; i < n; ++i) {
    for (int r = 0; r < k; ++r) {
      const int priority = is_root[i] ? 2 : 1;
      out.y_var[i][r] = model.AddBinaryVar(priority, /*preferred_value=*/1);
    }
  }
  // z_{e,r}: edge e internal to subgraph r (linearization of y_i·y_j).
  std::vector<std::vector<int>> z_var(num_edges, std::vector<int>(k, -1));
  for (EdgeId e = 0; e < num_edges; ++e) {
    for (int r = 0; r < k; ++r) {
      z_var[e][r] = model.AddBinaryVar(/*branch_priority=*/-1, /*preferred_value=*/0);
    }
  }

  // (1) Root inclusion: y_{r,r} = 1.
  for (int r = 0; r < k; ++r) {
    model.FixVar(out.y_var[roots[r]][r], 1);
  }

  // (2) Node coverage: Σ_r y_{i,r} >= 1.
  for (NodeId i = 0; i < n; ++i) {
    std::vector<IlpTerm> terms;
    terms.reserve(k);
    for (int r = 0; r < k; ++r) {
      terms.push_back({out.y_var[i][r], 1.0});
    }
    model.AddGreaterEqual(std::move(terms), 1.0);
  }

  // (3) Connectivity: y_{j,r} <= Σ_{(i,j) ∈ E} y_{i,r} for j != root r.
  for (NodeId j = 0; j < n; ++j) {
    for (int r = 0; r < k; ++r) {
      if (j == roots[r]) {
        continue;
      }
      std::vector<IlpTerm> terms;
      terms.push_back({out.y_var[j][r], 1.0});
      for (EdgeId eid : graph.InEdges(j)) {
        terms.push_back({out.y_var[graph.edge(eid).from][r], -1.0});
      }
      model.AddLessEqual(std::move(terms), 0.0);
    }
  }

  // (4) Cross-edge definition: x_{i,j} >= y_{i,r} - y_{j,r}.
  for (EdgeId e = 0; e < num_edges; ++e) {
    const CallEdge& edge = graph.edge(e);
    for (int r = 0; r < k; ++r) {
      model.AddLessEqual(
          {{out.y_var[edge.from][r], 1.0}, {out.y_var[edge.to][r], -1.0}, {out.x_var[e], -1.0}},
          0.0);
    }
  }

  // (5) Cross-edge root rule: edges to non-roots cannot be cut:
  //     y_{i,r} <= y_{j,r} for (i,j) ∈ E with j ∉ R.
  for (EdgeId e = 0; e < num_edges; ++e) {
    const CallEdge& edge = graph.edge(e);
    if (is_root[edge.to]) {
      continue;
    }
    for (int r = 0; r < k; ++r) {
      model.AddLessEqual({{out.y_var[edge.from][r], 1.0}, {out.y_var[edge.to][r], -1.0}}, 0.0);
    }
  }

  // (8) Linearization: z <=> y_i AND y_j.
  for (EdgeId e = 0; e < num_edges; ++e) {
    const CallEdge& edge = graph.edge(e);
    for (int r = 0; r < k; ++r) {
      model.AddLessEqual({{z_var[e][r], 1.0}, {out.y_var[edge.from][r], -1.0}}, 0.0);
      model.AddLessEqual({{z_var[e][r], 1.0}, {out.y_var[edge.to][r], -1.0}}, 0.0);
      model.AddGreaterEqual(
          {{z_var[e][r], 1.0}, {out.y_var[edge.from][r], -1.0}, {out.y_var[edge.to][r], -1.0}},
          -1.0);
    }
  }

  // (4') Cross-edge upper bound, cost runs only. A blended coefficient can
  // go negative (cutting an edge is *cheaper* in dollars than keeping it
  // resident), and constraint 4 only lower-bounds x -- the solver would set
  // such an x_e = 1 on an internal edge to pocket phantom savings. Pin x to
  // the true cross indicator: x_e <= Σ_r (y_{i,r} - z_{e,r}) counts the
  // groups containing i but not j (constraint 8 makes z exactly y_i AND
  // y_j), which is 0 iff the edge is internal everywhere its source lives.
  // Skipped under the latency-only objective, where non-negative
  // coefficients already settle x at its lower bound.
  if (cost_active) {
    for (EdgeId e = 0; e < num_edges; ++e) {
      const CallEdge& edge = graph.edge(e);
      std::vector<IlpTerm> terms = {{out.x_var[e], 1.0}};
      for (int r = 0; r < k; ++r) {
        terms.push_back({out.y_var[edge.from][r], -1.0});
        terms.push_back({z_var[e][r], 1.0});
      }
      model.AddLessEqual(std::move(terms), 0.0);
    }
  }

  // (6) Memory and (7) CPU capacity per subgraph.
  for (int r = 0; r < k; ++r) {
    const FunctionNode& root_node = graph.node(roots[r]);
    std::vector<IlpTerm> mem_terms;
    std::vector<IlpTerm> cpu_terms;
    for (EdgeId e = 0; e < num_edges; ++e) {
      const CallEdge& edge = graph.edge(e);
      const FunctionNode& callee = graph.node(edge.to);
      double mem_coef = callee.memory;
      if (edge.type == CallType::kAsync) {
        mem_coef += callee.memory * (edge.alpha - 1);
      }
      mem_terms.push_back({z_var[e][r], mem_coef});
      cpu_terms.push_back({z_var[e][r], callee.cpu * edge.alpha});
    }
    model.AddLessEqual(std::move(mem_terms), problem.memory_limit - root_node.memory);
    model.AddLessEqual(std::move(cpu_terms), problem.cpu_limit - root_node.cpu);
  }

  return out;
}

MergeSolution AssignmentIlp::Decode(const CallGraph& graph, const IlpSolution& solution) const {
  assert(solution.has_solution());
  MergeSolution out;
  for (size_t r = 0; r < roots.size(); ++r) {
    MergeGroup group;
    group.root = roots[r];
    for (NodeId i = 0; i < graph.num_nodes(); ++i) {
      if (solution.values[y_var[i][r]] != 0) {
        group.members.push_back(i);
      }
    }
    out.groups.push_back(std::move(group));
  }
  out.cross_cost = objective_offset != 0.0 ? solution.objective + objective_offset
                                           : solution.objective;
  return out;
}

Result<MergeSolution> SolveForRootsCompact(const MergeProblem& problem,
                                           const std::vector<NodeId>& roots,
                                           const IlpSolveOptions& options) {
  const CallGraph& graph = *problem.graph;
  const int n = graph.num_nodes();
  const int k = static_cast<int>(roots.size());

  std::vector<int> root_index(n, -1);
  for (int r = 0; r < k; ++r) {
    root_index[roots[r]] = r;
  }
  assert(root_index[graph.root()] != -1 && "candidate set must include the workflow root");

  // Region of each root: nodes reachable without stepping into another root.
  std::vector<std::vector<bool>> in_region(k, std::vector<bool>(n, false));
  std::vector<std::vector<NodeId>> region_nodes(k);
  for (int s = 0; s < k; ++s) {
    std::deque<NodeId> queue = {roots[s]};
    in_region[s][roots[s]] = true;
    while (!queue.empty()) {
      const NodeId id = queue.front();
      queue.pop_front();
      region_nodes[s].push_back(id);
      for (EdgeId eid : graph.OutEdges(id)) {
        const NodeId next = graph.edge(eid).to;
        if (root_index[next] != -1 || in_region[s][next]) {
          continue;  // Expansion stops at other roots.
        }
        in_region[s][next] = true;
        queue.push_back(next);
      }
    }
  }

  // Per-region resource footprints over edges to non-roots (internal iff the
  // region is absorbed), and per-root "absorption" footprints over all
  // in-edges (charged in full when the root is absorbed -- conservative).
  auto edge_mem = [&](const CallEdge& e) {
    double mem = graph.node(e.to).memory;
    if (e.type == CallType::kAsync) {
      mem += graph.node(e.to).memory * (e.alpha - 1);
    }
    return mem;
  };
  std::vector<double> region_cpu(k, 0.0);
  std::vector<double> region_mem(k, 0.0);
  for (int s = 0; s < k; ++s) {
    for (NodeId id : region_nodes[s]) {
      for (EdgeId eid : graph.OutEdges(id)) {
        const CallEdge& e = graph.edge(eid);
        if (root_index[e.to] != -1) {
          continue;
        }
        region_cpu[s] += e.alpha * graph.node(e.to).cpu;
        region_mem[s] += edge_mem(e);
      }
    }
  }
  std::vector<double> absorb_cpu(k, 0.0);
  std::vector<double> absorb_mem(k, 0.0);
  for (int j = 0; j < k; ++j) {
    for (EdgeId eid : graph.InEdges(roots[j])) {
      const CallEdge& e = graph.edge(eid);
      absorb_cpu[j] += e.alpha * graph.node(e.to).cpu;
      absorb_mem[j] += edge_mem(e);
    }
  }

  // Which regions can feed root j (an edge from the region into j)?
  std::vector<std::vector<bool>> feeds(k, std::vector<bool>(k, false));
  for (const CallEdge& e : graph.edges()) {
    const int j = root_index[e.to];
    if (j == -1) {
      continue;
    }
    for (int s = 0; s < k; ++s) {
      if (in_region[s][e.from]) {
        feeds[s][j] = true;
      }
    }
  }

  IlpModel model;
  // a[s][r]: subgraph rooted at roots[r] absorbs region(roots[s]).
  std::vector<std::vector<int>> a(k, std::vector<int>(k));
  for (int s = 0; s < k; ++s) {
    for (int r = 0; r < k; ++r) {
      a[s][r] = model.AddBinaryVar(/*branch_priority=*/2, /*preferred_value=*/s == r ? 1 : 0);
    }
    model.FixVar(a[s][s], 1);
  }
  // x[e]: cross-edge indicator, only edges into roots can be cut. Under an
  // active PlanCostModel the coefficient is the blended λ·w + (1−λ)·$ delta,
  // clamped at 0: the compact encoding has no exact upper bound on x, so a
  // negative coefficient would let the solver claim phantom savings on
  // internal edges. Clamping is conservative (it never under-counts a
  // plan's blended cost relative to the full encoding's optimum) and only
  // engages on >threshold-node graphs.
  const PlanCostModel& cost = problem.cost;
  const bool cost_active = cost.active(graph.num_edges());
  const double objective_offset = cost_active ? cost.Offset() : 0.0;
  std::map<EdgeId, int> x;
  for (EdgeId eid = 0; eid < graph.num_edges(); ++eid) {
    if (root_index[graph.edge(eid).to] != -1) {
      x[eid] = model.AddBinaryVar(/*branch_priority=*/0, /*preferred_value=*/0);
      model.SetObjectiveCoef(
          x[eid], cost_active
                      ? std::max(0.0, cost.EdgeCoef(graph.edge(eid).weight, cost.cut_cost[eid],
                                                    cost.merge_cost[eid]))
                      : graph.edge(eid).weight);
    }
  }

  // Coverage: every region absorbed somewhere.
  for (int s = 0; s < k; ++s) {
    std::vector<IlpTerm> terms;
    for (int r = 0; r < k; ++r) {
      terms.push_back({a[s][r], 1.0});
    }
    model.AddGreaterEqual(std::move(terms), 1.0);
  }
  // Connectivity: an absorbed root needs an in-edge from an absorbed region.
  for (int s = 0; s < k; ++s) {
    for (int r = 0; r < k; ++r) {
      if (s == r) {
        continue;
      }
      std::vector<IlpTerm> terms = {{a[s][r], 1.0}};
      for (int s2 = 0; s2 < k; ++s2) {
        if (s2 != s && feeds[s2][s]) {
          terms.push_back({a[s2][r], -1.0});
        }
      }
      model.AddLessEqual(std::move(terms), 0.0);
    }
  }
  // Cross-edge definition: edge (i, roots[j]) is cut if a subgraph absorbs a
  // region containing i but not the target root.
  for (const auto& [eid, x_var] : x) {
    const CallEdge& e = graph.edge(eid);
    const int j = root_index[e.to];
    for (int s = 0; s < k; ++s) {
      if (!in_region[s][e.from]) {
        continue;
      }
      for (int r = 0; r < k; ++r) {
        model.AddLessEqual({{a[s][r], 1.0}, {a[j][r], -1.0}, {x_var, -1.0}}, 0.0);
      }
    }
  }
  // Resources.
  for (int r = 0; r < k; ++r) {
    std::vector<IlpTerm> cpu_terms;
    std::vector<IlpTerm> mem_terms;
    for (int s = 0; s < k; ++s) {
      double cpu = region_cpu[s];
      double mem = region_mem[s];
      if (s != r) {
        cpu += absorb_cpu[s];
        mem += absorb_mem[s];
      }
      cpu_terms.push_back({a[s][r], cpu});
      mem_terms.push_back({a[s][r], mem});
    }
    model.AddLessEqual(std::move(cpu_terms), problem.cpu_limit - graph.node(roots[r]).cpu);
    model.AddLessEqual(std::move(mem_terms),
                       problem.memory_limit - graph.node(roots[r]).memory);
  }

  IlpSolver solver;
  // Callers express cutoffs offset-inclusive; the raw ILP objective has the
  // constant merge-side dollars removed.
  IlpSolveOptions raw_options = options;
  if (objective_offset != 0.0 && std::isfinite(raw_options.cutoff)) {
    raw_options.cutoff -= objective_offset;
  }
  const IlpSolution solution = solver.Solve(model, raw_options);
  switch (solution.status) {
    case IlpStatus::kOptimal:
    case IlpStatus::kFeasible:
      break;
    case IlpStatus::kInfeasible:
      return InfeasibleError("no valid assignment for candidate root set (compact)");
    case IlpStatus::kNoBetterThanCutoff:
      return InfeasibleError("no assignment beats the cutoff for candidate root set (compact)");
    case IlpStatus::kLimitReached:
      return DeadlineExceededError("ILP node limit reached before finding a solution");
  }

  MergeSolution out;
  for (int r = 0; r < k; ++r) {
    MergeGroup group;
    group.root = roots[r];
    std::vector<bool> member(n, false);
    for (int s = 0; s < k; ++s) {
      if (solution.values[a[s][r]] == 0) {
        continue;
      }
      for (NodeId id : region_nodes[s]) {
        member[id] = true;
      }
    }
    for (NodeId id = 0; id < n; ++id) {
      if (member[id]) {
        group.members.push_back(id);
      }
    }
    out.groups.push_back(std::move(group));
  }
  out.cross_cost = objective_offset != 0.0 ? solution.objective + objective_offset
                                           : solution.objective;
  return out;
}

Result<MergeSolution> SolveForRoots(const MergeProblem& problem,
                                    const std::vector<NodeId>& roots,
                                    const IlpSolveOptions& options) {
  if (problem.graph->num_nodes() > kCompactEncodingThreshold) {
    return SolveForRootsCompact(problem, roots, options);
  }
  AssignmentIlp encoded = BuildAssignmentIlp(problem, roots);
  IlpSolver solver;
  // Callers express cutoffs offset-inclusive (they compare against decoded
  // cross_cost values); the raw ILP objective excludes the constant.
  IlpSolveOptions raw_options = options;
  if (encoded.objective_offset != 0.0 && std::isfinite(raw_options.cutoff)) {
    raw_options.cutoff -= encoded.objective_offset;
  }
  const IlpSolution solution = solver.Solve(encoded.model, raw_options);
  switch (solution.status) {
    case IlpStatus::kOptimal:
    case IlpStatus::kFeasible:
      return encoded.Decode(*problem.graph, solution);
    case IlpStatus::kInfeasible:
      return InfeasibleError("no valid assignment for candidate root set");
    case IlpStatus::kNoBetterThanCutoff:
      return InfeasibleError("no assignment beats the cutoff for candidate root set");
    case IlpStatus::kLimitReached:
      return DeadlineExceededError("ILP node limit reached before finding a solution");
  }
  return InternalError("unreachable");
}

}  // namespace quilt
