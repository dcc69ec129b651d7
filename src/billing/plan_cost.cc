#include "src/billing/plan_cost.h"

#include <cmath>

namespace quilt {

std::map<std::string, double> MeanExecSecondsBySpan(const std::vector<Span>& spans) {
  std::map<std::string, std::pair<double, int64_t>> sums;  // handle -> (sum_s, count)
  for (const Span& span : spans) {
    if (span.exec_end <= span.exec_start) {
      continue;  // Never dispatched.
    }
    auto& [sum, count] = sums[span.callee];
    sum += static_cast<double>(span.exec_end - span.exec_start) * 1e-9;
    ++count;
  }
  std::map<std::string, double> means;
  for (const auto& [handle, entry] : sums) {
    means[handle] = entry.first / static_cast<double>(entry.second);
  }
  return means;
}

PlanCostModel BuildPlanCostModel(const CallGraph& graph, const PlanCostInputs& inputs) {
  const PricingProfile& card = inputs.profile;
  PlanCostModel model;
  const int num_edges = graph.num_edges();
  model.cut_cost.resize(num_edges, 0.0);
  model.merge_cost.resize(num_edges, 0.0);

  auto exec_of = [&](const std::string& handle) {
    auto it = inputs.exec_seconds.find(handle);
    return it != inputs.exec_seconds.end() ? it->second : inputs.default_exec_seconds;
  };
  const double fee = static_cast<double>(card.request_fee_nanos) * 1e-9;
  const double mem_rate_per_mb = static_cast<double>(card.gb_second_nanos) * 1e-9 / 1024.0;

  for (EdgeId eid = 0; eid < num_edges; ++eid) {
    const CallEdge& e = graph.edge(eid);
    const FunctionNode& caller = graph.node(e.from);
    const FunctionNode& callee = graph.node(e.to);
    const double d_caller = exec_of(caller.name);
    const double d_callee = exec_of(callee.name);
    const double callee_rate = card.DollarsPerSecond(callee.memory, callee.cpu);
    // Cut: each of the w_e calls is its own billed invocation -- request fee
    // plus the callee's granularity-rounded window at the callee's shape.
    const double billed_s =
        static_cast<double>(card.BilledDurationUs(
            static_cast<int64_t>(std::ceil(d_callee * 1e6)))) *
        1e-6;
    model.cut_cost[eid] = e.weight * (fee + billed_s * callee_rate);
    // Merged: no fee and no rounding. A sync callee's compute already sits
    // inside the caller's billed window (the caller blocks on the call
    // whether it is local or remote), so localizing it adds no window time;
    // an async callee's work joins the host's window and extends it. Either
    // way the callee's memory is resident for the caller's whole window --
    // the merged container bills its max footprint throughout.
    const double window_s = e.type == CallType::kAsync ? d_callee : 0.0;
    model.merge_cost[eid] =
        e.weight * (window_s * callee_rate + d_caller * mem_rate_per_mb * callee.memory);
  }

  // Normalize: the all-cut plan's dollars weigh like its latency cost, so
  // λ = 0.5 means "a dollar of (relative) bill hurts as much as a unit of
  // (relative) cross-edge weight".
  double all_cut = 0.0;
  for (double c : model.cut_cost) {
    all_cut += c;
  }
  const double total_weight = graph.TotalEdgeWeight();
  model.scale = all_cut > 0.0 ? total_weight / all_cut : 1.0;
  model.base = 0.0;
  return model;
}

}  // namespace quilt
