// Turns a rate card plus measured per-function durations into the solver's
// PlanCostModel: per-edge dollar rates for "cut" (remote call -- pay the
// request fee and the callee's own granularity-rounded billing window) vs
// "merged" (in-process call -- a sync callee rides inside the caller's
// already-billed window for free, an async callee's work extends the host's
// window, and either way the callee's memory stays resident for the
// caller's whole window). This is the Costless trade reframed onto Quilt's
// per-edge ILP.
#ifndef SRC_BILLING_PLAN_COST_H_
#define SRC_BILLING_PLAN_COST_H_

#include <map>
#include <string>
#include <vector>

#include "src/billing/pricing_profile.h"
#include "src/graph/call_graph.h"
#include "src/partition/problem.h"
#include "src/tracing/span.h"

namespace quilt {

struct PlanCostInputs {
  PricingProfile profile;
  // Mean execution seconds per function handle, measured from spans.
  std::map<std::string, double> exec_seconds;
  // Fallback duration for handles with no measured spans.
  double default_exec_seconds = 0.001;
};

// Mean exec window (seconds) per callee handle over the given spans;
// spans that never dispatched (exec window 0/0) are skipped.
std::map<std::string, double> MeanExecSecondsBySpan(const std::vector<Span>& spans);

// Builds the per-edge dollar model for `graph`. The scale is normalized so
// the all-cut plan's dollars weigh like the all-cut plan's latency cost
// (total edge weight), which keeps λ a meaningful dial between the two
// objectives. The returned model's weight stays 1.0 (latency-only); the
// caller stamps its λ on it.
PlanCostModel BuildPlanCostModel(const CallGraph& graph, const PlanCostInputs& inputs);

}  // namespace quilt

#endif  // SRC_BILLING_PLAN_COST_H_
