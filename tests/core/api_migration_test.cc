// API-surface guarantees: MetricsView is the controller's one query surface
// and reads exactly what the controller's stores hold, and misconfigured
// options surface as typed statuses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/deathstarbench.h"
#include "src/core/quilt_controller.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

TEST(ApiMigrationTest, MetricsViewMatchesControllerMethods) {
  Simulation sim;
  PlatformConfig config;
  config.max_nodes = 2;
  config.node_cpu = 8.0;
  config.node_memory_mb = 2048.0;
  Platform platform{&sim, config};
  QuiltController controller(&sim, &platform, {});
  ASSERT_TRUE(controller.RegisterWorkflow(FanOutApp(4)).ok());
  controller.StartProfiling();

  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options load;
  load.connections = 2;
  load.warmup = Seconds(1);
  load.duration = Seconds(8);
  generator.Run(&sim, &platform, "fan-out-root", load);
  controller.StopProfiling();
  ASSERT_TRUE(controller.OptimizeWorkflow("fan-out-root").ok());

  MetricsView metrics = controller.metrics();

  // Trace collection is a window query, not a drain: two calls see the same
  // traces, and the summary is the assembler's over exactly those traces.
  const std::vector<Trace> traces = metrics.CollectTraces();
  EXPECT_EQ(metrics.CollectTraces().size(), traces.size());
  const WorkflowLatencySummary direct =
      SummarizeWorkflowLatency("fan-out-root", traces, sim.now(), TraceVersionFilter::kAll);
  Result<WorkflowLatencySummary> viewed = metrics.SummarizeWorkflowLatency("fan-out-root");
  ASSERT_TRUE(viewed.ok());
  EXPECT_GT(viewed->traces, 0);
  EXPECT_EQ(viewed->traces, direct.traces);
  EXPECT_EQ(viewed->end_to_end.p99, direct.end_to_end.p99);
  EXPECT_EQ(metrics.workflow_latency().size(), 1u);

  // Record streams come from the same store the controller owns.
  EXPECT_EQ(&metrics.decisions(), &controller.metrics_store()->decisions());
  EXPECT_EQ(&metrics.adaptations(), &controller.metrics_store()->adaptations());
  EXPECT_EQ(&metrics.node_samples(), &controller.metrics_store()->node_samples());
  EXPECT_EQ(&metrics.cost_records(), &controller.metrics_store()->cost_records());
  EXPECT_FALSE(metrics.decisions().empty());
  EXPECT_FALSE(metrics.node_samples().empty());

  const QuiltController::CostReport report = metrics.CollectCostReport();
  EXPECT_EQ(report.infra_nanos,
            platform.cost_meter()
                .InfraCostFromNodes(controller.metrics_store()->node_samples())
                .node_nanos);
}

// Misconfigured controller options surface as a typed status on the API
// surface, not a crash deep in the decision engine.
TEST(ApiMigrationTest, ControllerOptionsValidateGatesRegistration) {
  ControllerOptions bad;
  bad.cost.cost_weight = 1.5;  // λ outside [0, 1].
  EXPECT_FALSE(bad.Validate().ok());

  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller(&sim, &platform, bad);
  EXPECT_FALSE(controller.options_status().ok());
  EXPECT_EQ(controller.RegisterWorkflow(FanOutApp(4)).code(), StatusCode::kInvalidArgument);

  ControllerOptions no_threads;
  no_threads.decision.grasp_threads = 0;
  EXPECT_FALSE(no_threads.Validate().ok());
}

}  // namespace
}  // namespace quilt
