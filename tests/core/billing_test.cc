// Per-function billing inside merged processes (§8): the paper notes that
// merged functions obscure the billing boundary and suggests instrumenting
// the merged code; this extension implements it. CPU time is attributed to
// the function whose compute burst ran, whether it executes in its own
// container or fused into a merged process.
#include <gtest/gtest.h>

#include "src/apps/deathstarbench.h"
#include "src/core/quilt_controller.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller{&sim, &platform};
};

LoadResult RunLoad(Harness& h, const std::string& target) {
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.warmup = Seconds(2);
  options.duration = Seconds(15);
  return generator.Run(&h.sim, &h.platform, target, options);
}

TEST(BillingTest, BaselineAttributesCpuPerFunction) {
  Harness h;
  const WorkflowApp app = ReadHomeTimeline();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  const LoadResult load = RunLoad(h, app.root_handle);
  ASSERT_GT(load.completed, 10);
  EXPECT_GT(h.platform.cost_meter().BilledCpuSeconds("read-home-timeline"), 0.0);
  EXPECT_GT(h.platform.cost_meter().BilledCpuSeconds("post-storage-read"), 0.0);
  EXPECT_EQ(h.platform.cost_meter().BilledCpuSeconds("nonexistent"), 0.0);
  // The leaf burns more CPU per request (0.45ms vs 0.5ms + http)... both in
  // the same ballpark; per-request shares should scale with the workload.
  const double per_request =
      h.platform.cost_meter().BilledCpuSeconds("post-storage-read") /
      static_cast<double>(load.completed);
  EXPECT_NEAR(per_request, (0.45 + 0.15) / 1000.0, 0.3e-3);
}

TEST(BillingTest, MergedProcessStillBillsEveryMemberFunction) {
  Harness h;
  const WorkflowApp app = ComposePost(false);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(h.controller.DeploySolutionDirect(app, FullMergeSolution(*graph)).ok());

  const LoadResult load = RunLoad(h, app.root_handle);
  ASSERT_GT(load.completed, 10);

  // Every member function accrues billed CPU even though only one
  // deployment ("compose-post") exists on the platform.
  for (const AppFunctionSpec& fn : app.functions) {
    EXPECT_GT(h.platform.cost_meter().BilledCpuSeconds(fn.handle), 0.0) << fn.handle;
  }
  // Attribution is proportional to each function's compute: text-service
  // burns 0.7ms vs media-service 0.4ms per request.
  const double text = h.platform.cost_meter().BilledCpuSeconds("text-service");
  const double media = h.platform.cost_meter().BilledCpuSeconds("media-service");
  EXPECT_GT(text, media);
  EXPECT_NEAR(text / media, 0.7 / 0.4, 0.35);
}

TEST(BillingTest, MergedBillingMatchesBaselineShares) {
  // The merged process bills *less* total CPU (no per-hop HTTP work) but the
  // members' relative shares of pure compute stay comparable.
  const WorkflowApp app = ReadUserReview();

  Harness baseline;
  ASSERT_TRUE(baseline.controller.RegisterWorkflow(app).ok());
  const LoadResult base_load = RunLoad(baseline, app.root_handle);

  Harness merged;
  ASSERT_TRUE(merged.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(merged.controller.DeploySolutionDirect(app, FullMergeSolution(*graph)).ok());
  const LoadResult merged_load = RunLoad(merged, app.root_handle);

  const double base_leaf = baseline.platform.cost_meter().BilledCpuSeconds("user-review-storage") /
                           static_cast<double>(base_load.completed);
  const double merged_leaf = merged.platform.cost_meter().BilledCpuSeconds("user-review-storage") /
                             static_cast<double>(merged_load.completed);
  // Merged leaf lacks the per-request HTTP handler work (0.15 ms).
  EXPECT_NEAR(base_leaf - merged_leaf, 0.15e-3, 0.05e-3);
}

}  // namespace
}  // namespace quilt
