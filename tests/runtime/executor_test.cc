#include "src/runtime/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

namespace quilt {
namespace {

// Records remote invocations and answers them after a configurable delay.
class FakeInvoker : public Invoker {
 public:
  explicit FakeInvoker(Simulation* sim, SimDuration delay = Milliseconds(2))
      : sim_(sim), delay_(delay) {}

  void Invoke(InvokeRequest&& request) override {
    calls.push_back({request.caller, request.callee, request.async});
    auto done = std::move(request.done);
    if (fail_all) {
      sim_->Schedule(delay_, [done] { done(InternalError("remote failure")); });
      return;
    }
    Json response = Json::MakeObject();
    response["fn"] = request.callee;
    sim_->Schedule(delay_, [done, response] { done(response); });
  }

  struct Call {
    std::string caller;
    std::string callee;
    bool async;
  };
  std::vector<Call> calls;
  bool fail_all = false;

 private:
  Simulation* sim_;
  SimDuration delay_;
};

struct Harness {
  Simulation sim;
  RuntimeCosts costs;
  FakeInvoker invoker{&sim};
  std::shared_ptr<Container> container;
  ExecutionEnv env;
  bool oom_triggered = false;

  explicit Harness(ContainerConfig config = {}) {
    container = std::make_shared<Container>(&sim, "dep", 1, config);
    container->set_state(ContainerState::kReady);
    env.sim = &sim;
    env.container = container;
    env.remote = &invoker;
    env.costs = &costs;
    env.trigger_kill = [this](KillReason reason) {
      oom_triggered = reason == KillReason::kOom || oom_triggered;
      container->Kill();
    };
  }
};

DeployedBehavior Single(FunctionBehavior behavior) {
  DeployedBehavior deployed;
  deployed.single = std::make_shared<FunctionBehavior>(std::move(behavior));
  return deployed;
}

TEST(ExecutorTest, ComputeAndSleepSequencing) {
  Harness h;
  FunctionBehavior fn;
  fn.handle = "f";
  fn.steps = {ComputeStep{4.0}, SleepStep{6.0}};
  Result<Json> response = InternalError("unset");
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), /*remote_entry=*/true,
                 [&](Result<Json> r) { response = std::move(r); });
  h.sim.Run();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->Get("fn").AsString(), "f");
  EXPECT_TRUE(response->Get("ok").AsBool());
  // handler cpu 0.15ms + 4ms compute + 6ms sleep = 10.15ms.
  EXPECT_NEAR(static_cast<double>(h.sim.now()), static_cast<double>(Milliseconds(10.15)), 2e5);
}

TEST(ExecutorTest, LocalEntrySkipsHandlerCpu) {
  Harness h;
  FunctionBehavior fn;
  fn.handle = "f";
  fn.steps = {ComputeStep{4.0}};
  bool done = false;
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), /*remote_entry=*/false,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(static_cast<double>(h.sim.now()), static_cast<double>(Milliseconds(4.0)), 1e5);
}

TEST(ExecutorTest, RemoteCallsGoThroughInvoker) {
  Harness h;
  FunctionBehavior fn;
  fn.handle = "caller";
  fn.steps = {CallStep{{CallItem{"callee", 2, false}}, /*parallel=*/false}};
  bool done = false;
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), true,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  ASSERT_EQ(h.invoker.calls.size(), 2u);
  EXPECT_EQ(h.invoker.calls[0].caller, "caller");
  EXPECT_EQ(h.invoker.calls[0].callee, "callee");
  EXPECT_FALSE(h.invoker.calls[0].async);
}

TEST(ExecutorTest, ParallelCallsOverlap) {
  Harness h;
  FunctionBehavior fn;
  fn.handle = "caller";
  fn.steps = {CallStep{{CallItem{"a", 1, false}, CallItem{"b", 1, false}}, /*parallel=*/true}};
  bool done = false;
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), false,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.invoker.calls.size(), 2u);
  EXPECT_TRUE(h.invoker.calls[0].async);
  // Two parallel 2ms remote calls finish in ~2ms (+serialize cpu), not 4ms.
  EXPECT_LT(h.sim.now(), Milliseconds(3.5));
}

TEST(ExecutorTest, SequentialCallsAccumulate) {
  Harness h;
  FunctionBehavior fn;
  fn.handle = "caller";
  fn.steps = {CallStep{{CallItem{"a", 1, false}, CallItem{"b", 1, false}}, /*parallel=*/false}};
  bool done = false;
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), false,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(h.sim.now(), Milliseconds(4.0));  // 2 x 2ms remote, serialized.
}

TEST(ExecutorTest, RemoteFailurePropagates) {
  Harness h;
  h.invoker.fail_all = true;
  FunctionBehavior fn;
  fn.handle = "caller";
  fn.steps = {CallStep{{CallItem{"x", 1, false}}, false}, ComputeStep{100.0}};
  Result<Json> response = Json();
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), false,
                 [&](Result<Json> r) { response = std::move(r); });
  h.sim.Run();
  EXPECT_FALSE(response.ok());
  // The failing call short-circuits: the 100ms compute never ran.
  EXPECT_LT(h.sim.now(), Milliseconds(50));
}

TEST(ExecutorTest, DataDependentFanOutReadsPayload) {
  Harness h;
  FunctionBehavior fn;
  fn.handle = "caller";
  fn.steps = {CallStep{{CallItem{"callee", 3, true}}, true}};
  Json payload = Json::MakeObject();
  payload["num"] = 7;
  bool done = false;
  ExecuteRequest(h.env, Single(fn), payload, false, [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.invoker.calls.size(), 7u);  // Payload overrides the static 3.
}

TEST(ExecutorTest, OomKillFailsRequest) {
  ContainerConfig config;
  config.memory_limit_mb = 30.0;
  config.base_memory_mb = 20.0;
  Harness h(config);
  FunctionBehavior fn;
  fn.handle = "pig";
  fn.request_memory_mb = 5.0;
  fn.steps = {AllocStep{50.0}};  // Blows the limit mid-run.
  Result<Json> response = Json();
  ExecuteRequest(h.env, Single(fn), Json::MakeObject(), true,
                 [&](Result<Json> r) { response = std::move(r); });
  h.sim.Run();
  EXPECT_TRUE(h.oom_triggered);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kAborted);
}

// ---- Merged (Quilt) behavior ----

DeployedBehavior QuiltMerged(int budget) {
  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kQuilt;
  merged->root_handle = "root";
  FunctionBehavior root;
  root.handle = "root";
  root.steps = {CallStep{{CallItem{"leaf", 4, false}}, /*parallel=*/false}};
  FunctionBehavior leaf;
  leaf.handle = "leaf";
  leaf.steps = {ComputeStep{1.0}};
  merged->functions["root"] = root;
  merged->functions["leaf"] = leaf;
  merged->edge_budgets[MergedBehavior::EdgeKey("root", "leaf")] = budget;
  DeployedBehavior deployed;
  deployed.merged = merged;
  return deployed;
}

TEST(ExecutorTest, MergedLocalCallsSkipRemote) {
  Harness h;
  bool done = false;
  // Budget 0 = unconditional local.
  ExecuteRequest(h.env, QuiltMerged(0), Json::MakeObject(), true,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(h.invoker.calls.empty());
  // 4 sequential 1ms local executions + handler cpu; local overhead is ns.
  EXPECT_NEAR(static_cast<double>(h.sim.now()), static_cast<double>(Milliseconds(4.15)), 3e5);
}

TEST(ExecutorTest, ConditionalBudgetFallsBackToRemote) {
  Harness h;
  bool done = false;
  // Budget 2 of 4 calls: 2 local + 2 remote.
  ExecuteRequest(h.env, QuiltMerged(2), Json::MakeObject(), true,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.invoker.calls.size(), 2u);
}

TEST(ExecutorTest, LazyHttpLoadChargedOnFirstFallback) {
  ContainerConfig config;
  config.lazy_libs = 41;
  Harness h(config);
  bool done = false;
  ExecuteRequest(h.env, QuiltMerged(2), Json::MakeObject(), true,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  // First remote fallback paid 41 * 110us of lazy library loading.
  EXPECT_GT(h.sim.now(), Milliseconds(2 + 4 + 4));  // locals + 2 remotes + lazy.
}

TEST(ExecutorTest, NonLocalizedEdgeStaysRemote) {
  Harness h;
  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kQuilt;
  merged->root_handle = "root";
  FunctionBehavior root;
  root.handle = "root";
  root.steps = {CallStep{{CallItem{"external", 1, false}}, false}};
  merged->functions["root"] = root;
  DeployedBehavior deployed;
  deployed.merged = merged;
  bool done = false;
  ExecuteRequest(h.env, deployed, Json::MakeObject(), true,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.invoker.calls.size(), 1u);
  EXPECT_EQ(h.invoker.calls[0].callee, "external");
}

// ---- Container-merge (CM) behavior ----

TEST(ExecutorTest, ContainerMergeSpawnsProcessesInContainer) {
  ContainerConfig config;
  config.memory_limit_mb = 512.0;
  Harness h(config);
  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kContainerMerge;
  merged->root_handle = "root";
  FunctionBehavior root;
  root.handle = "root";
  root.steps = {CallStep{{CallItem{"leaf", 1, false}}, false}};
  FunctionBehavior leaf;
  leaf.handle = "leaf";
  leaf.steps = {ComputeStep{1.0}};
  merged->functions["root"] = root;
  merged->functions["leaf"] = leaf;
  DeployedBehavior deployed;
  deployed.merged = merged;

  bool done = false;
  ExecuteRequest(h.env, deployed, Json::MakeObject(), true,
                 [&](Result<Json> r) { done = r.ok(); });
  h.sim.Run();
  EXPECT_TRUE(done);
  // Stays in-container (no platform invoke) but pays internal gateway +
  // process spawn + serialization on both sides.
  EXPECT_TRUE(h.invoker.calls.empty());
  EXPECT_GT(h.sim.now(), Milliseconds(2.0));
  // The spawned process footprint peaked above base + request memory.
  EXPECT_GT(h.container->peak_memory_mb(),
            h.container->config().base_memory_mb + 16.0);
}

TEST(ExecutorTest, ContainerMergeOomsUnderTightLimit) {
  ContainerConfig config;
  config.memory_limit_mb = 40.0;  // base 20 + root 1 + process 16 + leaf 1 > 40.
  Harness h(config);
  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kContainerMerge;
  merged->root_handle = "root";
  FunctionBehavior root;
  root.handle = "root";
  root.request_memory_mb = 4.0;
  root.steps = {CallStep{{CallItem{"leaf", 1, false}}, false}};
  FunctionBehavior leaf;
  leaf.handle = "leaf";
  leaf.request_memory_mb = 4.0;
  leaf.steps = {ComputeStep{1.0}};
  merged->functions["root"] = root;
  merged->functions["leaf"] = leaf;
  DeployedBehavior deployed;
  deployed.merged = merged;

  Result<Json> response = Json();
  ExecuteRequest(h.env, deployed, Json::MakeObject(), true,
                 [&](Result<Json> r) { response = std::move(r); });
  h.sim.Run();
  EXPECT_TRUE(h.oom_triggered);
  EXPECT_FALSE(response.ok());
}

}  // namespace
}  // namespace quilt
