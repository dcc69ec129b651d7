// Every path that ends a version or a replica must answer the requests
// queued behind it. Each row runs one deployment that serves one request at a
// time on one replica, sends its requests at t = 0 so that all but the first
// queue, ends the busy replica or its version at 150 ms, and runs the
// simulation dry. Every Invoke must be answered exactly once, with the
// status the row names.
#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/platform/platform.h"

namespace quilt {
namespace {

constexpr char kFn[] = "fn";

// 200 ms per request, one request per replica at a time. The 10 MiB image
// makes a cold start take 130 ms, so the first request is still running at
// 150 ms (and at 300 ms) while the others wait.
DeploymentSpec SlowFunction(int max_scale) {
  DeploymentSpec spec;
  spec.handle = kFn;
  spec.max_scale = max_scale;
  spec.max_concurrent_requests = 1;
  spec.container.cpu_limit = 2.0;
  spec.container.memory_limit_mb = 128.0;
  spec.container.base_memory_mb = 5.0;
  spec.container.image_size_bytes = 10 * 1024 * 1024;
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = kFn;
  behavior->steps = {SleepStep{200.0}};
  spec.behavior.single = std::move(behavior);
  return spec;
}

struct Row {
  std::string name;
  int max_scale = 1;
  int invokes = 3;
  // Fleet and fault plan, before the platform is built.
  std::function<void(PlatformConfig&)> configure = [](PlatformConfig&) {};
  // Runs after Deploy and before the t = 0 invokes.
  std::function<void(Platform&)> before = [](Platform&) {};
  // The swap or removal at 150 ms (and later); scheduled faults live in
  // `configure` instead.
  std::function<void(Simulation&, Platform&)> events = [](Simulation&, Platform&) {};
  // The statuses the invokes are answered with, in any order: the router
  // queues the first invoke behind the two that skip its stale-route stall.
  std::vector<StatusCode> expected;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

void At(Simulation& sim, SimDuration when, std::function<void()> fn) {
  sim.Schedule(when - sim.now(), std::move(fn));
}

const StatusCode kOk = StatusCode::kOk;
const StatusCode kAborted = StatusCode::kAborted;
const StatusCode kNotFound = StatusCode::kNotFound;

std::vector<Row> Rows() {
  std::vector<Row> rows;
  rows.push_back({.name = "update",
                  .events =
                      [](Simulation& sim, Platform& platform) {
                        At(sim, Milliseconds(150), [&platform] {
                          ASSERT_TRUE(platform.UpdateFunction(SlowFunction(1)).ok());
                        });
                      },
                  .expected = {kOk, kOk, kOk}});
  rows.push_back({.name = "crash",
                  .configure =
                      [](PlatformConfig& config) {
                        config.fault_plan.crashes = {CrashEvent{kFn, Milliseconds(150)}};
                      },
                  .expected = {kAborted, kOk, kOk}});
  rows.push_back({.name = "node_failure",
                  .configure =
                      [](PlatformConfig& config) {
                        config.max_nodes = 2;
                        config.fault_plan.node_failures = {
                            NodeFailureEvent{0, Milliseconds(150)}};
                      },
                  .expected = {kAborted, kOk, kOk}});
  rows.push_back({.name = "abort",
                  .invokes = 4,
                  .before =
                      [](Platform& platform) {
                        ASSERT_TRUE(platform.StageCanary(SlowFunction(1), 1.0).ok());
                      },
                  .events =
                      [](Simulation& sim, Platform& platform) {
                        At(sim, Milliseconds(150),
                           [&platform] { ASSERT_TRUE(platform.AbortCanary(kFn).ok()); });
                      },
                  .expected = {kOk, kOk, kOk, kOk}});
  rows.push_back({.name = "promote",
                  .before =
                      [](Platform& platform) {
                        ASSERT_TRUE(platform.StageCanary(SlowFunction(1), 0.2).ok());
                      },
                  .events =
                      [](Simulation& sim, Platform& platform) {
                        At(sim, Milliseconds(150),
                           [&platform] { ASSERT_TRUE(platform.PromoteCanary(kFn).ok()); });
                      },
                  .expected = {kOk, kOk, kOk}});
  rows.push_back({.name = "remove",
                  .events =
                      [](Simulation& sim, Platform& platform) {
                        At(sim, Milliseconds(150),
                           [&platform] { ASSERT_TRUE(platform.RemoveFunction(kFn).ok()); });
                      },
                  .expected = {kAborted, kNotFound, kNotFound}});
  // Two busy replicas of a replaced version fill the one node; the third
  // request waits. Removing the function kills both busy replicas.
  rows.push_back({.name = "remove_after_update",
                  .max_scale = 3,
                  .configure =
                      [](PlatformConfig& config) {
                        config.max_nodes = 1;
                        config.node_cpu = 4.0;
                      },
                  .events =
                      [](Simulation& sim, Platform& platform) {
                        At(sim, Milliseconds(150), [&platform] {
                          ASSERT_TRUE(platform.UpdateFunction(SlowFunction(3)).ok());
                        });
                        At(sim, Milliseconds(300),
                           [&platform] { ASSERT_TRUE(platform.RemoveFunction(kFn).ok()); });
                      },
                  .expected = {kAborted, kAborted, kNotFound}});
  return rows;
}

class QueuedRequestTest : public testing::TestWithParam<Row> {};

TEST_P(QueuedRequestTest, EveryInvokeIsAnsweredExactlyOnce) {
  const Row& row = GetParam();
  PlatformConfig config;
  row.configure(config);
  Simulation sim;
  Platform platform(&sim, config);
  ASSERT_TRUE(platform.Deploy(SlowFunction(row.max_scale)).ok());
  row.before(platform);

  std::vector<int> answers(static_cast<size_t>(row.invokes), 0);
  std::vector<std::string> statuses;
  for (int i = 0; i < row.invokes; ++i) {
    platform.Invoke({.caller = kClientCaller,
                     .callee = kFn,
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&answers, &statuses, i](Result<Json> result) {
                       ++answers[static_cast<size_t>(i)];
                       statuses.push_back(StatusCodeName(result.status().code()));
                     }});
  }
  row.events(sim, platform);
  sim.Run();

  for (int i = 0; i < row.invokes; ++i) {
    EXPECT_EQ(answers[static_cast<size_t>(i)], 1) << "invoke " << i;
  }
  std::vector<std::string> expected;
  for (StatusCode code : row.expected) {
    expected.push_back(StatusCodeName(code));
  }
  std::sort(statuses.begin(), statuses.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(statuses, expected);
  EXPECT_EQ(platform.SpawnQueueDepth(), 0);
}

INSTANTIATE_TEST_SUITE_P(Rows, QueuedRequestTest, testing::ValuesIn(Rows()),
                         [](const testing::TestParamInfo<Row>& info) { return info.param.name; });

// A queued attempt that times out and is retried stays queued: it still
// dispatches, runs and is billed, and its late answer is dropped. One
// replica serves 200 ms requests one at a time, so with a 250 ms deadline
// every attempt times out; each invoke is answered exactly once, with the
// second attempt's DEADLINE_EXCEEDED.
TEST(QueuedRetryTest, TimedOutQueuedAttemptRunsIsBilledAndAnswersOnce) {
  PlatformConfig config;
  config.invocation_timeout = Milliseconds(250);
  config.retry.max_attempts = 2;
  Simulation sim;
  Platform platform(&sim, config);
  DeploymentSpec spec = SlowFunction(1);
  spec.idempotent = true;
  ASSERT_TRUE(platform.Deploy(std::move(spec)).ok());

  constexpr int kInvokes = 3;
  std::vector<int> answers(kInvokes, 0);
  std::vector<StatusCode> codes(kInvokes, StatusCode::kOk);
  std::vector<SimTime> answered_at(kInvokes, 0);
  for (int i = 0; i < kInvokes; ++i) {
    platform.Invoke({.caller = kClientCaller,
                     .callee = kFn,
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&, i](Result<Json> result) {
                       const auto at = static_cast<size_t>(i);
                       ++answers[at];
                       codes[at] = result.status().code();
                       answered_at[at] = sim.now();
                     }});
  }
  sim.Run();

  EXPECT_EQ(answers, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(codes, std::vector<StatusCode>(kInvokes, StatusCode::kDeadlineExceeded));
  EXPECT_EQ(answered_at, (std::vector<SimTime>{514497917, 512903428, 514267791}));

  const DeploymentStats* stats = platform.StatsFor(kFn);
  ASSERT_NE(stats, nullptr);
  // All six attempts ran to completion, stale ones included, and were billed.
  EXPECT_EQ(stats->completed, 6);
  EXPECT_EQ(stats->failed, 0);
  EXPECT_EQ(stats->timeouts, 6);
  EXPECT_EQ(stats->retries, 3);
  EXPECT_EQ(stats->retries_exhausted, 3);
  EXPECT_EQ(stats->pending_peak, 5);
  EXPECT_EQ(platform.cost_meter().TotalAttempts(), 6);
}

// A version with max_scale < 1 could never run a replica, so requests routed
// to it would queue forever. Each entry point that installs a version rejects
// it, and one request sent afterwards is answered by what is live.
struct ZeroScaleRow {
  std::string name;
  Status (*install)(Platform& platform);
  StatusCode answer;
};

void PrintTo(const ZeroScaleRow& row, std::ostream* os) { *os << row.name; }

class ZeroMaxScaleTest : public testing::TestWithParam<ZeroScaleRow> {};

TEST_P(ZeroMaxScaleTest, IsRejectedAndTheNextInvokeIsAnswered) {
  const ZeroScaleRow& row = GetParam();
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  EXPECT_STREQ(StatusCodeName(row.install(platform).code()), "INVALID_ARGUMENT");

  int answers = 0;
  std::string answer = "none";
  platform.Invoke({.caller = kClientCaller,
                   .callee = kFn,
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> result) {
                     ++answers;
                     answer = StatusCodeName(result.status().code());
                   }});
  sim.RunUntil(Seconds(600));
  EXPECT_EQ(answers, 1);
  EXPECT_EQ(answer, StatusCodeName(row.answer));
  EXPECT_EQ(sim.pending_events(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, ZeroMaxScaleTest,
    testing::Values(
        ZeroScaleRow{"deploy", [](Platform& platform) { return platform.Deploy(SlowFunction(0)); },
                     kNotFound},
        ZeroScaleRow{"update",
                     [](Platform& platform) {
                       QUILT_RETURN_IF_ERROR(platform.Deploy(SlowFunction(1)));
                       return platform.UpdateFunction(SlowFunction(0));
                     },
                     kOk},
        ZeroScaleRow{"canary",
                     [](Platform& platform) {
                       QUILT_RETURN_IF_ERROR(platform.Deploy(SlowFunction(1)));
                       return platform.StageCanary(SlowFunction(0), 1.0);
                     },
                     kOk}),
    [](const testing::TestParamInfo<ZeroScaleRow>& info) { return info.param.name; });

}  // namespace
}  // namespace quilt
