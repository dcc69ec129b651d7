#include "src/workload/loadgen.h"

#include <gtest/gtest.h>

namespace quilt {
namespace {

// A deterministic fake service with fixed latency.
class FixedLatencyService : public Invoker {
 public:
  FixedLatencyService(Simulation* sim, SimDuration latency) : sim_(sim), latency_(latency) {}

  void Invoke(InvokeRequest&& request) override {
    ++invocations;
    sim_->Schedule(latency_, [done = std::move(request.done)] { done(Json::MakeObject()); });
  }

  int64_t invocations = 0;

 private:
  Simulation* sim_;
  SimDuration latency_;
};

TEST(ClosedLoopTest, OneConnectionSerializesRequests) {
  Simulation sim;
  FixedLatencyService service(&sim, Milliseconds(10));
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.connections = 1;
  options.warmup = Seconds(1);
  options.duration = Seconds(10);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);
  // 10ms per request, closed loop: ~100 rps.
  EXPECT_NEAR(static_cast<double>(result.completed), 1000.0, 20.0);
  EXPECT_EQ(result.failed, 0);
  EXPECT_NEAR(static_cast<double>(result.latency.Median()),
              static_cast<double>(Milliseconds(10)), 1e6);
  EXPECT_NEAR(result.AchievedRps(), 100.0, 3.0);
}

TEST(ClosedLoopTest, MoreConnectionsMoreThroughput) {
  Simulation sim;
  FixedLatencyService service(&sim, Milliseconds(10));
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.connections = 4;
  options.warmup = Seconds(1);
  options.duration = Seconds(5);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);
  EXPECT_NEAR(static_cast<double>(result.completed), 2000.0, 50.0);
}

TEST(ClosedLoopTest, ThinkTimeSlowsRate) {
  Simulation sim;
  FixedLatencyService service(&sim, Milliseconds(10));
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.connections = 1;
  options.warmup = Seconds(1);
  options.duration = Seconds(10);
  options.think_time = Milliseconds(90);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);
  EXPECT_NEAR(static_cast<double>(result.completed), 100.0, 5.0);
}

TEST(OpenLoopTest, ConstantRateOffersLoad) {
  Simulation sim;
  FixedLatencyService service(&sim, Milliseconds(5));
  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 200.0;
  options.warmup = Seconds(1);
  options.duration = Seconds(10);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);
  EXPECT_NEAR(static_cast<double>(result.completed), 2000.0, 20.0);
  EXPECT_DOUBLE_EQ(result.offered_rps, 200.0);
  EXPECT_NEAR(result.AchievedRps(), 200.0, 5.0);
}

TEST(OpenLoopTest, PoissonArrivalsApproximateRate) {
  Simulation sim;
  FixedLatencyService service(&sim, Milliseconds(1));
  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 500.0;
  options.warmup = Seconds(1);
  options.duration = Seconds(20);
  options.poisson = true;
  options.seed = 42;
  const LoadResult result = generator.Run(&sim, &service, "svc", options);
  EXPECT_NEAR(static_cast<double>(result.completed), 10000.0, 400.0);
}

TEST(OpenLoopTest, ZeroRateSendsNothingAndReturns) {
  // rps 0 offers no load: the run sleeps through its window instead of
  // rescheduling an arrival at one instant forever.
  Simulation sim;
  FixedLatencyService service(&sim, Milliseconds(5));
  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 0.0;
  options.warmup = Seconds(1);
  options.duration = Seconds(2);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(service.invocations, 0);
  EXPECT_EQ(sim.now(), options.warmup + options.duration + options.drain_grace);
}

TEST(OpenLoopTest, PayloadFnCustomizesRequests) {
  Simulation sim;
  class PayloadCheck : public Invoker {
   public:
    explicit PayloadCheck(Simulation* sim) : sim_(sim) {}
    void Invoke(InvokeRequest&& request) override {
      sum += request.payload.Get("num").AsInt();
      sim_->Schedule(0, [done = std::move(request.done)] { done(Json::MakeObject()); });
    }
    int64_t sum = 0;

   private:
    Simulation* sim_;
  } service(&sim);

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 100.0;
  options.warmup = 0;
  options.duration = Seconds(1);
  options.payload_fn = [](Rng& rng) {
    Json payload = Json::MakeObject();
    payload["num"] = 5;
    return payload;
  };
  generator.Run(&sim, &service, "svc", options);
  EXPECT_EQ(service.sum % 5, 0);
  EXPECT_GT(service.sum, 0);
}

// A service that fails every second request with a fixed latency, for
// exercising the drain-window accounting on both response branches.
class AlternatingFailureService : public Invoker {
 public:
  AlternatingFailureService(Simulation* sim, SimDuration latency, Status failure)
      : sim_(sim), latency_(latency), failure_(std::move(failure)) {}

  void Invoke(InvokeRequest&& request) override {
    auto done = std::move(request.done);
    const bool fail = (count_++ % 2) == 1;
    Status failure = failure_;
    sim_->Schedule(latency_, [done, fail, failure] {
      if (fail) {
        done(failure);
      } else {
        done(Json::MakeObject());
      }
    });
  }

 private:
  Simulation* sim_;
  SimDuration latency_;
  Status failure_;
  int64_t count_ = 0;
};

// Regression: responses completing during the drain period must be excluded
// from the measured window whether they succeeded or failed. The failure
// branch used to skip the drain check, so a slow failing service inflated
// FailureRate() with drain-period failures whose paired successes were
// dropped.
TEST(OpenLoopTest, DrainExcludesLateFailuresAndSuccessesAlike) {
  Simulation sim;
  AlternatingFailureService service(&sim, Seconds(3), UnavailableError("synthetic"));
  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 1.0;
  options.warmup = 0;
  options.duration = Seconds(10);
  options.drain_grace = Seconds(10);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);

  // Requests sent at t = 0..9s complete at t+3s; only completions at
  // t <= 10s count, i.e. the 8 requests sent by t = 7s: 4 ok, 4 failed.
  // (Pre-fix the failure sent at t = 9s was also counted: 4 ok, 5 failed.)
  EXPECT_EQ(result.completed, 4);
  EXPECT_EQ(result.failed, 4);
  EXPECT_EQ(result.failures_by_cause.at("UNAVAILABLE"), 4);
  EXPECT_EQ(result.timeouts, 0);
}

TEST(OpenLoopTest, ClientTimeoutsBrokenOutInFailureTaxonomy) {
  Simulation sim;
  AlternatingFailureService service(&sim, Milliseconds(1),
                                    DeadlineExceededError("too slow"));
  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 10.0;
  options.warmup = 0;
  options.duration = Seconds(2);
  const LoadResult result = generator.Run(&sim, &service, "svc", options);

  EXPECT_EQ(result.completed + result.failed, 20);
  EXPECT_EQ(result.failed, 10);
  EXPECT_EQ(result.timeouts, result.failed);
  EXPECT_EQ(result.failures_by_cause.at("DEADLINE_EXCEEDED"), result.failed);
}

// A fake service that records each request's payload and answers instantly.
class PayloadRecordingService : public Invoker {
 public:
  explicit PayloadRecordingService(Simulation* sim) : sim_(sim) {}

  void Invoke(InvokeRequest&& request) override {
    nums.push_back(request.payload.Has("num") ? request.payload.Get("num").AsInt() : -1);
    sim_->Schedule(Milliseconds(1),
                   [done = std::move(request.done)] { done(Json::MakeObject()); });
  }

  std::vector<int64_t> nums;

 private:
  Simulation* sim_;
};

TEST(PhasedLoadTest, PerPhaseRowsAndPayloadShift) {
  Simulation sim;
  PayloadRecordingService service(&sim);
  OpenLoopGenerator generator;
  OpenLoopGenerator::PhasedOptions options;
  options.warmup = Seconds(1);
  LoadPhase steady;
  steady.name = "steady";
  steady.rps = 50.0;
  steady.duration = Seconds(10);
  steady.payload = Json::MakeObject();
  steady.payload["num"] = 2;
  LoadPhase shifted;
  shifted.name = "shifted";
  shifted.rps = 100.0;
  shifted.duration = Seconds(5);
  shifted.payload = Json::MakeObject();
  shifted.payload["num"] = 6;
  options.phases = {steady, shifted};

  const std::vector<PhaseResult> rows = generator.RunPhased(&sim, &service, "svc", options);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "steady");
  EXPECT_EQ(rows[1].name, "shifted");
  // Phase windows are contiguous: the shift happens mid-run, in one sim run.
  EXPECT_EQ(rows[0].end, rows[1].start);
  EXPECT_EQ(rows[1].end - rows[1].start, Seconds(5));
  // Each row counts only its own phase's sends (1ms service, no spill).
  EXPECT_NEAR(static_cast<double>(rows[0].result.completed), 500.0, 10.0);
  EXPECT_NEAR(static_cast<double>(rows[1].result.completed), 500.0, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].result.offered_rps, 50.0);
  EXPECT_DOUBLE_EQ(rows[1].result.offered_rps, 100.0);
  EXPECT_EQ(rows[0].result.failed, 0);
  EXPECT_EQ(rows[1].result.failed, 0);
  // The payload drift lands exactly at the boundary: a prefix of num=2
  // requests (warmup + steady) followed only by num=6.
  ASSERT_FALSE(service.nums.empty());
  size_t first_shifted = service.nums.size();
  for (size_t i = 0; i < service.nums.size(); ++i) {
    if (service.nums[i] == 6) {
      first_shifted = i;
      break;
    }
  }
  ASSERT_LT(first_shifted, service.nums.size());
  for (size_t i = 0; i < service.nums.size(); ++i) {
    EXPECT_EQ(service.nums[i], i < first_shifted ? 2 : 6) << "request " << i;
  }
}

TEST(PhasedLoadTest, IdlePhaseSendsNothing) {
  Simulation sim;
  PayloadRecordingService service(&sim);
  OpenLoopGenerator generator;
  OpenLoopGenerator::PhasedOptions options;
  options.warmup = 0;
  LoadPhase on;
  on.name = "on";
  on.rps = 20.0;
  on.duration = Seconds(5);
  LoadPhase idle;
  idle.name = "idle";
  idle.rps = 0.0;  // A traffic gap, not a divide-by-zero or a busy loop.
  idle.duration = Seconds(5);
  LoadPhase resume;
  resume.name = "resume";
  resume.rps = 20.0;
  resume.duration = Seconds(5);
  options.phases = {on, idle, resume};

  const std::vector<PhaseResult> rows = generator.RunPhased(&sim, &service, "svc", options);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_NEAR(static_cast<double>(rows[0].result.completed), 100.0, 5.0);
  EXPECT_EQ(rows[1].result.completed, 0);
  EXPECT_EQ(rows[1].result.failed, 0);
  EXPECT_NEAR(static_cast<double>(rows[2].result.completed), 100.0, 5.0);
}

TEST(LoadResultTest, FailureRate) {
  LoadResult result;
  result.completed = 8;
  result.failed = 2;
  EXPECT_DOUBLE_EQ(result.FailureRate(), 0.2);
  LoadResult empty;
  EXPECT_DOUBLE_EQ(empty.FailureRate(), 0.0);
}

}  // namespace
}  // namespace quilt
