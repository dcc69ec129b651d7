// Execution engine: runs a DeployedBehavior inside a container on virtual
// time, issuing remote invocations through the platform's Invoker.
#ifndef SRC_RUNTIME_EXECUTOR_H_
#define SRC_RUNTIME_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/runtime/behavior.h"
#include "src/sim/container.h"
#include "src/sim/simulation.h"
#include "src/tracing/span.h"

namespace quilt {

// One remote invocation, as handed to an Invoker. Designed for designated
// initializers at call sites:
//
//   invoker->Invoke({.caller = "a", .callee = "b", .payload = p,
//                    .async = false, .done = cb});
//
// `parent` is the caller's trace context; when valid, the callee's span joins
// the caller's trace instead of starting a new one (client entries leave it
// default-constructed and root a fresh trace).
struct InvokeRequest {
  std::string caller;
  std::string callee;
  TraceContext parent;
  Json payload;
  bool async = false;
  std::function<void(Result<Json>)> done;
};

// How function-to-function calls leave the process: implemented by the
// platform (API-gateway path, Figure 1).
class Invoker {
 public:
  virtual ~Invoker() = default;
  virtual void Invoke(InvokeRequest&& request) = 0;
};

// Per-call CPU costs of the serverless runtime itself. The fixed latencies
// (local calls, lazy library loads, the CM internal gateway) are constants in
// executor.cc.
struct RuntimeCosts {
  // Caller-side CPU per remote invocation: JSON serialization + HTTP client.
  double invoke_cpu_ms = 0.12;
  // Callee-side CPU per remote request: HTTP parsing + deserialization, and
  // serializing the response.
  double handler_cpu_ms = 0.15;
};

// Runtime footprint of a process the CM internal gateway spawns for a callee;
// the controller sizes container-merge deployments with it too.
inline constexpr double kCmProcessBaseMb = 16.0;

// Why a container dies. The platform charges exactly one failure counter
// per kill based on this reason, so OOM kills and crashes can never be
// double-counted (or negated) against each other.
enum class KillReason {
  kOom,            // Memory limit exceeded; the kernel kills the cgroup.
  kCrash,          // The process hit an unhandled fault (CrashStep).
  kInjectedCrash,  // Spurious crash injected by a FaultPlan.
  kNodeFailure,    // The worker node hosting the container failed.
};

struct ExecutionEnv {
  Simulation* sim = nullptr;
  // shared_ptr: in-flight events may outlive the container's deployment slot
  // (e.g. after an OOM kill).
  std::shared_ptr<Container> container;
  Invoker* remote = nullptr;
  const RuntimeCosts* costs = nullptr;
  // Trace context of the request being executed (invalid when the request
  // was not traced). Nested remote Invokes propagate it so their spans
  // become children of this request's span.
  TraceContext trace;
  // Installed by the platform: kill this container, charging the failure to
  // the given cause (OOM kill vs. crash).
  std::function<void(KillReason)> trigger_kill;
  // Per-function billing instrumentation (§8, implemented here as the
  // extension the paper leaves open): called with (function handle,
  // vCPU-milliseconds) every time a compute burst attributable to that
  // function finishes -- even inside a merged process.
  std::function<void(const std::string&, double)> bill_cpu;
};

// Executes one inbound request against the deployment's behavior. `done`
// is called exactly once -- with the response, or with an error if the
// request failed (OOM kill, callee failure). remote_entry should be true
// for requests that arrived over the platform (they pay handler-side CPU).
void ExecuteRequest(ExecutionEnv env, const DeployedBehavior& behavior, Json payload,
                    bool remote_entry, std::function<void(Result<Json>)> done);

}  // namespace quilt

#endif  // SRC_RUNTIME_EXECUTOR_H_
