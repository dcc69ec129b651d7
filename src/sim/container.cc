#include "src/sim/container.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/strings.h"

namespace quilt {

namespace {

// CFS throttling waste under overcommit (see CpuShare).
constexpr double kThrottlePenalty = 0.45;

}  // namespace

Container::Container(Simulation* sim, std::string deployment_handle, int64_t id,
                     ContainerConfig config, int64_t version)
    : sim_(sim),
      deployment_handle_(std::move(deployment_handle)),
      version_(version),
      id_(id),
      config_(config),
      created_at_(sim->now()),
      cpu_(sim, config.cpu_limit, kThrottlePenalty),
      memory_in_use_mb_(config.base_memory_mb),
      peak_memory_mb_(config.base_memory_mb) {}

void Container::set_state(ContainerState state) {
  if (state == ContainerState::kReady && state_ == ContainerState::kColdStarting &&
      ready_at_ == 0) {
    ready_at_ = sim_->now();
  }
  state_ = state;
}

Status Container::ReserveMemory(double mb) {
  if (state_ == ContainerState::kKilled) {
    return AbortedError("container is dead");
  }
  if (memory_in_use_mb_ + mb > config_.memory_limit_mb) {
    ++oom_kills_;
    return ResourceExhaustedError(StrCat("container ", id_, " of '", deployment_handle_,
                                         "' exceeded ", config_.memory_limit_mb, " MB"));
  }
  memory_in_use_mb_ += mb;
  peak_memory_mb_ = std::max(peak_memory_mb_, memory_in_use_mb_);
  return Status::Ok();
}

void Container::ReleaseMemory(double mb) {
  memory_in_use_mb_ = std::max(config_.base_memory_mb, memory_in_use_mb_ - mb);
}

void Container::AccumulateBusy() {
  const SimTime now = sim_->now();
  if (!abort_handlers_.empty()) {
    request_busy_seconds_ += ToSeconds(now - last_busy_update_);
  }
  last_busy_update_ = now;
}

double Container::request_busy_seconds() const {
  double busy = request_busy_seconds_;
  if (!abort_handlers_.empty()) {
    busy += ToSeconds(sim_->now() - last_busy_update_);
  }
  return busy;
}

int64_t Container::BeginRequest(std::function<void()> abort_handler) {
  AccumulateBusy();
  const int64_t token = next_request_token_++;
  abort_handlers_.emplace(token, std::move(abort_handler));
  return token;
}

void Container::EndRequest(int64_t request_token) {
  AccumulateBusy();
  abort_handlers_.erase(request_token);
}

void Container::Kill(ContainerKillCause cause) {
  if (state_ == ContainerState::kKilled) {
    return;
  }
  AccumulateBusy();
  kill_cause_ = cause;
  state_ = ContainerState::kKilled;
  cpu_.CancelAll();
  // Fire abort handlers; they may call EndRequest, so detach first.
  std::vector<std::function<void()>> handlers;
  handlers.reserve(abort_handlers_.size());
  for (auto& [token, handler] : abort_handlers_) {
    handlers.push_back(std::move(handler));
  }
  abort_handlers_.clear();
  for (auto& handler : handlers) {
    handler();
  }
}

SimDuration Container::ConsumeLazyHttpLoad(SimDuration per_lib_cost) {
  if (http_loaded_ || config_.lazy_libs == 0) {
    return 0;
  }
  http_loaded_ = true;
  return per_lib_cost * config_.lazy_libs;
}

}  // namespace quilt
