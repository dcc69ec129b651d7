// Lightweight status / result types used across Quilt.
//
// Quilt modules do not throw exceptions across module boundaries; fallible
// operations return Status (for void results) or Result<T>.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace quilt {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  kDeadlineExceeded,
  kAborted,
  kUnavailable,  // Transient infrastructure failure (gateway 5xx, network
                 // drop, open circuit breaker); safe to retry if idempotent.
  kUnimplemented,
  kInternal,
  kInfeasible,  // Used by solvers: the constraint system has no solution.
};

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable "CODE: message" string.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status AlreadyExistsError(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status DeadlineExceededError(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status AbortedError(std::string msg) { return Status(StatusCode::kAborted, std::move(msg)); }
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status InfeasibleError(std::string msg) {
  return Status(StatusCode::kInfeasible, std::move(msg));
}

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace quilt

// Propagates a non-OK status from an expression returning Status.
#define QUILT_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::quilt::Status _quilt_status = (expr);  \
    if (!_quilt_status.ok()) {               \
      return _quilt_status;                  \
    }                                        \
  } while (false)

#endif  // SRC_COMMON_STATUS_H_
