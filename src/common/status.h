// Status / StatusOr<T> — the exception-free error channel of the session
// boundary (core/session.h). Library internals that detect malformed input
// report a Status instead of throwing.
#ifndef NUCLEUS_COMMON_STATUS_H_
#define NUCLEUS_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace nucleus {

/// Coarse error categories, deliberately small (absl-style naming).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // malformed options / ids out of range
  kNotFound,            // missing file, absent edge/triangle
  kFailedPrecondition,  // call sequencing violated (e.g. double Commit)
  kOutOfRange,          // numeric limits exceeded
  kInternal,            // invariant violation inside the library
  kCancelled,           // caller fired the CancelToken
  kDeadlineExceeded,    // request deadline expired mid-computation
  kResourceExhausted,   // over budget / allocation or IO failure (injected
                        // faults report this code)
};

/// A success-or-error value: ok() or a (code, message) pair.
class Status {
 public:
  /// Default: OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + message_;
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::kNotFound: return "NOT_FOUND";
      case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
      case StatusCode::kInternal: return "INTERNAL";
      case StatusCode::kCancelled: return "CANCELLED";
      case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
      case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    }
    return "UNKNOWN";
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value of type T or the Status explaining why there is none. Accessing
/// the value of a failed StatusOr is a programming error (asserts in debug
/// builds; undefined otherwise), so callers must check ok() first.
template <typename T>
class StatusOr {
 public:
  /// Implicit from a value (success).
  StatusOr(T value) : value_(std::move(value)) {}
  /// Implicit from a non-OK Status (failure). Constructing from an OK
  /// status without a value is a bug and is coerced to kInternal.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  /// OK when a value is present.
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
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace nucleus

#endif  // NUCLEUS_COMMON_STATUS_H_
