// Status: exception-free error propagation for the extract library.
//
// Library code never throws; fallible operations return a Status (or a
// Result<T>, see result.h). This follows the RocksDB/Arrow idiom for
// database-grade C++.

#ifndef EXTRACT_COMMON_STATUS_H_
#define EXTRACT_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace extract {

/// Machine-readable error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kParseError = 2,
  kNotFound = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kCancelled = 8,
  kDeadlineExceeded = 9,
  /// Transient overload: the caller should retry later (admission control's
  /// load-shedding signal, mapped to HTTP 503).
  kUnavailable = 10,
  /// The entity a creation targeted already exists (duplicate corpus
  /// document add, mapped to HTTP 409).
  kAlreadyExists = 11,
  /// A resource limit was hit: hostile input tripped a ParseLimits cap, a
  /// QueryBudget was exhausted mid-query, or an allocation-bounding guard
  /// fired. Mapped to HTTP 413 — the request was understood but is too
  /// expensive to serve in full.
  kResourceExhausted = 12,
};

/// Human-readable name of a StatusCode (e.g. "ParseError").
std::string_view StatusCodeToString(StatusCode code);

/// \brief The result of an operation that can fail.
///
/// A Status is cheap to copy in the OK case (no allocation). Error statuses
/// carry a code and a message. Statuses are comparable for equality and
/// streamable for logging and test diagnostics.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
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
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The error category; kOk iff ok().
  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Propagates an error Status from the enclosing function.
#define EXTRACT_RETURN_IF_ERROR(expr)                \
  do {                                               \
    ::extract::Status _extract_status = (expr);      \
    if (!_extract_status.ok()) return _extract_status; \
  } while (false)

}  // namespace extract

#endif  // EXTRACT_COMMON_STATUS_H_
