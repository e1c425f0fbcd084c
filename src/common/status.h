// Status and Result<T>: the library's error-handling idiom.
//
// Fallible operations across the public API return Status (or Result<T>
// when they produce a value). Exceptions are never thrown across module
// boundaries; programmer errors are handled by COMFEDSV_CHECK (see
// common/check.h).
#ifndef COMFEDSV_COMMON_STATUS_H_
#define COMFEDSV_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace comfedsv {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotFound = 4,
  kInternal = 5,
  kNotImplemented = 6,
  kNumericalError = 7,
  /// Stored state is unreadable or fails validation (truncation,
  /// checksum mismatch, invariant violations in decoded bytes). Callers
  /// salvage: quarantine the artifact and fall back to an older copy.
  kDataLoss = 8,
  /// A transient environment failure (I/O error, resource exhaustion).
  /// Callers retry: the same operation may succeed later.
  kUnavailable = 9,
};

/// Returns a human-readable name for a status code ("InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: a code plus, on failure, a message.
///
/// An Ok status carries no allocation. Statuses are cheap to copy and move.
///
/// [[nodiscard]]: silently dropping a Status return hides failures, so the
/// compiler flags every discard. Intentional drops must be written as
/// `(void)Fn();` with a comment saying why failure is ignorable — detlint's
/// discarded-status rule is the backstop for files built without warnings.
class [[nodiscard]] Status {
 public:
  /// Constructs an Ok status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for errors a retry cannot fix: the request or the stored state
  /// it meets is wrong (InvalidArgument, FailedPrecondition — e.g. an
  /// intact file in a retired format), not the environment. Degrading
  /// callers fail the run on these instead of retrying.
  bool IsPermanent() const {
    return code_ == StatusCode::kInvalidArgument ||
           code_ == StatusCode::kFailedPrecondition;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error Status. Accessing the value of a failed Result is a
/// checked fatal error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : storage_(std::move(value)) {}  // NOLINT

  /// Implicit construction from a non-Ok status (failure). Constructing a
  /// Result from an Ok status is a programmer error reported as kInternal.
  Result(Status status) : storage_(std::move(status)) {  // NOLINT
    if (std::get<Status>(storage_).ok()) {
      storage_ = Status::Internal("Result constructed from Ok status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(storage_); }

  /// Status of the operation; Ok if a value is held.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(storage_);
  }

  /// The held value. Must only be called when ok().
  const T& value() const& { return std::get<T>(storage_); }
  T& value() & { return std::get<T>(storage_); }
  T&& value() && { return std::get<T>(std::move(storage_)); }

  /// Returns the value, or `fallback` if this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> storage_;
};

/// Propagates a non-Ok status out of the enclosing function.
#define COMFEDSV_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::comfedsv::Status _st = (expr);              \
    if (!_st.ok()) return _st;                    \
  } while (0)

}  // namespace comfedsv

#endif  // COMFEDSV_COMMON_STATUS_H_
