// Minimal Status / Result types (absl-style, no exceptions on hot paths).

#ifndef SPV_BASE_STATUS_H_
#define SPV_BASE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace spv {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,    // e.g. IOMMU fault: access rights violation
  kResourceExhausted,   // allocator out of memory / IOVA space
  kFailedPrecondition,  // API misuse (unmap of unmapped IOVA, double free)
  kOutOfRange,
  kUnavailable,
  kInternal,
  // Access was deliberately revoked by the OS (device quarantine / detach,
  // spv::recovery). Distinct from kPermissionDenied (an IOMMU fault the
  // device provoked) and from kUnavailable (a transient condition): kRevoked
  // is the single authoritative answer for any DMA-API or device-side
  // operation issued against a quarantined or detached device.
  kRevoked,
};

std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status{}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  // Keeps the first error: adopts `other` only while this status is still
  // OK (absl::Status::Update). Best-effort teardown loops report what went
  // wrong first and keep going.
  void Update(const Status& other) {
    if (ok() && !other.ok()) {
      *this = other;
    }
  }

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status{StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) { return Status{StatusCode::kNotFound, std::move(msg)}; }
inline Status AlreadyExists(std::string msg) {
  return Status{StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status PermissionDenied(std::string msg) {
  return Status{StatusCode::kPermissionDenied, std::move(msg)};
}
inline Status ResourceExhausted(std::string msg) {
  return Status{StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return Status{StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status OutOfRange(std::string msg) { return Status{StatusCode::kOutOfRange, std::move(msg)}; }
inline Status Unavailable(std::string msg) {
  return Status{StatusCode::kUnavailable, std::move(msg)};
}
inline Status Internal(std::string msg) { return Status{StatusCode::kInternal, std::move(msg)}; }
inline Status Revoked(std::string msg) { return Status{StatusCode::kRevoked, std::move(msg)}; }

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}            // NOLINT(google-explicit-constructor)
  Result(Status status) : var_(std::move(status)) {      // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(var_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(var_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(var_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(var_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(var_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::get<T>(std::move(var_)); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(var_);
  }

  T value_or(T fallback) const {
    if (ok()) {
      return std::get<T>(var_);
    }
    return fallback;
  }

 private:
  std::variant<T, Status> var_;
};

#define SPV_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::spv::Status spv_status_ = (expr);      \
    if (!spv_status_.ok()) return spv_status_; \
  } while (false)

#define SPV_ASSIGN_OR_RETURN(lhs, expr)       \
  auto spv_result_##__LINE__ = (expr);        \
  if (!spv_result_##__LINE__.ok()) return spv_result_##__LINE__.status(); \
  lhs = std::move(spv_result_##__LINE__).value()

}  // namespace spv

#endif  // SPV_BASE_STATUS_H_
