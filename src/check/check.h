// Whole-stack invariant checking for the CloudTalk core.
//
// The paper's Section 4 argument (all contention forms at access links and
// disks, and the max-min allocator is conservative on every step) is only as
// trustworthy as the simulator and the HDFS/MapReduce state machines that
// execute it. This library gives those layers the same systematic-diagnostic
// treatment ctlint gave the query language: `CT_INVARIANT` states a property
// the code relies on, and a violation produces a structured report — stable
// rule code, file:line, the failed condition, and a key/value dump of the
// violating state — rendered clang-style or as JSON (mirroring the
// `Diagnostic` shape in src/lang/diagnostics.h).
//
// Checks are compiled in only under the `CLOUDTALK_INVARIANTS` CMake option
// (default ON in Debug and in the CI sanitizer/fuzz jobs, OFF in Release);
// when off, every macro expands to an unevaluated no-op so release builds
// pay nothing. What a fired invariant *does* is a process-wide policy —
// abort (default), log-and-continue (the `tools/ctcheck` fuzzer and bench
// sweeps), or throw (tests) — configurable via `ServerConfig` or directly
// with `SetViolationPolicy`.
//
// The invariant catalogue (codes I1xx fluidsim, I2xx hdfs, I3xx mapred,
// L4xx locking, D000 generic debug check, D5xx differential properties such
// as the D500 optimisation byte-identity contract) lives in
// `InvariantCatalog()` and is documented with its paper justification in
// DESIGN.md, "Invariants".
#ifndef CLOUDTALK_SRC_CHECK_CHECK_H_
#define CLOUDTALK_SRC_CHECK_CHECK_H_

#include <cstdint>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cloudtalk {
namespace check {

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
inline constexpr bool kInvariantsEnabled = true;
#else
inline constexpr bool kInvariantsEnabled = false;
#endif

// What a fired invariant does after reporting. Process-wide, and set only
// by SetViolationPolicy: a tool or test sets it once, and nothing it builds
// changes it.
enum class OnViolation {
  kAbort,           // Print and std::abort() (debug default: fail loudly).
  kLogAndContinue,  // Report through the sink and keep running (fuzzer,
                    // benches that must survive a sweep).
  kThrow,           // Throw InvariantViolation (tests).
};

const char* OnViolationName(OnViolation policy);

// One fired invariant, with a structured dump of the violating state.
struct Violation {
  std::string code;       // "I102", "L401", ... (stable; see DESIGN.md).
  std::string condition;  // The stringified condition that failed.
  std::string file;
  int line = 0;
  std::string message;
  // Key/value dump attached with ViolationBuilder::With().
  std::vector<std::pair<std::string, std::string>> state;
};

// Catalogue entry for a registered invariant code.
struct InvariantInfo {
  const char* code;
  const char* subsystem;  // "fluidsim", "hdfs", "mapred", "lock", "check", "opt".
  const char* summary;
};

// Every registered invariant, ordered by code. Stable API like the lint
// rule registry: codes are never renumbered, only appended.
const std::vector<InvariantInfo>& InvariantCatalog();
// nullptr when `code` is not registered.
const InvariantInfo* FindInvariant(std::string_view code);

// Receives every violation before the policy acts. Installed sinks must be
// thread-safe: invariants fire from worker threads too.
class CheckSink {
 public:
  virtual ~CheckSink() = default;
  virtual void Report(const Violation& violation) = 0;
};

// Thread-safe sink that stores violations for later inspection (tests and
// the ctcheck fuzzer use it with OnViolation::kLogAndContinue).
class RecordingSink : public CheckSink {
 public:
  void Report(const Violation& violation) override;
  // Returns all recorded violations and clears the store.
  std::vector<Violation> TakeAll();
  int count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Violation> violations_;
};

// Policy and sink configuration. `SetCheckSink(nullptr)` restores the
// default sink (clang-style text to stderr). The sink is borrowed, not
// owned, and must outlive its installation.
void SetViolationPolicy(OnViolation policy);
OnViolation GetViolationPolicy();
void SetCheckSink(CheckSink* sink);

// Process-wide count of violations reported since start (or last reset).
int64_t ViolationCount();
void ResetViolationCountForTest();

// Thrown under OnViolation::kThrow. what() is the formatted report.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(Violation violation);
  const Violation& violation() const { return violation_; }

 private:
  Violation violation_;
};

// Central dispatch: counts, sinks, then applies the policy. The macros and
// the lock registry both report through here; calling it directly is how
// non-macro checkers (LockRegistry, ScopedAccessGuard) fire even in builds
// where the macros are compiled out.
void ReportViolation(Violation violation);

// clang-style text rendering:
//   file:line: invariant violation: <message> [I102 fluidsim]
//     condition: <condition>
//     state: key = value ...
std::string FormatViolation(const Violation& violation);
// {"code":..., "subsystem":..., "file":..., "line":..., "condition":...,
//  "message":..., "state":{...}}
std::string ViolationToJson(const Violation& violation);
// {"violations": N, "reports": [...]}
std::string ViolationsToJson(const std::vector<Violation>& violations);

namespace internal {

// Expression-shaped builder the macros expand to. The default-constructed
// (inactive) form is the held-condition path; the active form collects the
// state dump through With() and fires ReportViolation from its destructor
// at the end of the full expression.
class ViolationBuilder {
 public:
  ViolationBuilder() = default;
  ViolationBuilder(const char* code, const char* condition, const char* file, int line,
                   std::string message) {
    active_ = true;
    violation_.code = code;
    violation_.condition = condition;
    violation_.file = file;
    violation_.line = line;
    violation_.message = std::move(message);
  }
  ViolationBuilder(const ViolationBuilder&) = delete;
  ViolationBuilder& operator=(const ViolationBuilder&) = delete;

  // May throw under OnViolation::kThrow; never runs during unwinding
  // because the builder only lives inside the checking full-expression.
  ~ViolationBuilder() noexcept(false) {
    if (active_) {
      ReportViolation(std::move(violation_));
    }
  }

  template <typename T>
  ViolationBuilder& With(const char* key, const T& value) {
    if (active_) {
      std::ostringstream os;
      os << std::setprecision(15) << value;
      violation_.state.emplace_back(key, os.str());
    }
    return *this;
  }

 private:
  bool active_ = false;
  Violation violation_;
};

// Compiled-out stand-in: swallows the With() chain without evaluating the
// condition (the `false ?` arm keeps it type-checked but dead).
struct NullBuilder {
  template <typename T>
  NullBuilder& With(const char*, const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace check
}  // namespace cloudtalk

// CT_INVARIANT(condition, code, message): states a property of the system
// the surrounding code relies on. On failure, reports a Violation carrying
// `code` (which must be registered in InvariantCatalog()) and any state
// attached by chained .With("key", value) calls:
//
//   CT_INVARIANT(member.remaining >= 0, "I104", "negative residual bytes")
//       .With("group", group.id)
//       .With("remaining", member.remaining);
//
// Compiled out entirely (condition unevaluated) without CLOUDTALK_INVARIANTS.
#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
#define CT_INVARIANT(condition, code, message)                                        \
  ((condition) ? ::cloudtalk::check::internal::ViolationBuilder()                     \
               : ::cloudtalk::check::internal::ViolationBuilder(code, #condition,     \
                                                                __FILE__, __LINE__,  \
                                                                message))
#else
#define CT_INVARIANT(condition, code, message)                                        \
  (false ? ((void)(condition), ::cloudtalk::check::internal::NullBuilder{})           \
         : ::cloudtalk::check::internal::NullBuilder{})
#endif

// CT_DCHECK(condition): a plain internal sanity check with no dedicated
// catalogue entry. Same build gating and policy handling as CT_INVARIANT.
#define CT_DCHECK(condition) CT_INVARIANT(condition, "D000", "debug check failed")

#endif  // CLOUDTALK_SRC_CHECK_CHECK_H_
