// Debug-only lock-order and single-writer checking.
//
// TSan catches data races but only on interleavings that actually happen in
// a given run, and it cannot run everywhere (no overlap with ASan, heavy
// slowdown on the paper-scale benches). The LockRegistry gives a cheaper,
// always-deterministic complement for the parallel evaluation engine: every
// traced mutex acquisition records a happens-inside edge (held-lock ->
// acquired-lock) in a global order graph; observing both A->B and B->A —
// even on different threads, even if the runs never actually deadlocked —
// reports a lock-order inversion (L401). A ScopedAccessGuard marks regions
// that the design says have exactly one writer (e.g. the fluid simulator's
// event loop); two threads inside the same AccessCell at once report a
// single-writer violation (L402).
//
// The classes are always compiled (tests drive them directly in both build
// modes); the CT_LOCK_ACQUIRED / CT_ACCESS_GUARD instrumentation macros in
// production code are compiled out unless CLOUDTALK_INVARIANTS is on.
#ifndef CLOUDTALK_SRC_COMMON_LOCK_REGISTRY_H_
#define CLOUDTALK_SRC_COMMON_LOCK_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/check/check.h"

namespace cloudtalk {

using LockId = int;

// Process-wide registry of traced locks and the acquisition-order graph.
class LockRegistry {
 public:
  static LockRegistry& Instance();

  // Registers a lock role (e.g. "thread_pool.queue"). Call once per role and
  // cache the id; function-local statics at the lock site do this naturally.
  LockId Register(const std::string& name);
  std::string Name(LockId id) const;

  // Records that the calling thread acquired / released `id`. OnAcquire
  // adds held->id edges to the order graph and reports L401 (once per lock
  // pair) when the reverse edge already exists. Recursive acquisition of
  // the same role (two mutexes sharing one role id) is allowed and adds no
  // self-edge. A thread nesting more than 16 traced locks has the extra ones
  // checked but not recorded (see lock_registry.cc).
  void OnAcquire(LockId id);
  void OnRelease(LockId id);

  int64_t inversions_detected() const;
  // Clears the order graph and counters (not the registered names); tests
  // use this to isolate constructed inversions from real instrumentation.
  void ResetForTest();

 private:
  LockRegistry() = default;
  // Name lookup for callers already holding mutex_.
  std::string NameLocked(LockId id) const;

  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::set<std::pair<LockId, LockId>> edges_;          // held -> acquired
  std::set<std::pair<LockId, LockId>> reported_;       // inversion pairs already reported
  std::atomic<int64_t> inversions_{0};
};

// RAII acquisition trace: records OnAcquire now, OnRelease on destruction.
// Place it immediately after taking the real lock so the held-stack mirrors
// the true lock nesting.
class ScopedLockTrace {
 public:
  explicit ScopedLockTrace(LockId id) : id_(id) { LockRegistry::Instance().OnAcquire(id_); }
  ~ScopedLockTrace() { LockRegistry::Instance().OnRelease(id_); }
  ScopedLockTrace(const ScopedLockTrace&) = delete;
  ScopedLockTrace& operator=(const ScopedLockTrace&) = delete;

 private:
  LockId id_;
};

// Marks state that must only ever be entered by one thread at a time.
// Same-thread reentrancy is fine (depth-counted); a second thread entering
// while the first is inside is a single-writer violation.
class AccessCell {
 public:
  explicit AccessCell(const char* name) : name_(name) {}

  // Returns false (and reports L402) when another thread is inside.
  bool Enter();
  void Exit();
  const char* name() const { return name_; }

 private:
  static constexpr uint64_t kFree = 0;
  const char* name_;
  std::atomic<uint64_t> owner_{kFree};
  int depth_ = 0;  // Only touched by the owning thread.
};

class ScopedAccessGuard {
 public:
  explicit ScopedAccessGuard(AccessCell& cell) : cell_(cell), entered_(cell.Enter()) {}
  ~ScopedAccessGuard() {
    if (entered_) {
      cell_.Exit();
    }
  }
  ScopedAccessGuard(const ScopedAccessGuard&) = delete;
  ScopedAccessGuard& operator=(const ScopedAccessGuard&) = delete;

 private:
  AccessCell& cell_;
  bool entered_;
};

}  // namespace cloudtalk

// Instrumentation points for production code: active only when the
// invariant machinery is compiled in, so release builds take no atomics on
// their lock paths.
#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
#define CT_CHECK_CONCAT_INNER(a, b) a##b
#define CT_CHECK_CONCAT(a, b) CT_CHECK_CONCAT_INNER(a, b)
#define CT_LOCK_TRACE(id) \
  ::cloudtalk::ScopedLockTrace CT_CHECK_CONCAT(ct_lock_trace_, __LINE__)(id)
#define CT_ACCESS_GUARD(cell) \
  ::cloudtalk::ScopedAccessGuard CT_CHECK_CONCAT(ct_access_guard_, __LINE__)(cell)
#else
// Arguments are not evaluated when off: lock-id helper functions are
// themselves compiled out at the call sites (see thread_pool.cc).
#define CT_LOCK_TRACE(id) \
  do {                    \
  } while (false)
#define CT_ACCESS_GUARD(cell) \
  do {                        \
  } while (false)
#endif

#endif  // CLOUDTALK_SRC_COMMON_LOCK_REGISTRY_H_
