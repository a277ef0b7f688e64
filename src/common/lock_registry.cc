#include "src/common/lock_registry.h"

#include <algorithm>
#include <thread>
#include <type_traits>

namespace cloudtalk {
namespace {

// Stack of traced lock roles the current thread holds, innermost last.
// Trivially destructible on purpose: static destructors (the shared thread
// pool's) still trace locks after the main thread's thread_locals are torn
// down, and a std::vector would be freed by then.
//
// Nesting deeper than kMaxHeld is not recorded: such an acquisition is still
// checked against the recorded locks, but locks taken inside it are not
// ordered against it. Its release (innermost-first) pops `overflow`.
struct HeldStack {
  static constexpr int kMaxHeld = 16;
  LockId ids[kMaxHeld];
  int depth;
  int overflow;

  const LockId* begin() const { return ids; }
  const LockId* end() const { return ids + depth; }
};
static_assert(std::is_trivially_destructible_v<HeldStack>);
thread_local HeldStack t_held;

uint64_t ThreadToken() {
  // Nonzero per-thread token (0 is AccessCell's "free" value).
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
}

}  // namespace

LockRegistry& LockRegistry::Instance() {
  static LockRegistry* registry = new LockRegistry();
  return *registry;
}

LockId LockRegistry::Register(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<LockId>(i);
    }
  }
  names_.push_back(name);
  return static_cast<LockId>(names_.size() - 1);
}

std::string LockRegistry::Name(LockId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<LockId>(names_.size())) {
    return "<unregistered>";
  }
  return names_[id];
}

void LockRegistry::OnAcquire(LockId id) {
  // Collect the violation outside the registry lock: the policy may throw,
  // and sinks may take their own locks.
  std::vector<check::Violation> to_report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (LockId held : t_held) {
      if (held == id) {
        continue;  // Recursive use of one role (e.g. per-batch mutexes).
      }
      edges_.insert({held, id});
      if (edges_.count({id, held}) != 0) {
        auto pair = std::minmax(held, id);
        if (reported_.insert({pair.first, pair.second}).second) {
          inversions_.fetch_add(1, std::memory_order_relaxed);
          check::Violation v;
          v.code = "L401";
          v.condition = "acquisition order is consistent across threads";
          v.file = __FILE__;
          v.line = __LINE__;
          v.message = "lock-order inversion";
          v.state.emplace_back("held", NameLocked(held));
          v.state.emplace_back("acquiring", NameLocked(id));
          to_report.push_back(std::move(v));
        }
      }
    }
  }
  if (t_held.depth < HeldStack::kMaxHeld) {
    t_held.ids[t_held.depth++] = id;
  } else {
    ++t_held.overflow;
  }
  for (check::Violation& v : to_report) {
    check::ReportViolation(std::move(v));
  }
}

void LockRegistry::OnRelease(LockId id) {
  if (t_held.overflow > 0) {
    --t_held.overflow;
    return;
  }
  // Locks release innermost-first in practice; tolerate out-of-order by
  // erasing the last matching entry.
  for (int i = t_held.depth - 1; i >= 0; --i) {
    if (t_held.ids[i] == id) {
      std::copy(t_held.ids + i + 1, t_held.ids + t_held.depth, t_held.ids + i);
      --t_held.depth;
      return;
    }
  }
}

std::string LockRegistry::NameLocked(LockId id) const {
  if (id < 0 || id >= static_cast<LockId>(names_.size())) {
    return "<unregistered>";
  }
  return names_[id];
}

int64_t LockRegistry::inversions_detected() const {
  return inversions_.load(std::memory_order_relaxed);
}

void LockRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  edges_.clear();
  reported_.clear();
  inversions_.store(0, std::memory_order_relaxed);
  t_held.depth = 0;
  t_held.overflow = 0;
}

bool AccessCell::Enter() {
  const uint64_t me = ThreadToken();
  if (owner_.load(std::memory_order_acquire) == me) {
    ++depth_;
    return true;
  }
  uint64_t expected = kFree;
  if (owner_.compare_exchange_strong(expected, me, std::memory_order_acq_rel)) {
    depth_ = 1;
    return true;
  }
  check::Violation v;
  v.code = "L402";
  v.condition = "one thread inside the guarded region";
  v.file = __FILE__;
  v.line = __LINE__;
  v.message = "single-writer violation";
  v.state.emplace_back("cell", name_);
  v.state.emplace_back("owner_token", std::to_string(expected));
  v.state.emplace_back("this_token", std::to_string(me));
  check::ReportViolation(std::move(v));
  return false;
}

void AccessCell::Exit() {
  if (--depth_ == 0) {
    owner_.store(kFree, std::memory_order_release);
  }
}

}  // namespace cloudtalk
