#include "src/core/admission.h"

#include <algorithm>

#include "src/check/check.h"
#include "src/common/lock_registry.h"

namespace cloudtalk {

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
namespace {

LockId AdmissionLockId() {
  static const LockId id = LockRegistry::Instance().Register("server.admission");
  return id;
}

}  // namespace
#endif

AdmissionGate::AdmissionGate(int slots) : slots_(std::max(1, slots)) {}

uint64_t AdmissionGate::Admit(const lang::ScopeAnalysis& scope) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    if (static_cast<int>(admitted_.size()) >= slots_) {
      return false;
    }
    for (const Admitted& in_flight : admitted_) {
      if (lang::ReservationConflict(*in_flight.scope, scope)) {
        return false;
      }
    }
    return true;
  });
  CT_LOCK_TRACE(AdmissionLockId());
  Admitted entry;
  entry.ticket = ++next_ticket_;
  entry.scope = &scope;
  admitted_.push_back(entry);
  return entry.ticket;
}

void AdmissionGate::Release(uint64_t ticket) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(AdmissionLockId());
    const auto it = std::find_if(admitted_.begin(), admitted_.end(),
                                 [ticket](const Admitted& a) { return a.ticket == ticket; });
    CT_INVARIANT(it != admitted_.end(), "I409",
                 "admission release does not match any in-flight scope")
        .With("ticket", std::to_string(ticket));
    if (it != admitted_.end()) {
      admitted_.erase(it);
    }
  }
  // notify_all, deliberately: a waiter blocked purely on the slot count must
  // re-check when ANY slot frees, not only when a footprint-conflicting one
  // does (tests/shard_test.cc pins this down).
  cv_.notify_all();
}

int AdmissionGate::InFlight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CT_LOCK_TRACE(AdmissionLockId());
  return static_cast<int>(admitted_.size());
}

}  // namespace cloudtalk
