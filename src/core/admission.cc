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

uint64_t AdmissionGate::Admit(bool reserves, const std::vector<NodeId>& hosts) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    if (static_cast<int>(admitted_.size()) >= slots_) {
      return false;
    }
    // Two readers never interleave observably; otherwise a shared host
    // (both lists are sorted: walk them in step) is a conflict.
    return std::none_of(admitted_.begin(), admitted_.end(), [&](const Admitted& in_flight) {
      if (!reserves && !in_flight.reserves) {
        return false;
      }
      auto i = hosts.begin();
      auto j = in_flight.hosts->begin();
      while (i != hosts.end() && j != in_flight.hosts->end() && *i != *j) {
        *i < *j ? ++i : ++j;
      }
      return i != hosts.end() && j != in_flight.hosts->end();
    });
  });
  CT_LOCK_TRACE(AdmissionLockId());
  admitted_.push_back(Admitted{++next_ticket_, reserves, &hosts});
  return next_ticket_;
}

void AdmissionGate::Release(uint64_t ticket) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(AdmissionLockId());
    const auto it = std::find_if(admitted_.begin(), admitted_.end(),
                                 [ticket](const Admitted& a) { return a.ticket == ticket; });
    CT_INVARIANT(it != admitted_.end(), "I409",
                 "admission release does not match any in-flight query")
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
