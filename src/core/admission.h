// N-slot concurrent admission gate.
//
// Up to `slots` queries evaluate concurrently when their reservation
// footprints are disjoint; a pair whose candidate sets intersect — and at
// least one of them reserves — serializes, because the later query's
// reservation filter must observe the earlier query's holds to stay
// byte-identical to the sequential order (the D504 commutation contract).
//
// Release wakes EVERY waiter, not just one: a waiter may be blocked on the
// slot count alone (its footprint conflicts with nobody), so whichever slot
// frees must let it re-check — waking only a "conflicting" waiter would
// leave it parked behind a free slot forever.
#ifndef CLOUDTALK_SRC_CORE_ADMISSION_H_
#define CLOUDTALK_SRC_CORE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/lang/scope.h"

namespace cloudtalk {

class AdmissionGate {
 public:
  // `slots` ≤ 0 is clamped to 1 (a zero-slot gate would deadlock).
  explicit AdmissionGate(int slots);

  // Blocks until a slot is free and no admitted query's reservation
  // footprint conflicts with `scope` (lang::ReservationConflict), then
  // returns a ticket. `scope` must outlive the admission (the gate borrows
  // it).
  uint64_t Admit(const lang::ScopeAnalysis& scope);

  // Frees the slot `ticket` holds and wakes every waiter for a re-check.
  // Invariant I409: the ticket must match a scope still in flight.
  void Release(uint64_t ticket);

  int slots() const { return slots_; }
  int InFlight() const;

 private:
  // Each entry borrows the admitting query's ScopeAnalysis (alive until
  // Release by construction).
  struct Admitted {
    uint64_t ticket = 0;
    const lang::ScopeAnalysis* scope = nullptr;
  };

  int slots_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Admitted> admitted_;
  uint64_t next_ticket_ = 0;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_ADMISSION_H_
