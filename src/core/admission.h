// N-slot concurrent admission gate.
//
// Up to `slots` queries evaluate concurrently when the hosts they can read
// or write in the reservation tables are disjoint; a pair whose host lists
// intersect — and at least one of them reserves — serializes, because the
// later query's reservation check must observe the earlier query's holds to
// stay byte-identical to the sequential order (the D504 commutation
// contract). The lists hold hosts, not spellings, so an alias and its
// address conflict like any two names of one host.
//
// Release wakes EVERY waiter, not just one: a waiter may be blocked on the
// slot count alone (its hosts conflict with nobody), so whichever slot
// frees must let it re-check — waking only a "conflicting" waiter would
// leave it parked behind a free slot forever.
#ifndef CLOUDTALK_SRC_CORE_ADMISSION_H_
#define CLOUDTALK_SRC_CORE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/topology/topology.h"

namespace cloudtalk {

class AdmissionGate {
 public:
  // `slots` ≤ 0 is clamped to 1 (a zero-slot gate would deadlock).
  explicit AdmissionGate(int slots);

  // Blocks until a slot is free and no admitted query conflicts with this
  // one, then returns a ticket. `hosts` are the query's pool hosts, sorted
  // and distinct; the gate borrows them until Release.
  uint64_t Admit(bool reserves, const std::vector<NodeId>& hosts);

  // Frees the slot `ticket` holds and wakes every waiter for a re-check.
  // Invariant I409: the ticket must match a query still in flight.
  void Release(uint64_t ticket);

  int slots() const { return slots_; }
  int InFlight() const;

 private:
  struct Admitted {
    uint64_t ticket = 0;
    bool reserves = false;
    const std::vector<NodeId>* hosts = nullptr;
  };

  int slots_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Admitted> admitted_;
  uint64_t next_ticket_ = 0;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_ADMISSION_H_
