// Pseudo-reservations (paper Section 5.5, "Preventing oscillatory
// behaviour"): after recommending an endpoint, the CloudTalk server treats
// it as in-use for a hold time t (300 ms in the Hadoop experiments) so that
// bursts of near-simultaneous queries do not all pile onto the same
// apparently-idle server before status feedback catches up.
//
// These are best-effort, not real reservations: if applications ignore the
// recommendation, behaviour degrades to random placement, exactly as the
// paper notes.
//
// Two-phase reserve: the server splits reservation state across per-shard
// tables (one table when it runs as a single shard), so a binding that
// spans shards must either hold on every shard or on none. The server
// first `Prepare`s a short-lived lease on each endpoint with its owning
// shard, and only once every shard has answered does it `Commit` the leases
// into real holds, all stamped with the same commit time. A shard that
// never answers lets the lease deadline pass and the endpoint frees itself
// — prepares can never wedge a host. `Abort` releases a lease early when a
// sibling shard failed to prepare.
#ifndef CLOUDTALK_SRC_CORE_RESERVATIONS_H_
#define CLOUDTALK_SRC_CORE_RESERVATIONS_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/check/check.h"
#include "src/common/lock_registry.h"
#include "src/common/units.h"

namespace cloudtalk {

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
inline LockId ReservationLockId() {
  static const LockId id = LockRegistry::Instance().Register("core.reservations");
  return id;
}
#endif

class ReservationTable {
 public:
  explicit ReservationTable(Seconds hold_time) : hold_time_(hold_time) {}

  Seconds hold_time() const { return hold_time_; }

  // True if `address` was recommended less than hold_time ago, or is held
  // by an unexpired prepare lease awaiting commit.
  bool IsReserved(const std::string& address, Seconds now) const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    const auto it = expiry_.find(address);
    if (it != expiry_.end() && it->second > now) {
      return true;
    }
    for (const auto& [id, lease] : leases_) {
      (void)id;
      if (lease.deadline > now && lease.address == address) {
        return true;
      }
    }
    return false;
  }

  int ActiveCount(Seconds now) const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    int count = 0;
    for (const auto& [address, expiry] : expiry_) {
      (void)address;
      if (expiry > now) {
        ++count;
      }
    }
    return count;
  }

  // Holds on record, expired ones included until the next sweep.
  size_t HoldCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    return expiry_.size();
  }

  // Phase one of a two-phase reserve: hold `address` under a lease that
  // expires on its own at `now + lease_time` unless committed or aborted
  // first. Returns the lease id (never 0, so callers can use 0 as "the
  // shard never answered").
  uint64_t Prepare(const std::string& address, Seconds now, Seconds lease_time) {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    const uint64_t id = ++next_lease_;
    leases_[id] = Lease{address, now + lease_time};
    return id;
  }

  // Phase two: converts the lease into a regular hold expiring at
  // `now + hold_time`. Returns whether a hold was recorded: false when the
  // lease had already expired (the two-phase exchange took longer than the
  // lease allowed) or holds are disabled (hold_time 0). A commit for a
  // lease this table never issued (or already completed) fires I411: the
  // front end's bookkeeping and the shard's disagree.
  bool Commit(uint64_t lease_id, Seconds now) {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    const auto it = leases_.find(lease_id);
    CT_INVARIANT(it != leases_.end(), "I411",
                 "two-phase commit does not match any outstanding lease")
        .With("lease", std::to_string(lease_id));
    if (it == leases_.end()) {
      return false;
    }
    const bool held = it->second.deadline > now && hold_time_ > 0;
    if (held) {
      expiry_[it->second.address] = now + hold_time_;
      MaybePruneLocked(now);
    }
    leases_.erase(it);
    return held;
  }

  // Releases a lease without reserving (a sibling shard failed to prepare,
  // so the whole binding aborts). Aborting an unknown lease fires I411.
  bool Abort(uint64_t lease_id) {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    const auto it = leases_.find(lease_id);
    CT_INVARIANT(it != leases_.end(), "I411",
                 "two-phase abort does not match any outstanding lease")
        .With("lease", std::to_string(lease_id));
    if (it == leases_.end()) {
      return false;
    }
    leases_.erase(it);
    return true;
  }

  // Prepared-but-uncommitted leases still within their deadline.
  int PreparedCount(Seconds now) const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    int count = 0;
    for (const auto& [id, lease] : leases_) {
      (void)id;
      if (lease.deadline > now) {
        ++count;
      }
    }
    return count;
  }

 private:
  struct Lease {
    std::string address;
    Seconds deadline = 0;
  };

  // Sweeps expired holds once the map has doubled since the last sweep
  // (and holds at least 1 024 hosts), so a commit costs amortized O(1).
  void MaybePruneLocked(Seconds now) {
    if (expiry_.size() < prune_at_) {
      return;
    }
    for (auto it = expiry_.begin(); it != expiry_.end();) {
      it = it->second <= now ? expiry_.erase(it) : std::next(it);
    }
    prune_at_ = std::max<size_t>(1024, 2 * expiry_.size());
  }

  Seconds hold_time_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Seconds> expiry_;
  size_t prune_at_ = 1024;  // expiry_ size that triggers the next sweep.
  // Outstanding prepares. Never pruned by expiry: a lease leaves the map
  // only through Commit or Abort, so a commit arriving after the deadline
  // still finds its lease (and reports the timeout) while a commit for a
  // lease that never existed is distinguishable — that one fires I411.
  std::unordered_map<uint64_t, Lease> leases_;
  uint64_t next_lease_ = 0;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_RESERVATIONS_H_
