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
// Holds are on hosts, not on how a query spelled them: a hold taken
// through an alias keeps the host's address off too. The server keeps one
// table per status shard (src/core/shard.h), each holding the hosts its
// shard owns. A reserving answer records one hold per bound host on that
// host's owner, all at one time, or none when an owner is not answering; a
// name the directory does not know names no host and is never held
// (src/core/server.cc).
#ifndef CLOUDTALK_SRC_CORE_RESERVATIONS_H_
#define CLOUDTALK_SRC_CORE_RESERVATIONS_H_

#include <algorithm>
#include <iterator>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/lock_registry.h"
#include "src/common/units.h"
#include "src/core/directory.h"

namespace cloudtalk {

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
inline LockId ReservationLockId() {
  static const LockId id = LockRegistry::Instance().Register("core.reservations");
  return id;
}
#endif

class ReservationTable {
 public:
  // `directory` (may be null) serves the lookups by name.
  explicit ReservationTable(Seconds hold_time, const Directory* directory = nullptr)
      : hold_time_(hold_time), directory_(directory) {}

  Seconds hold_time() const { return hold_time_; }

  // True if `host` was recommended less than hold_time ago.
  bool IsReserved(NodeId host, Seconds now) const {
    bool reserved = false;
    Snapshot(now, [&](const auto& held) { reserved = held(host); });
    return reserved;
  }

  // The same for the host `name` resolves to; a name the directory does not
  // know is never held.
  bool IsReserved(const std::string& name, Seconds now) const {
    const NodeId host = directory_ != nullptr ? directory_->Resolve(name) : kInvalidNode;
    return host != kInvalidNode && IsReserved(host, now);
  }

  // Runs `read(held)` under one lock, where `held(host)` is IsReserved(host,
  // now): one snapshot for many lookups.
  template <typename Read>
  void Snapshot(Seconds now, Read&& read) const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    read([this, now](NodeId host) {
      const auto it = expiry_.find(host);
      return it != expiry_.end() && it->second > now;
    });
  }

  int ActiveCount(Seconds now) const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    return static_cast<int>(std::count_if(expiry_.begin(), expiry_.end(),
                                          [now](const auto& hold) { return hold.second > now; }));
  }

  // Holds on record, expired ones included until the next sweep.
  size_t HoldCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    return expiry_.size();
  }

  // Holds `host` until `now + hold_time`. Returns whether a hold was
  // recorded: false, recording nothing, when holds are disabled (hold_time
  // 0), so M104 counts real holds only.
  bool Hold(NodeId host, Seconds now) {
    if (hold_time_ <= 0) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    CT_LOCK_TRACE(ReservationLockId());
    expiry_[host] = now + hold_time_;
    MaybePruneLocked(now);
    return true;
  }

 private:
  // Sweeps expired holds once the map has doubled since the last sweep
  // (and holds at least 1 024 hosts), so a hold costs amortized O(1).
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
  const Directory* directory_;
  mutable std::mutex mutex_;
  std::unordered_map<NodeId, Seconds> expiry_;
  size_t prune_at_ = 1024;  // expiry_ size that triggers the next sweep.
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_RESERVATIONS_H_
