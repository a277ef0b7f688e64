// Sharded status plane: the host fleet is partitioned into status/placement
// shards, each owning probing and reservation state for its hosts.
// CloudTalkServer (src/core/server.h) always answers through them — one
// shard by default, N when built from a ShardedConfig — so a sharded
// deployment answers byte-identically to the flat one by construction (the
// D505 contract, fuzzed by `ctcheck --diff-shard`).
//
// The division of labour per query:
//
//   CloudTalkServer (front end)        StatusShard (× N)
//   ---------------------------------  --------------------------------
//   parse / lint / compile / scope     —
//   `route`: resolve names to hosts,   —
//     N-slot admission on the hosts
//   sample centrally (one RNG stream)  —
//   `aggregate`: split probe targets → probe own slice
//   bound check on merged status       —
//   exhaustive search on merged status —
//   heuristic on merged status         → one held-bit snapshot of own hosts
//   all-or-nothing reserve             → Hold own hosts
//
// Hierarchical probe aggregation reuses the scope footprint (src/lang/scope):
// the front end walks the footprint-filtered targets once, one per host, and
// splits them by owner, so each shard only ever probes the targets it owns —
// the fan-in at any aggregation point is a fraction of the fleet. The
// server's status gather (src/core/server.cc) checks I410 (every probe
// target routes to exactly one owning shard) and I412 (a shard reports only
// hosts of its own slice).
#ifndef CLOUDTALK_SRC_CORE_SHARD_H_
#define CLOUDTALK_SRC_CORE_SHARD_H_

#include <atomic>
#include <vector>

#include "src/core/directory.h"
#include "src/core/reservations.h"
#include "src/status/transport.h"

namespace cloudtalk {

// Deterministic host → shard partition: node n belongs to shard n mod N.
// Pure arithmetic on the directory's NodeId, so the front end and every
// shard agree on ownership without coordination.
class ShardMap {
 public:
  explicit ShardMap(int shards) : shards_(shards < 1 ? 1 : shards) {}

  int shards() const { return shards_; }
  int ShardOf(NodeId node) const { return static_cast<int>(node % shards_); }

 private:
  int shards_;
};

// One status/placement shard: probes the hosts it owns (through the shared
// transport) and keeps the holds on them in its own ReservationTable. The
// `unresponsive` flag is the fault-injection hook for the shard tests: an
// unresponsive shard answers no probe (its targets time out), and a binding
// with an endpoint it owns is held nowhere (the front end counts the abort
// in M118).
class StatusShard {
 public:
  StatusShard(ProbeTransport* transport, const Directory* directory, Seconds reservation_hold)
      : transport_(transport), reservations_(reservation_hold, directory) {}

  ReservationTable& reservations() { return reservations_; }
  const ReservationTable& reservations() const { return reservations_; }

  // Scatter-gathers status for this shard's slice of the query footprint.
  ProbeOutcome Probe(const std::vector<NodeId>& targets, Seconds timeout);

  void set_unresponsive(bool value) { unresponsive_.store(value); }
  bool unresponsive() const { return unresponsive_.load(); }

 private:
  ProbeTransport* transport_;
  ReservationTable reservations_;
  std::atomic<bool> unresponsive_{false};
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_SHARD_H_
