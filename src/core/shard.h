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
//   `route`: N-slot admission          —
//   sample centrally (one RNG stream)  —
//   `aggregate`: split probe targets → probe own hosts, roll status up
//   bound check on merged status       —
//   exhaustive search on merged status —
//   heuristic on merged status         → IsReserved for own hosts
//   two-phase reserve                  → Prepare / Commit / Abort leases
//
// Hierarchical probe aggregation reuses the scope footprint (src/lang/scope):
// the front end assembles the footprint-filtered target set once, and each
// shard only ever probes the targets it owns — the fan-in at any aggregation
// point is a fraction of the fleet. Invariants: I410 (every probe target and every
// reservation routes to exactly one owning shard), I412 (the rolled-up
// status is a partition merge: one report per answering target, none
// invented), I411 (commit/abort must match an outstanding lease; in
// src/core/reservations.h).
#ifndef CLOUDTALK_SRC_CORE_SHARD_H_
#define CLOUDTALK_SRC_CORE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
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
// transport) and arbitrates reservations for them (two-phase leases over
// its own ReservationTable). The `unresponsive` flag is the fault-injection
// hook for the I41x tests: an unresponsive shard answers no probe (its
// targets time out) and no prepare (the front end aborts the two-phase
// reserve).
class StatusShard {
 public:
  StatusShard(int index, ProbeTransport* transport, Seconds reservation_hold)
      : index_(index), transport_(transport), reservations_(reservation_hold) {}

  int index() const { return index_; }
  ReservationTable& reservations() { return reservations_; }
  const ReservationTable& reservations() const { return reservations_; }

  // Scatter-gathers status for this shard's slice of the query footprint.
  ProbeOutcome Probe(const std::vector<NodeId>& targets, Seconds timeout);

  // Phase one of a cross-shard reserve. Returns the lease id, or 0 when the
  // shard never answers (the two-phase reserve then aborts; M118).
  uint64_t Prepare(const std::string& address, Seconds now, Seconds lease_time);

  void set_unresponsive(bool value) { unresponsive_.store(value); }
  bool unresponsive() const { return unresponsive_.load(); }

 private:
  int index_;
  ProbeTransport* transport_;
  ReservationTable reservations_;
  std::atomic<bool> unresponsive_{false};
};

// Hierarchical probe aggregation as a ProbeTransport: splits each probe's
// target list across the owning shards (I410), lets every shard
// scatter-gather its own slice, and rolls the partial reports up into one
// outcome (I412). Whatever the shard count, the roll-up carries the same
// targets, reports, and stats as one flat scatter-gather, while any single
// aggregation point's fan-in is bounded by the shard's host count.
class ShardRouter : public ProbeTransport {
 public:
  // Borrows the map and the shards; both must outlive the router.
  ShardRouter(const ShardMap* map, std::vector<StatusShard*> shards)
      : map_(map), shards_(std::move(shards)) {}

  ProbeOutcome Probe(const std::vector<NodeId>& targets, Seconds timeout) override;

  // Per-shard summary of the calling thread's most recent Probe (the server
  // renders these as `aggregate.shard` trace events). Thread-local so
  // concurrently admitted queries do not interleave.
  struct Batch {
    int shard = 0;
    int fanout = 0;
    int replies = 0;
  };
  static const std::vector<Batch>& LastBatches();

 private:
  const ShardMap* map_;
  std::vector<StatusShard*> shards_;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_SHARD_H_
