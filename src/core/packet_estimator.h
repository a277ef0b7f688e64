// Packet-level query evaluation (paper Section 4/5.4).
//
// "CloudTalk offers two options to its clients: a packet level simulator and
// a flow level estimator. The first is very accurate and captures
// packet-level effects such as incast ..." — web-search placement uses it
// with static information, simulating the desired flows in an idle network.
//
// Given a bound query, the estimator replays the flows on a PacketNetwork
// built over a full topology (e.g. the 1200-server VL2 mirroring EC2).
// Transfer references become store-and-forward dependencies: a flow with
// `transfer t(f)` starts when f completes, which is how a scatter-gather
// aggregator behaves.
#ifndef CLOUDTALK_SRC_CORE_PACKET_ESTIMATOR_H_
#define CLOUDTALK_SRC_CORE_PACKET_ESTIMATOR_H_

#include "src/core/directory.h"
#include "src/core/estimator.h"
#include "src/packetsim/network.h"
#include "src/topology/topology.h"

namespace cloudtalk {

class PacketLevelEstimator : public CompletionEstimator {
 public:
  // `topo` is the fabric to simulate on; `directory` maps query addresses
  // to its hosts. Both must outlive the estimator.
  PacketLevelEstimator(const Topology* topo, const Directory* directory,
                       packetsim::NetworkParams params = {})
      : topo_(topo), directory_(directory), params_(params) {}

  // Note: the packet simulator models the network only; the status snapshot
  // is ignored (the paper evaluates placements "in an idle network").
  // Each bound slot is resolved through the directory by its spelling.
  Result<Estimate> EstimateQuery(const lang::CompiledQuery& query, std::span<const int> slots,
                                 const lang::HostStatus& status) override;

  // Stateless per call (topology/directory are shared read-only), so a copy
  // is an independent per-worker estimator.
  std::unique_ptr<CompletionEstimator> CloneForThread() const override {
    return std::make_unique<PacketLevelEstimator>(*this);
  }

 private:
  const Topology* topo_;
  const Directory* directory_;
  packetsim::NetworkParams params_;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_PACKET_ESTIMATOR_H_
