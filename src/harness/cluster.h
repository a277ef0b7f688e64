// Experiment harness: wires a Topology, the fluid simulation, per-host
// status servers, the probe transport and a CloudTalk server into one
// simulated cluster, mirroring the deployment of Figure 2 (one CloudTalk +
// status server per machine; here one logical CloudTalk server answers all
// queries through the same distributed status plane, which is equivalent in
// the simulation).
//
// The harness also provides the background-load generators the evaluation
// uses (iperf-style line-rate UDP pairs, busy-disk processes) and runs the
// periodic status measurement sweep whose staleness drives the Section 5.5
// oscillation behaviour.
#ifndef CLOUDTALK_SRC_HARNESS_CLUSTER_H_
#define CLOUDTALK_SRC_HARNESS_CLUSTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/server.h"
#include "src/fluidsim/fluid_simulation.h"
#include "src/status/status_server.h"
#include "src/status/transport.h"
#include "src/topology/topology.h"

namespace cloudtalk {

// UsageSource over the fluid simulation, with a shared per-sweep snapshot so
// refreshing N status servers costs one pass, not N.
class FluidUsageSource : public UsageSource {
 public:
  explicit FluidUsageSource(FluidSimulation* sim) : sim_(sim) {}

  // Recomputes the shared usage snapshot (called once per measurement tick).
  void Refresh() { snapshot_ = sim_->UsageSnapshot(); }

  StatusReport Snapshot(NodeId host) override;

  // Scalar (CPU/memory) load is not derived from the fluid model; the
  // harness sets it explicitly for experiments that need it (Section 7).
  void SetScalarUse(NodeId host, double cpu_cores_used, Bytes mem_used) {
    scalar_use_[host] = {cpu_cores_used, mem_used};
  }

 private:
  FluidSimulation* sim_;
  std::vector<Bps> snapshot_;
  std::unordered_map<NodeId, std::pair<double, Bytes>> scalar_use_;
};

struct ClusterOptions {
  // Interval between status measurements; staleness up to this long.
  Seconds status_period = 100 * kMillisecond;
  SimUdpParams transport;
  ServerConfig server;
  double min_available_fraction = 0.1;
  uint64_t seed = 1;
};

class Cluster {
 public:
  Cluster(Topology topology, ClusterOptions options = {});
  // The simulation and the directory point at the cluster's topology, and
  // its servers' clocks and the status sweep at the cluster itself, so it
  // is neither copied nor moved: a factory hands one out in a unique_ptr.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Topology& topology() { return topo_; }
  FluidSimulation& sim() { return *sim_; }
  TopologyDirectory& directory() { return *directory_; }
  // The "default" CloudTalk server (the one next to host 0 — where the
  // HDFS NameNode / MapReduce JobTracker live in the experiments).
  CloudTalkServer& cloudtalk() { return *cloudtalk_; }
  // The CloudTalk server running next to `host` (Figure 2: one per
  // machine). Lazily created; each has its own reservation table, which is
  // why distributed HDFS reads do not oscillate while centralized NameNode
  // writes do (Section 5.5 "Usage patterns").
  CloudTalkServer& cloudtalk_at(NodeId host);
  SimUdpTransport& transport() { return *transport_; }
  Rng& rng() { return rng_; }

  int num_hosts() const { return static_cast<int>(topo_.hosts().size()); }
  NodeId host(int index) const { return topo_.hosts()[index]; }
  const std::string& ip(int index) const { return topo_.IpOf(host(index)); }

  // Begins the periodic measurement sweep (idempotent). Must be called
  // before running experiments that rely on dynamic load information.
  void StartStatusSweep();
  // Immediately refreshes every status server from live usage.
  void MeasureNow();
  // Sets a host's scalar (CPU cores / memory bytes) usage as seen by its
  // status server from the next measurement on (Section 7 extension).
  void SetScalarUse(NodeId host, double cpu_cores_used, Bytes mem_used);

  // ---- Background load generators ----
  // iperf-style inelastic traffic src -> dst at `rate`; returns a handle.
  int AddBackgroundPair(NodeId src, NodeId dst, Bps rate);
  void RemoveBackgroundPair(int handle);
  // A local process hammering the disk (Section 5.3 SSD experiments).
  int AddDiskLoad(NodeId host, Bps read_rate, Bps write_rate);
  void RemoveDiskLoad(int handle);

  // Convenience: runs the simulation.
  void RunUntil(Seconds t) { sim_->RunUntil(t); }
  Seconds now() const { return sim_->now(); }

 private:
  struct BackgroundEntry {
    std::vector<ResourceId> resources;
    std::vector<Bps> rates;  // Parallel to `resources`.
    bool active = false;
  };

  void SweepTick();

  Topology topo_;
  ClusterOptions options_;
  std::unique_ptr<FluidSimulation> sim_;
  std::unique_ptr<FluidUsageSource> usage_source_;
  std::unique_ptr<TopologyDirectory> directory_;
  std::vector<std::unique_ptr<StatusServer>> status_servers_;
  std::unique_ptr<SimUdpTransport> transport_;
  std::unique_ptr<CloudTalkServer> cloudtalk_;
  std::unordered_map<NodeId, std::unique_ptr<CloudTalkServer>> per_host_servers_;
  std::vector<BackgroundEntry> backgrounds_;
  bool sweeping_ = false;
  Rng rng_;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_HARNESS_CLUSTER_H_
