#include "src/harness/cluster.h"

#include <utility>

#include "src/check/check.h"

namespace cloudtalk {

StatusReport FluidUsageSource::Snapshot(NodeId host) {
  if (snapshot_.empty()) {
    Refresh();
  }
  const ResourceRegistry& resources = sim_->resources();
  const HostCaps& caps = sim_->topology().host_caps(host);
  StatusReport report;
  report.host = host;
  report.nic_tx_cap = caps.nic_up;
  report.nic_rx_cap = caps.nic_down;
  report.disk_read_cap = caps.disk_read;
  report.disk_write_cap = caps.disk_write;
  report.nic_tx_use = snapshot_[resources.NicUp(host)];
  report.nic_rx_use = snapshot_[resources.NicDown(host)];
  report.disk_read_use = snapshot_[resources.DiskRead(host)];
  report.disk_write_use = snapshot_[resources.DiskWrite(host)];
  report.cpu_cores_total = caps.cpu_cores;
  report.mem_total = caps.memory;
  const auto scalar = scalar_use_.find(host);
  if (scalar != scalar_use_.end()) {
    report.cpu_cores_used = scalar->second.first;
    report.mem_used = scalar->second.second;
  }
  return report;
}

Cluster::Cluster(Topology topology, ClusterOptions options)
    : topo_(std::move(topology)), options_(options), rng_(options.seed) {
  sim_ = std::make_unique<FluidSimulation>(&topo_, options_.min_available_fraction);
  usage_source_ = std::make_unique<FluidUsageSource>(sim_.get());
  directory_ = std::make_unique<TopologyDirectory>(&topo_);
  std::unordered_map<NodeId, StatusServer*> server_map;
  status_servers_.reserve(topo_.hosts().size());
  for (NodeId host : topo_.hosts()) {
    status_servers_.push_back(
        std::make_unique<StatusServer>(host, usage_source_.get(), options_.status_period));
    server_map[host] = status_servers_.back().get();
  }
  transport_ =
      std::make_unique<SimUdpTransport>(std::move(server_map), options_.transport, options_.seed);
  cloudtalk_ = std::make_unique<CloudTalkServer>(
      options_.server, directory_.get(), transport_.get(), [this] { return sim_->now(); });
}

CloudTalkServer& Cluster::cloudtalk_at(NodeId host) {
  if (host == topo_.hosts().front()) {
    return *cloudtalk_;
  }
  auto it = per_host_servers_.find(host);
  if (it == per_host_servers_.end()) {
    ServerConfig config = options_.server;
    config.seed = options_.seed + static_cast<uint64_t>(host) * 7919;
    it = per_host_servers_
             .emplace(host, std::make_unique<CloudTalkServer>(
                                config, directory_.get(), transport_.get(),
                                [this] { return sim_->now(); }))
             .first;
  }
  return *it->second;
}

void Cluster::StartStatusSweep() {
  if (sweeping_) {
    return;
  }
  sweeping_ = true;
  MeasureNow();
  SweepTick();
}

void Cluster::MeasureNow() {
  usage_source_->Refresh();
  for (auto& server : status_servers_) {
    server->Measure();
  }
  // I407: the constructor built one status server per topology host, so a
  // sweep that measured them all covered the whole cluster — a gap here
  // would silently serve stale status for the missing host.
  CT_INVARIANT(status_servers_.size() == topo_.hosts().size(), "I407",
               "measurement sweep did not cover every cluster host")
      .With("status_servers", status_servers_.size())
      .With("hosts", topo_.hosts().size());
}

void Cluster::SweepTick() {
  sim_->Schedule(sim_->now() + options_.status_period, [this] {
    MeasureNow();
    SweepTick();
  });
}

void Cluster::SetScalarUse(NodeId host, double cpu_cores_used, Bytes mem_used) {
  usage_source_->SetScalarUse(host, cpu_cores_used, mem_used);
}

int Cluster::AddBackgroundPair(NodeId src, NodeId dst, Bps rate) {
  BackgroundEntry entry;
  entry.resources = sim_->AddBackgroundPath(src, dst, rate);
  entry.rates.assign(entry.resources.size(), rate);
  entry.active = true;
  backgrounds_.push_back(std::move(entry));
  return static_cast<int>(backgrounds_.size()) - 1;
}

void Cluster::RemoveBackgroundPair(int handle) {
  BackgroundEntry& entry = backgrounds_[handle];
  if (!entry.active) {
    return;
  }
  for (size_t i = 0; i < entry.resources.size(); ++i) {
    sim_->AddBackground(entry.resources[i], -entry.rates[i]);
  }
  entry.active = false;
}

int Cluster::AddDiskLoad(NodeId host, Bps read_rate, Bps write_rate) {
  BackgroundEntry entry;
  entry.active = true;
  if (read_rate > 0) {
    sim_->AddBackground(sim_->resources().DiskRead(host), read_rate);
    entry.resources.push_back(sim_->resources().DiskRead(host));
    entry.rates.push_back(read_rate);
  }
  if (write_rate > 0) {
    sim_->AddBackground(sim_->resources().DiskWrite(host), write_rate);
    entry.resources.push_back(sim_->resources().DiskWrite(host));
    entry.rates.push_back(write_rate);
  }
  backgrounds_.push_back(std::move(entry));
  return static_cast<int>(backgrounds_.size()) - 1;
}

void Cluster::RemoveDiskLoad(int handle) { RemoveBackgroundPair(handle); }

}  // namespace cloudtalk
