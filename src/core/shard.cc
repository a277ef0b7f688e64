#include "src/core/shard.h"

#include <unordered_set>
#include <utility>

#include "src/check/check.h"
#include "src/obs/metrics.h"

namespace cloudtalk {

namespace {

thread_local std::vector<ShardRouter::Batch> tls_batches;

}  // namespace

ProbeOutcome StatusShard::Probe(const std::vector<NodeId>& targets, Seconds timeout) {
  if (unresponsive_.load()) {
    // Fault injection: the shard's aggregator never answers, so every one of
    // its targets looks lost — exactly a probe where no reply arrived.
    ProbeOutcome lost;
    lost.stats.requests_sent = static_cast<int>(targets.size());
    lost.stats.bytes_sent = static_cast<int64_t>(targets.size()) * kProbeRequestBytes;
    lost.stats.timeouts = static_cast<int>(targets.size());
    return lost;
  }
  return transport_->Probe(targets, timeout);
}

uint64_t StatusShard::Prepare(const std::string& address, Seconds now, Seconds lease_time) {
  if (unresponsive_.load()) {
    return 0;
  }
  return reservations_.Prepare(address, now, lease_time);
}

ProbeOutcome ShardRouter::Probe(const std::vector<NodeId>& targets, Seconds timeout) {
  // Split the gather across owners. I410: ShardOf is a total function onto
  // [0, shards), so every target lands in exactly one slice.
  std::vector<std::vector<NodeId>> slices(shards_.size());
  for (const NodeId node : targets) {
    const int owner = map_->ShardOf(node);
    CT_INVARIANT(owner >= 0 && owner < static_cast<int>(shards_.size()), "I410",
                 "probe target routed outside the shard map")
        .With("node", node)
        .With("owner", owner);
    const size_t slot =
        owner >= 0 && owner < static_cast<int>(shards_.size()) ? static_cast<size_t>(owner) : 0;
    slices[slot].push_back(node);
  }

  tls_batches.clear();
  ProbeOutcome merged;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (slices[s].empty()) {
      continue;
    }
    ProbeOutcome part = shards_[s]->Probe(slices[s], timeout);
    CT_OBS_INC("M115");
    CT_OBS_OBSERVE("M116", static_cast<double>(slices[s].size()));
    Batch batch;
    batch.shard = static_cast<int>(s);
    batch.fanout = static_cast<int>(slices[s].size());
    batch.replies = part.stats.replies_received;
    tls_batches.push_back(batch);
    for (auto& [node, report] : part.reports) {
      merged.reports.emplace(node, std::move(report));
    }
    merged.stats.Accumulate(part.stats);
  }

  // I412: the roll-up is a partition merge — at most one report per target,
  // and never a host no slice probed.
  if (check::kInvariantsEnabled) {
    std::unordered_set<NodeId> target_set(targets.begin(), targets.end());
    CT_INVARIANT(merged.reports.size() <= target_set.size(), "I412",
                 "aggregated status holds more reports than probe targets")
        .With("reports", merged.reports.size())
        .With("targets", target_set.size());
    for (const auto& [node, report] : merged.reports) {
      (void)report;
      CT_INVARIANT(target_set.count(node) > 0, "I412",
                   "aggregated status reports a host outside the probe's target set")
          .With("node", node);
    }
  }
  return merged;
}

const std::vector<ShardRouter::Batch>& ShardRouter::LastBatches() { return tls_batches; }

}  // namespace cloudtalk
