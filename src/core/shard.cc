#include "src/core/shard.h"

namespace cloudtalk {

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

}  // namespace cloudtalk
