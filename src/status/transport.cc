#include "src/status/transport.h"

#include <algorithm>
#include <mutex>

#include "src/obs/metrics.h"

namespace cloudtalk {

ProbeOutcome SimUdpTransport::Probe(const std::vector<NodeId>& targets, Seconds timeout) {
  (void)timeout;  // The simulated probe completes "within" the timeout.
  std::lock_guard<AdaptiveMutex> lock(probe_mutex_);
  ProbeOutcome outcome;
  const int n = static_cast<int>(targets.size());
  outcome.stats.requests_sent = n;
  outcome.stats.bytes_sent = static_cast<int64_t>(n) * kProbeRequestBytes;

  // Which replies survive the incast burst: all of them, in target order,
  // when the fan-in is within the burst capacity, otherwise a uniformly
  // random subset of roughly burst_capacity replies.
  const auto reply = [&](NodeId host) {
    if (params_.base_loss > 0 && rng_.Bernoulli(params_.base_loss)) {
      return;
    }
    const auto it = servers_.find(host);
    if (it == servers_.end()) {
      return;  // No status server: behaves like a lost reply.
    }
    outcome.reports.emplace(host, it->second->Report());
    outcome.stats.replies_received += 1;
    outcome.stats.bytes_received += kProbeReplyBytes;
  };
  if (n <= params_.burst_capacity) {
    for (const NodeId host : targets) {
      reply(host);
    }
  } else {
    for (const int idx : rng_.SampleWithoutReplacement(n, params_.burst_capacity)) {
      reply(targets[idx]);
    }
  }
  outcome.stats.timeouts = outcome.stats.requests_sent - outcome.stats.replies_received;
  CT_OBS_ADD("M201", outcome.stats.requests_sent);
  CT_OBS_ADD("M202", outcome.stats.replies_received);
  CT_OBS_ADD("M203", outcome.stats.timeouts);
  CT_OBS_ADD("M206", outcome.stats.bytes_sent);
  CT_OBS_ADD("M207", outcome.stats.bytes_received);
  return outcome;
}

}  // namespace cloudtalk
