// Transport abstraction for the CloudTalk server's scatter-gather probe of
// status servers (Figure 2 step (2): "UDP is used as transport, to minimize
// incast related problems").
//
// Implementations:
//   SimUdpTransport  - in-process, with an incast-style loss model (below).
//   UdpSocketTransport - real UDP sockets (udp_transport.h).
#ifndef CLOUDTALK_SRC_STATUS_TRANSPORT_H_
#define CLOUDTALK_SRC_STATUS_TRANSPORT_H_

#include <unordered_map>
#include <vector>

#include "src/common/adaptive_mutex.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/status/status.h"
#include "src/status/status_server.h"

namespace cloudtalk {

struct ProbeStats {
  int requests_sent = 0;
  int replies_received = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  // Failure accounting (ISSUE 5). `timeouts` counts probed hosts whose reply
  // never arrived inside the deadline; always requests_sent minus
  // replies_received for a single probe, so a host can never be both
  // answered and missing. The other two count datagrams that arrived but
  // were discarded: wrong size (short_reads) or a sequence number outside
  // the probe's window, i.e. an answer to an earlier, already-expired probe
  // (late_replies).
  int timeouts = 0;
  int short_reads = 0;
  int late_replies = 0;

  void Accumulate(const ProbeStats& other) {
    requests_sent += other.requests_sent;
    replies_received += other.replies_received;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    timeouts += other.timeouts;
    short_reads += other.short_reads;
    late_replies += other.late_replies;
  }
};

struct ProbeOutcome {
  // Hosts that answered. Missing hosts are treated as fully loaded by the
  // CloudTalk server.
  std::unordered_map<NodeId, StatusReport> reports;
  ProbeStats stats;
};

class ProbeTransport {
 public:
  virtual ~ProbeTransport() = default;
  // Scatter-gathers status from `targets`, waiting at most `timeout`.
  virtual ProbeOutcome Probe(const std::vector<NodeId>& targets, Seconds timeout) = 0;
};

// In-process transport. Loss follows a burst (incast) model: when `n`
// replies converge simultaneously on the querier's access port, only about
// `burst_capacity` of them fit in buffer plus drain; the rest are dropped
// uniformly at random. Matches the paper's observation that probing ~100
// servers is lossless while ~1000 loses many replies (Section 4.3).
struct SimUdpParams {
  int burst_capacity = 300;
  double base_loss = 0.0;  // Independent per-packet loss on top.
};

class SimUdpTransport : public ProbeTransport {
 public:
  SimUdpTransport(std::unordered_map<NodeId, StatusServer*> servers, SimUdpParams params,
                  uint64_t seed = 1)
      : servers_(std::move(servers)), params_(params), rng_(seed) {}

  ProbeOutcome Probe(const std::vector<NodeId>& targets, Seconds timeout) override;

  // Registers/replaces a server (harness wiring).
  void Register(NodeId host, StatusServer* server) { servers_[host] = server; }

 private:
  std::unordered_map<NodeId, StatusServer*> servers_;
  SimUdpParams params_;
  Rng rng_;
  // Serializes concurrent probes (N-slot admission runs gathers in
  // parallel, and the shard aggregators of src/core/shard.h scatter to this
  // one simulated wire): the loss-model RNG and the status servers' lazy
  // first Measure() are not otherwise synchronized.
  AdaptiveMutex probe_mutex_;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_STATUS_TRANSPORT_H_
