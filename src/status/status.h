// Status reports: the per-host I/O load snapshots that status servers hand
// to CloudTalk servers (paper Section 4, Figure 2 step (2)/(3)).
//
// The wire format mirrors the byte counts the paper reports in Section 5.5:
// probe requests are 64 bytes and responses 78 bytes.
#ifndef CLOUDTALK_SRC_STATUS_STATUS_H_
#define CLOUDTALK_SRC_STATUS_STATUS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/common/units.h"
#include "src/topology/topology.h"

namespace cloudtalk {

// Snapshot of one host's I/O state. Capacities are static; usages are the
// most recent measurement (so they can be stale by up to the measurement
// period — the effect behind the paper's oscillation discussion, §5.5).
struct StatusReport {
  NodeId host = kInvalidNode;
  Bps nic_tx_cap = 0;
  Bps nic_tx_use = 0;
  Bps nic_rx_cap = 0;
  Bps nic_rx_use = 0;
  Bps disk_read_cap = 0;
  Bps disk_read_use = 0;
  Bps disk_write_cap = 0;
  Bps disk_write_use = 0;
  // Scalar resources (Section 7 extension). 0 total = no information; the
  // heuristic then treats requirement checks as unknown-but-satisfiable.
  double cpu_cores_total = 0;
  double cpu_cores_used = 0;
  Bytes mem_total = 0;
  Bytes mem_used = 0;

  double CpuFree() const { return cpu_cores_total - cpu_cores_used; }
  Bytes MemFree() const { return mem_total - mem_used; }

  Bps AvailableTx() const { return nic_tx_cap - nic_tx_use; }
  Bps AvailableRx() const { return nic_rx_cap - nic_rx_use; }

  // A report for a host that failed to answer: "If nothing is received from
  // a status server, we assume that a particular address is under heavy I/O
  // load" (§4). Usage equals capacity in every dimension.
  static StatusReport AssumeLoaded(NodeId host, const HostCaps& caps);
  // A fully idle host with the given capacities.
  static StatusReport Idle(NodeId host, const HostCaps& caps);
};

// A status snapshot keyed by address, spelled as the query wrote it, as
// tests, tools and benches hold one. The engines read lang::HostStatus,
// which converts one to the query's host numbering.
using StatusByAddress = std::unordered_map<std::string, StatusReport>;

// Fixed-size wire encodings (little-endian). The v1 sizes match the paper's
// Section 5.5 accounting (64 B requests / 78 B replies); the v2 reply
// appends the Section 7 scalar resources (CPU cores, memory).
inline constexpr int kProbeRequestBytes = 64;
inline constexpr int kProbeReplyBytes = 78;
inline constexpr int kProbeReplyV2Bytes = 102;

using ProbeRequestWire = std::array<uint8_t, kProbeRequestBytes>;
using ProbeReplyWire = std::array<uint8_t, kProbeReplyBytes>;
using ProbeReplyV2Wire = std::array<uint8_t, kProbeReplyV2Bytes>;

// `want_extended` asks the daemon for a v2 reply.
ProbeRequestWire EncodeProbeRequest(uint32_t seq, uint32_t sender_ip, uint32_t target_ip,
                                    bool want_extended = false);
// Returns (seq, sender_ip, target_ip) or nullopt for a malformed packet.
struct DecodedProbeRequest {
  uint32_t seq = 0;
  uint32_t sender_ip = 0;
  uint32_t target_ip = 0;
  bool want_extended = false;
};
std::optional<DecodedProbeRequest> DecodeProbeRequest(const ProbeRequestWire& wire);

ProbeReplyWire EncodeProbeReply(uint32_t seq, uint32_t reporter_ip, const StatusReport& report);
struct DecodedProbeReply {
  uint32_t seq = 0;
  uint32_t reporter_ip = 0;
  StatusReport report;  // host is left kInvalidNode; caller maps ip->host.
};
std::optional<DecodedProbeReply> DecodeProbeReply(const ProbeReplyWire& wire);

// v2: the v1 payload plus cpu (milli-cores) and memory (bytes) totals/usage.
ProbeReplyV2Wire EncodeProbeReplyV2(uint32_t seq, uint32_t reporter_ip,
                                    const StatusReport& report);
std::optional<DecodedProbeReply> DecodeProbeReplyV2(const ProbeReplyV2Wire& wire);

// Dotted-quad string <-> uint32 helpers for the wire format.
uint32_t PackIpv4(const std::string& dotted);
std::string UnpackIpv4(uint32_t ip);

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_STATUS_STATUS_H_
