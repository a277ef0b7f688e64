// Tests for status reports, wire format, probe transports, and sampling.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

#include "src/status/sampling.h"
#include "src/status/status.h"
#include "src/status/status_server.h"
#include "src/status/transport.h"
#include "src/status/udp_transport.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

// A UsageSource with manually controlled snapshots.
class FakeSource : public UsageSource {
 public:
  StatusReport Snapshot(NodeId host) override {
    StatusReport report = current_;
    report.host = host;
    ++snapshots_;
    return report;
  }
  void Set(const StatusReport& report) { current_ = report; }
  int snapshots() const { return snapshots_.load(); }

 private:
  StatusReport current_;
  // Atomic: one source may serve several daemon threads at once.
  std::atomic<int> snapshots_{0};
};

StatusReport SomeReport() {
  StatusReport r;
  r.nic_tx_cap = 1e9;
  r.nic_tx_use = 2e8;
  r.nic_rx_cap = 1e9;
  r.nic_rx_use = 3e8;
  r.disk_read_cap = 4e9;
  r.disk_read_use = 1e9;
  r.disk_write_cap = 4e9;
  r.disk_write_use = 5e8;
  return r;
}

// ---- Wire format ----

TEST(WireTest, SizesMatchPaper) {
  // Section 5.5: "queries to status servers (64B) and the associated
  // responses (78B)".
  EXPECT_EQ(kProbeRequestBytes, 64);
  EXPECT_EQ(kProbeReplyBytes, 78);
  EXPECT_EQ(sizeof(ProbeRequestWire), 64u);
  EXPECT_EQ(sizeof(ProbeReplyWire), 78u);
}

TEST(WireTest, RequestRoundTrip) {
  const ProbeRequestWire wire = EncodeProbeRequest(77, PackIpv4("10.0.0.1"), PackIpv4("10.0.0.2"));
  const auto decoded = DecodeProbeRequest(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 77u);
  EXPECT_EQ(UnpackIpv4(decoded->sender_ip), "10.0.0.1");
  EXPECT_EQ(UnpackIpv4(decoded->target_ip), "10.0.0.2");
}

TEST(WireTest, ReplyRoundTrip) {
  const StatusReport report = SomeReport();
  const ProbeReplyWire wire = EncodeProbeReply(5, PackIpv4("10.1.2.3"), report);
  const auto decoded = DecodeProbeReply(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 5u);
  EXPECT_EQ(UnpackIpv4(decoded->reporter_ip), "10.1.2.3");
  EXPECT_DOUBLE_EQ(decoded->report.nic_tx_use, report.nic_tx_use);
  EXPECT_DOUBLE_EQ(decoded->report.disk_write_cap, report.disk_write_cap);
}

TEST(WireTest, MalformedRejected) {
  ProbeRequestWire bad{};
  EXPECT_FALSE(DecodeProbeRequest(bad).has_value());
  ProbeReplyWire bad_reply{};
  EXPECT_FALSE(DecodeProbeReply(bad_reply).has_value());
  // A request is not a valid reply.
  const ProbeRequestWire request = EncodeProbeRequest(1, 0, 0);
  ProbeReplyWire as_reply{};
  std::copy(request.begin(), request.end(), as_reply.begin());
  EXPECT_FALSE(DecodeProbeReply(as_reply).has_value());
}

TEST(WireTest, Ipv4PackUnpack) {
  EXPECT_EQ(UnpackIpv4(PackIpv4("192.168.1.200")), "192.168.1.200");
  EXPECT_EQ(UnpackIpv4(PackIpv4("0.0.0.0")), "0.0.0.0");
  EXPECT_EQ(UnpackIpv4(PackIpv4("255.255.255.255")), "255.255.255.255");
}

// ---- StatusReport helpers ----

TEST(StatusReportTest, AssumeLoadedSaturatesEverything) {
  HostCaps caps;
  const StatusReport r = StatusReport::AssumeLoaded(3, caps);
  EXPECT_EQ(r.host, 3);
  EXPECT_DOUBLE_EQ(r.AvailableTx(), 0.0);
  EXPECT_DOUBLE_EQ(r.AvailableRx(), 0.0);
  EXPECT_DOUBLE_EQ(r.disk_read_use, caps.disk_read);
}

TEST(StatusReportTest, IdleHasZeroUsage) {
  HostCaps caps;
  const StatusReport r = StatusReport::Idle(1, caps);
  EXPECT_DOUBLE_EQ(r.nic_tx_use, 0.0);
  EXPECT_DOUBLE_EQ(r.AvailableTx(), caps.nic_up);
}

// ---- StatusServer measurement caching ----

TEST(StatusServerTest, CachesUntilMeasure) {
  FakeSource source;
  StatusReport a = SomeReport();
  source.Set(a);
  StatusServer server(/*host=*/0, &source, /*period=*/0.1);
  server.Measure();
  EXPECT_DOUBLE_EQ(server.Report().nic_tx_use, 2e8);

  StatusReport b = a;
  b.nic_tx_use = 9e8;
  source.Set(b);
  // Still the old sample until the next Measure() — the feedback delay.
  EXPECT_DOUBLE_EQ(server.Report().nic_tx_use, 2e8);
  server.Measure();
  EXPECT_DOUBLE_EQ(server.Report().nic_tx_use, 9e8);
}

TEST(StatusServerTest, ZeroPeriodMeansLive) {
  FakeSource source;
  source.Set(SomeReport());
  StatusServer server(0, &source, /*period=*/0);
  server.Report();
  server.Report();
  EXPECT_EQ(source.snapshots(), 2);  // Measured on every probe.
}

// ---- SimUdpTransport ----

std::vector<std::unique_ptr<StatusServer>> MakeServers(FakeSource* source, int count,
                                                       SimUdpTransport** transport_out,
                                                       SimUdpParams params = {}) {
  std::vector<std::unique_ptr<StatusServer>> servers;
  std::unordered_map<NodeId, StatusServer*> map;
  for (int i = 0; i < count; ++i) {
    servers.push_back(std::make_unique<StatusServer>(i, source, 0.0));
    map[i] = servers.back().get();
  }
  *transport_out = new SimUdpTransport(std::move(map), params, /*seed=*/1);
  return servers;
}

TEST(SimUdpTransportTest, SmallFanInLossless) {
  FakeSource source;
  source.Set(SomeReport());
  SimUdpTransport* transport = nullptr;
  auto servers = MakeServers(&source, 100, &transport);
  std::unique_ptr<SimUdpTransport> owner(transport);
  std::vector<NodeId> targets(100);
  for (int i = 0; i < 100; ++i) {
    targets[i] = i;
  }
  const ProbeOutcome outcome = transport->Probe(targets, 0.01);
  EXPECT_EQ(outcome.stats.requests_sent, 100);
  EXPECT_EQ(outcome.stats.replies_received, 100);
  EXPECT_EQ(outcome.reports.size(), 100u);
  EXPECT_EQ(outcome.stats.bytes_sent, 100 * 64);
  EXPECT_EQ(outcome.stats.bytes_received, 100 * 78);
}

TEST(SimUdpTransportTest, LargeFanInDropsReplies) {
  // Section 4.3: "querying one hundred servers gives low packet loss ...
  // while for a thousand servers, there is high packet loss".
  FakeSource source;
  source.Set(SomeReport());
  SimUdpTransport* transport = nullptr;
  auto servers = MakeServers(&source, 1000, &transport);
  std::unique_ptr<SimUdpTransport> owner(transport);
  std::vector<NodeId> targets(1000);
  for (int i = 0; i < 1000; ++i) {
    targets[i] = i;
  }
  const ProbeOutcome outcome = transport->Probe(targets, 0.01);
  EXPECT_EQ(outcome.stats.requests_sent, 1000);
  EXPECT_EQ(outcome.stats.replies_received, 300);  // burst_capacity default.
}

TEST(SimUdpTransportTest, UnregisteredHostBehavesAsLost) {
  FakeSource source;
  SimUdpTransport transport({}, {}, 1);
  const ProbeOutcome outcome = transport.Probe({42}, 0.01);
  EXPECT_EQ(outcome.stats.requests_sent, 1);
  EXPECT_EQ(outcome.stats.replies_received, 0);
  EXPECT_TRUE(outcome.reports.empty());
}

TEST(SimUdpTransportTest, BaseLossDropsIndependently) {
  FakeSource source;
  source.Set(SomeReport());
  SimUdpParams params;
  params.base_loss = 1.0;  // Everything lost.
  SimUdpTransport* transport = nullptr;
  auto servers = MakeServers(&source, 10, &transport, params);
  std::unique_ptr<SimUdpTransport> owner(transport);
  const ProbeOutcome outcome = transport->Probe({0, 1, 2}, 0.01);
  EXPECT_EQ(outcome.stats.replies_received, 0);
}

// ---- Sampling analysis ----

TEST(SamplingTest, BinomialTailBasics) {
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0.5, 11), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 1.0, 10), 1.0);
  // P[Bin(2, 0.5) >= 1] = 0.75.
  EXPECT_NEAR(BinomialTailAtLeast(2, 0.5, 1), 0.75, 1e-12);
  // P[Bin(3, 0.3) >= 2] = 3*0.09*0.7 + 0.027 = 0.216.
  EXPECT_NEAR(BinomialTailAtLeast(3, 0.3, 2), 0.216, 1e-12);
}

TEST(SamplingTest, RequiredSamplesMatchesDirectScan) {
  for (const int d : {1, 2, 3, 5, 10}) {
    const int n = RequiredSamples(d, 0.3, 0.99);
    EXPECT_GE(BinomialTailAtLeast(n, 0.3, d), 0.99);
    if (n > d) {
      EXPECT_LT(BinomialTailAtLeast(n - 1, 0.3, d), 0.99);
    }
  }
}

TEST(SamplingTest, PaperScaleNumbers) {
  // Section 4.3/5.2: with 30% idle and 99% confidence, selecting d <= 5
  // servers needs only ~10-25 probes; d = 2 needs about 19-20.
  const int n1 = RequiredSamples(1, 0.3, 0.99);
  const int n2 = RequiredSamples(2, 0.3, 0.99);
  const int n5 = RequiredSamples(5, 0.3, 0.99);
  EXPECT_GE(n1, 10);
  EXPECT_LE(n1, 15);
  EXPECT_GE(n2, 18);
  EXPECT_LE(n2, 21);
  EXPECT_LE(n5, 36);
  // Monotone in d.
  EXPECT_LT(n1, n2);
  EXPECT_LT(n2, n5);
}

TEST(SamplingTest, MoreIdleNeedsFewerSamples) {
  EXPECT_LT(RequiredSamples(3, 0.7, 0.99), RequiredSamples(3, 0.3, 0.99));
  EXPECT_LT(RequiredSamples(3, 0.3, 0.99), RequiredSamples(3, 0.1, 0.99));
}

TEST(SamplingTest, HigherConfidenceNeedsMoreSamples) {
  EXPECT_LE(RequiredSamples(3, 0.3, 0.9), RequiredSamples(3, 0.3, 0.99));
  EXPECT_LE(RequiredSamples(3, 0.3, 0.99), RequiredSamples(3, 0.3, 0.999));
}

TEST(SamplingTest, DegenerateCases) {
  EXPECT_EQ(RequiredSamples(0, 0.3, 0.99), 0);
  EXPECT_EQ(RequiredSamples(3, 0.0, 0.99, 1000), 1000);
}

// ---- UDP loopback integration ----

TEST(UdpTransportTest, LoopbackProbe) {
  FakeSource source;
  source.Set(SomeReport());
  std::vector<std::unique_ptr<UdpStatusDaemon>> daemons;
  UdpSocketTransport transport;
  ASSERT_TRUE(transport.Open());
  for (int i = 0; i < 5; ++i) {
    const uint32_t ip = PackIpv4("10.0.0." + std::to_string(i + 1));
    daemons.push_back(std::make_unique<UdpStatusDaemon>(i, ip, &source));
    ASSERT_TRUE(daemons.back()->Start());
    transport.Register(i, ip, daemons.back()->port());
  }
  const ProbeOutcome outcome = transport.Probe({0, 1, 2, 3, 4}, /*timeout=*/1.0);
  EXPECT_EQ(outcome.stats.requests_sent, 5);
  EXPECT_EQ(outcome.stats.replies_received, 5);
  ASSERT_EQ(outcome.reports.size(), 5u);
  EXPECT_DOUBLE_EQ(outcome.reports.at(2).nic_rx_use, 3e8);
  EXPECT_EQ(outcome.reports.at(2).host, 2);
}

TEST(UdpTransportTest, TimeoutOnDeadPeer) {
  UdpSocketTransport transport;
  ASSERT_TRUE(transport.Open());
  // Register a port nobody listens on (port 1 needs privileges to bind, so
  // nothing should answer).
  transport.Register(0, PackIpv4("10.0.0.9"), 1);
  const int64_t m203_before = obs::Registry::Instance().counter("M203")->value();
  const ProbeOutcome outcome = transport.Probe({0}, /*timeout=*/0.05);
  EXPECT_EQ(outcome.stats.replies_received, 0);
  EXPECT_EQ(outcome.stats.timeouts, 1);
  EXPECT_EQ(outcome.stats.short_reads, 0);
  EXPECT_EQ(outcome.stats.late_replies, 0);
  EXPECT_EQ(obs::Registry::Instance().counter("M203")->value(), m203_before + 1);
}

// A raw UDP peer with scripted behaviour: waits for one probe request on its
// own socket, then lets the test reply with arbitrary datagrams addressed to
// the prober — the only way to put malformed bytes on the wire, since the
// real daemon only ever sends well-formed replies.
class ScriptedPeer {
 public:
  using Sender = std::function<void(const void*, size_t)>;

  ~ScriptedPeer() {
    if (thread_.joinable()) {
      thread_.join();
    }
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool Bind() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return false;
    }
    port_ = ntohs(addr.sin_port);
    return true;
  }

  uint16_t port() const { return port_; }

  // Spawns the serving thread; `handler` runs once with the decoded request
  // and a sender targeting the prober's source address.
  void Serve(std::function<void(const DecodedProbeRequest&, const Sender&)> handler) {
    thread_ = std::thread([this, handler = std::move(handler)] {
      ProbeRequestWire wire{};
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t n = ::recvfrom(fd_, wire.data(), wire.size(), 0,
                                   reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n != static_cast<ssize_t>(wire.size())) {
        return;
      }
      const auto request = DecodeProbeRequest(wire);
      if (!request.has_value()) {
        return;
      }
      handler(*request, [&](const void* data, size_t size) {
        ::sendto(fd_, data, size, 0, reinterpret_cast<sockaddr*>(&from), from_len);
      });
    });
  }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(UdpTransportTest, TruncatedDatagramCountsShortRead) {
  const uint32_t ip = PackIpv4("10.0.0.50");
  ScriptedPeer peer;
  ASSERT_TRUE(peer.Bind());
  UdpSocketTransport transport;
  ASSERT_TRUE(transport.Open());
  transport.Register(0, ip, peer.port());

  peer.Serve([&](const DecodedProbeRequest& request, const ScriptedPeer::Sender& send) {
    // A datagram that is neither v1- nor v2-sized, then the real reply so
    // the probe finishes without waiting out the timeout.
    const char garbage[5] = {1, 2, 3, 4, 5};
    send(garbage, sizeof(garbage));
    const ProbeReplyWire reply = EncodeProbeReply(request.seq, ip, SomeReport());
    send(reply.data(), reply.size());
  });

  const ProbeOutcome outcome = transport.Probe({0}, /*timeout=*/2.0);
  EXPECT_EQ(outcome.stats.requests_sent, 1);
  EXPECT_EQ(outcome.stats.replies_received, 1);
  EXPECT_EQ(outcome.stats.short_reads, 1);
  EXPECT_EQ(outcome.stats.late_replies, 0);
  EXPECT_EQ(outcome.stats.timeouts, 0);
  ASSERT_EQ(outcome.reports.size(), 1u);
}

TEST(UdpTransportTest, LateReplyOutsideSequenceWindowIsNotCounted) {
  const uint32_t ip = PackIpv4("10.0.0.51");
  ScriptedPeer peer;
  ASSERT_TRUE(peer.Bind());
  UdpSocketTransport transport;
  ASSERT_TRUE(transport.Open());
  transport.Register(0, ip, peer.port());

  peer.Serve([&](const DecodedProbeRequest& request, const ScriptedPeer::Sender& send) {
    // Well-formed reply with a sequence number from "a previous probe":
    // outside [base_seq, base_seq + fanout), so it must be dropped as late,
    // not delivered into this probe's report set.
    const ProbeReplyWire stale = EncodeProbeReply(request.seq + 1000, ip, SomeReport());
    send(stale.data(), stale.size());
    const ProbeReplyWire reply = EncodeProbeReply(request.seq, ip, SomeReport());
    send(reply.data(), reply.size());
  });

  const ProbeOutcome outcome = transport.Probe({0}, /*timeout=*/2.0);
  EXPECT_EQ(outcome.stats.replies_received, 1);
  EXPECT_EQ(outcome.stats.late_replies, 1);
  EXPECT_EQ(outcome.stats.short_reads, 0);
  EXPECT_EQ(outcome.stats.timeouts, 0);
}

// Regression for the deadline off-by-one (ISSUE 5 satellite): the gather
// loop used to truncate the remaining wait to whole milliseconds, so a
// reply landing in the final sub-millisecond — or at the deadline exactly —
// was dropped and the host double-counted as missing. With the injected
// clock pinned so the loop always observes "exactly at the deadline", the
// queued reply must still be drained (poll with a zero timeout) and the
// host counted answered exactly once.
TEST(UdpTransportTest, ReplyAtExactDeadlineCountsOnce) {
  const uint32_t ip = PackIpv4("10.0.0.52");
  ScriptedPeer peer;
  ASSERT_TRUE(peer.Bind());
  UdpSocketTransport transport;
  ASSERT_TRUE(transport.Open());
  transport.Register(0, ip, peer.port());

  std::atomic<bool> reply_sent{false};
  peer.Serve([&](const DecodedProbeRequest& request, const ScriptedPeer::Sender& send) {
    const ProbeReplyWire reply = EncodeProbeReply(request.seq, ip, SomeReport());
    send(reply.data(), reply.size());
    reply_sent.store(true);
  });

  const Seconds timeout = 0.25;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(timeout));
  std::atomic<int> clock_calls{0};
  transport.set_clock_for_test([&] {
    if (clock_calls.fetch_add(1) == 0) {
      return t0;  // Deadline computation.
    }
    // Gather loop: hold until the reply datagram is queued, then report
    // that the deadline has been reached exactly (remaining == 0).
    while (!reply_sent.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return deadline;
  });

  const ProbeOutcome outcome = transport.Probe({0}, timeout);
  EXPECT_EQ(outcome.stats.requests_sent, 1);
  EXPECT_EQ(outcome.stats.replies_received, 1);
  EXPECT_EQ(outcome.stats.timeouts, 0);
  // Never both answered and missing: the two tallies partition the fan-out.
  EXPECT_EQ(outcome.stats.replies_received + outcome.stats.timeouts,
            outcome.stats.requests_sent);
  ASSERT_EQ(outcome.reports.size(), 1u);
  EXPECT_EQ(outcome.reports.at(0).host, 0);
}


// ---- v2 wire format (Section 7 scalars) ----

TEST(WireTest, V2ReplyRoundTrip) {
  StatusReport report = SomeReport();
  report.cpu_cores_total = 8;
  report.cpu_cores_used = 2.5;
  report.mem_total = 32.0 * 1024 * 1024 * 1024;
  report.mem_used = 7.0 * 1024 * 1024 * 1024;
  const ProbeReplyV2Wire wire = EncodeProbeReplyV2(9, PackIpv4("10.0.0.9"), report);
  const auto decoded = DecodeProbeReplyV2(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_DOUBLE_EQ(decoded->report.nic_tx_use, report.nic_tx_use);
  EXPECT_DOUBLE_EQ(decoded->report.cpu_cores_total, 8.0);
  EXPECT_DOUBLE_EQ(decoded->report.cpu_cores_used, 2.5);
  EXPECT_DOUBLE_EQ(decoded->report.mem_used, 7.0 * 1024 * 1024 * 1024);
}

TEST(WireTest, V2SizeAndRequestFlag) {
  EXPECT_EQ(kProbeReplyV2Bytes, 102);
  const ProbeRequestWire plain = EncodeProbeRequest(1, 0, 0, false);
  const ProbeRequestWire extended = EncodeProbeRequest(1, 0, 0, true);
  EXPECT_FALSE(DecodeProbeRequest(plain)->want_extended);
  EXPECT_TRUE(DecodeProbeRequest(extended)->want_extended);
}

TEST(WireTest, V1ReplyIsNotValidV2) {
  const ProbeReplyWire v1 = EncodeProbeReply(1, 0, SomeReport());
  ProbeReplyV2Wire as_v2{};
  std::copy(v1.begin(), v1.end(), as_v2.begin());
  EXPECT_FALSE(DecodeProbeReplyV2(as_v2).has_value());
}

TEST(UdpTransportTest, ExtendedRepliesCarryScalars) {
  FakeSource source;
  StatusReport r = SomeReport();
  r.cpu_cores_total = 16;
  r.cpu_cores_used = 4;
  r.mem_total = 64.0 * 1024 * 1024 * 1024;
  r.mem_used = 8.0 * 1024 * 1024 * 1024;
  source.Set(r);
  UdpSocketTransport transport;
  ASSERT_TRUE(transport.Open());
  transport.set_request_extended(true);
  const uint32_t ip = PackIpv4("10.0.0.77");
  UdpStatusDaemon daemon(0, ip, &source);
  ASSERT_TRUE(daemon.Start());
  transport.Register(0, ip, daemon.port());
  const ProbeOutcome outcome = transport.Probe({0}, 1.0);
  ASSERT_EQ(outcome.reports.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.reports.at(0).cpu_cores_total, 16.0);
  EXPECT_DOUBLE_EQ(outcome.reports.at(0).cpu_cores_used, 4.0);
  EXPECT_EQ(outcome.stats.bytes_received, kProbeReplyV2Bytes);
}

}  // namespace
}  // namespace cloudtalk
