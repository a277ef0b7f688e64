// Tests for the packet-level simulator: TCP correctness, queue behaviour,
// incast, and the packet-level query estimator.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/directory.h"
#include "src/core/packet_estimator.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"
#include "src/packetsim/event_queue.h"
#include "src/packetsim/network.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

using packetsim::EventQueue;
using packetsim::NetworkParams;
using packetsim::PacketNetwork;

SingleSwitchParams Cluster(int hosts, Bps rate = 1 * kGbps) {
  SingleSwitchParams params;
  params.num_hosts = hosts;
  params.link_capacity = rate;
  params.link_delay = 50 * kMicrosecond;
  return params;
}

TEST(EventQueueTest, OrderingAndTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(0.2, [&] { order.push_back(2); });
  queue.Schedule(0.1, [&] { order.push_back(1); });
  queue.Schedule(0.1, [&] { order.push_back(3); });  // FIFO within a tick.
  queue.RunUntil(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(queue.now(), 1.0);
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue queue;
  queue.RunUntil(5.0);
  bool fired = false;
  queue.Schedule(1.0, [&] { fired = true; });
  queue.RunUntil(5.0);
  EXPECT_TRUE(fired);
}

TEST(PacketNetworkTest, SingleFlowApproachesLineRate) {
  const Topology topo = MakeSingleSwitch(Cluster(4));
  PacketNetwork net(&topo, NetworkParams{});
  Seconds done = -1;
  // 10 MB over 1 Gbps ~ 0.084 s at line rate; allow slow-start overhead.
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 10 * kMB, 0,
                   [&](packetsim::FlowId, Seconds t) { done = t; });
  net.RunUntilIdle();
  ASSERT_GT(done, 0);
  const Seconds ideal = 10 * kMB * 8 / 1e9;
  EXPECT_LT(done, ideal * 1.5);
  EXPECT_GE(done, ideal);
}

TEST(PacketNetworkTest, TwoFlowsShareBottleneck) {
  // Staggered starts (synchronized slow starts can wipe out one flow's
  // initial window and trigger a full min-RTO — that behaviour is the point
  // of the incast tests below, not this one).
  const Topology topo = MakeSingleSwitch(Cluster(4));
  PacketNetwork net(&topo, NetworkParams{});
  Seconds done_a = -1;
  Seconds done_b = -1;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[2], 5 * kMB, 0,
                   [&](packetsim::FlowId, Seconds t) { done_a = t; });
  net.StartTcpFlow(topo.hosts()[1], topo.hosts()[2], 5 * kMB, 0.01,
                   [&](packetsim::FlowId, Seconds t) { done_b = t; });
  net.RunUntilIdle();
  ASSERT_GT(done_a, 0);
  ASSERT_GT(done_b, 0);
  // The pair completes within ~2x of the shared-bottleneck ideal, plus one
  // min-RTO: a flow whose early window (< 3 packets) is lost cannot fast-
  // retransmit and must wait out the 200 ms timer — real TCP behaviour.
  const Seconds ideal = 2 * 5 * kMB * 8 / 1e9;
  EXPECT_LT(std::max(done_a, done_b), ideal * 2.0 + NetworkParams{}.min_rto);
  // And the bottleneck stays busy: neither flow finishes before the solo
  // time, and the second finisher is not (much) later than serial service.
  EXPECT_GE(std::max(done_a, done_b), 5 * kMB * 8 / 1e9);
}

TEST(PacketNetworkTest, DatagramDelivery) {
  const Topology topo = MakeSingleSwitch(Cluster(4));
  PacketNetwork net(&topo, NetworkParams{});
  Seconds delivered = -1;
  net.SendDatagram(topo.hosts()[0], topo.hosts()[1], 100, 0.5,
                   [&](Seconds t) { delivered = t; });
  net.RunUntilIdle();
  // Two hops of 50us delay + tiny serialization.
  EXPECT_GT(delivered, 0.5 + 100e-6);
  EXPECT_LT(delivered, 0.5 + 150e-6 + 2 * 100 * 8 / 1e9 + 1e-6);
}

TEST(PacketNetworkTest, IncastCausesTimeouts) {
  // Many synchronized senders, one receiver, shallow buffers: the flows
  // overflow the receiver's port and recover only via RTO — the Figure 11
  // phenomenon.
  const Topology topo = MakeSingleSwitch(Cluster(65));
  NetworkParams params;
  params.queue_packets = 50;
  PacketNetwork net(&topo, params);
  int completed = 0;
  Seconds last_done = 0;
  const int senders = 64;
  for (int i = 1; i <= senders; ++i) {
    net.StartTcpFlow(topo.hosts()[i], topo.hosts()[0], 64 * kKB, 0,
                     [&](packetsim::FlowId, Seconds t) {
                       ++completed;
                       last_done = std::max(last_done, t);
                     });
  }
  net.RunUntilIdle();
  EXPECT_EQ(completed, senders);
  EXPECT_GT(net.total_drops(), 0);
  EXPECT_GT(net.total_timeouts(), 0);
  // Ideal (no loss) would be 64*64KB*8/1e9 = 33 ms; incast blows through
  // at least one 200 ms RTO.
  EXPECT_GT(last_done, 0.2);
}

TEST(PacketNetworkTest, DeeperBuffersReduceIncast) {
  const int senders = 64;
  auto run = [&](int buffer_packets) {
    const Topology topo = MakeSingleSwitch(Cluster(senders + 1));
    NetworkParams params;
    params.queue_packets = buffer_packets;
    PacketNetwork net(&topo, params);
    Seconds last_done = 0;
    for (int i = 1; i <= senders; ++i) {
      net.StartTcpFlow(topo.hosts()[i], topo.hosts()[0], 64 * kKB, 0,
                       [&](packetsim::FlowId, Seconds t) { last_done = std::max(last_done, t); });
    }
    net.RunUntilIdle();
    return last_done;
  };
  // "Another way to handle the web-search query is ... racks with switches
  // that have larger per-port buffers" (Section 5.4).
  EXPECT_LT(run(4096), run(50));
}

TEST(PacketNetworkTest, RttEstimatorConvergesNoLoss) {
  const Topology topo = MakeSingleSwitch(Cluster(3));
  PacketNetwork net(&topo, NetworkParams{});
  Seconds done = -1;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 1 * kMB, 0,
                   [&](packetsim::FlowId, Seconds t) { done = t; });
  net.RunUntilIdle();
  EXPECT_GT(done, 0);
  EXPECT_EQ(net.total_timeouts(), 0);  // No loss: no spurious RTOs.
}

TEST(PacketNetworkTest, CrossRackFlowsTraverseVl2) {
  Vl2Params params;
  params.num_racks = 3;
  params.hosts_per_rack = 4;
  const Topology topo = MakeVl2(params);
  PacketNetwork net(&topo, NetworkParams{});
  Seconds done = -1;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[4], 1 * kMB, 0,
                   [&](packetsim::FlowId, Seconds t) { done = t; });
  net.RunUntilIdle();
  EXPECT_GT(done, 0);
}

TEST(PacketNetworkTest, NicCapClampsThroughput) {
  // EC2 profile: 10G fabric, 500 Mbps instance cap; the transfer must pace
  // at the cap, not the fabric rate.
  Ec2Params params;
  params.num_instances = 4;
  const Topology topo = MakeEc2(params);
  PacketNetwork net(&topo, NetworkParams{});
  Seconds done = -1;
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 10 * kMB, 0,
                   [&](packetsim::FlowId, Seconds t) { done = t; });
  net.RunUntilIdle();
  const Seconds ideal_at_cap = 10 * kMB * 8 / 500e6;
  EXPECT_GE(done, ideal_at_cap);
  EXPECT_LT(done, ideal_at_cap * 1.5);
}


// ---- Multipath (MPTCP-lite) ----

TEST(MultipathTest, SpreadsOverEcmpPaths) {
  // Oversubscribed two-rack fabric: 8 x 1 Gbps hosts per rack, 4 x 2 Gbps
  // uplinks. Eight synchronized elephants rack0 -> rack1: single-path ECMP
  // collides some of them onto the same uplink; 4-way striping spreads
  // every flow over every path.
  auto run = [&](bool multipath, uint64_t seed) {
    Vl2Params vp;
    vp.num_racks = 2;
    vp.hosts_per_rack = 8;
    vp.num_aggs = 4;
    vp.host_link = 1 * kGbps;
    vp.tor_uplink = 2 * kGbps;
    const Topology topo = MakeVl2(vp);
    NetworkParams params;
    params.seed = seed;
    PacketNetwork net(&topo, params);
    Seconds last = 0;
    for (int i = 0; i < 8; ++i) {
      auto cb = [&last](packetsim::FlowId, Seconds t) { last = std::max(last, t); };
      // Long transfers: elephants, where path collisions (not RTO quanta)
      // dominate completion time.
      if (multipath) {
        net.StartMultipathFlow(topo.hosts()[i], topo.hosts()[8 + i], 100 * kMB, 4, 0, cb);
      } else {
        net.StartTcpFlow(topo.hosts()[i], topo.hosts()[8 + i], 100 * kMB, 0, cb);
      }
    }
    net.RunUntilIdle(120);
    return last;
  };
  // Average over a few seeds: single-path suffers collisions somewhere.
  double single = 0;
  double multi = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    single += run(false, seed);
    multi += run(true, seed);
  }
  EXPECT_LT(multi, single);
  // Multipath should approach the 100 MB / 1 Gbps per-host ideal.
  EXPECT_LT(multi / 3, 2.0 * (100 * kMB * 8 / 1e9));
}

TEST(MultipathTest, SingleSubflowEqualsPlainTcp) {
  const Topology topo = MakeSingleSwitch(Cluster(3));
  Seconds plain = -1;
  Seconds striped = -1;
  {
    PacketNetwork net(&topo, NetworkParams{});
    net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 2 * kMB, 0,
                     [&](packetsim::FlowId, Seconds t) { plain = t; });
    net.RunUntilIdle();
  }
  {
    PacketNetwork net(&topo, NetworkParams{});
    net.StartMultipathFlow(topo.hosts()[0], topo.hosts()[1], 2 * kMB, 1, 0,
                           [&](packetsim::FlowId, Seconds t) { striped = t; });
    net.RunUntilIdle();
  }
  EXPECT_DOUBLE_EQ(plain, striped);
}

TEST(MultipathTest, ByteConservationAcrossStripes) {
  // 10 MB over 3 subflows: all bytes arrive (stripe rounding covered).
  const Topology topo = MakeSingleSwitch(Cluster(3));
  PacketNetwork net(&topo, NetworkParams{});
  Seconds done = -1;
  net.StartMultipathFlow(topo.hosts()[0], topo.hosts()[1], 10 * kMB + 7, 3, 0,
                         [&](packetsim::FlowId, Seconds t) { done = t; });
  net.RunUntilIdle();
  EXPECT_GT(done, 0);
}

// ---- Packet-level estimator ----

TEST(PacketEstimatorTest, ScatterGatherDependencies) {
  // Two leaves -> aggregator -> frontend. The aggregator flow starts only
  // after its leaf flow completes (transfer reference).
  const Topology topo = MakeSingleSwitch(Cluster(6));
  TopologyDirectory directory(&topo);
  directory.AddAlias("leaf1", topo.hosts()[0]);
  directory.AddAlias("leaf2", topo.hosts()[1]);
  directory.AddAlias("agg", topo.hosts()[2]);
  directory.AddAlias("frontend", topo.hosts()[3]);
  auto query = lang::Parse(
      "f1 leaf1 -> agg size 10KB\n"
      "f2 leaf2 -> agg size 10KB\n"
      "f3 agg -> frontend size 20KB transfer t(f1) + t(f2)\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  auto compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled.value().flows()[2].transfer_parents.size(), 2u);

  PacketLevelEstimator estimator(&topo, &directory);
  auto estimate = estimator.EstimateQuery(compiled.value(), {}, {});
  ASSERT_TRUE(estimate.ok()) << estimate.error().ToString();
  // Leaf flows ~ (10KB at 1Gbps) + RTTs; the forward leg adds more. Just
  // check ordering: makespan exceeds a single 10KB transfer.
  EXPECT_GT(estimate.value().makespan, 10 * kKB * 8 / 1e9);
  EXPECT_LT(estimate.value().makespan, 0.1);
}

TEST(PacketEstimatorTest, PlacementRankingFavorsSpreadAggregators) {
  // 2 racks of leaves; an aggregator placed in-rack with its leaves beats
  // sharing the frontend's rack uplink for everything.
  Vl2Params params;
  params.num_racks = 3;
  params.hosts_per_rack = 10;
  params.host_link = 1 * kGbps;
  const Topology topo = MakeVl2(params);
  TopologyDirectory directory(&topo);
  // Frontend in rack 2.
  directory.AddAlias("frontend", topo.hosts()[25]);
  std::string query_text;
  // 10 leaves in rack 0 all answering through one aggregator.
  for (int i = 0; i < 10; ++i) {
    const std::string leaf = "leaf" + std::to_string(i);
    directory.AddAlias(leaf, topo.hosts()[i]);
    query_text += "fa" + std::to_string(i) + " " + leaf + " -> AGG size 10KB\n";
  }
  query_text += "fagg AGG -> frontend size 100KB transfer t(fa0)\n";
  // Candidates: in rack 0 (with the leaves) vs in rack 2 (frontend's rack).
  directory.AddAlias("cand_same_rack", topo.hosts()[5]);
  directory.AddAlias("cand_far", topo.hosts()[26]);
  auto run = [&](const std::string& candidate) {
    auto query = lang::Parse("AGG = (" + candidate + ")\n" + query_text);
    EXPECT_TRUE(query.ok());
    auto compiled = lang::CompiledQuery::Compile(query.value());
    EXPECT_TRUE(compiled.ok());
    PacketLevelEstimator estimator(&topo, &directory);
    const Binding binding{{"AGG", lang::Endpoint::Address(candidate)}};
    const Result<std::vector<int>> slots = SlotsOf(compiled.value(), binding);
    EXPECT_TRUE(slots.ok());
    auto estimate = estimator.EstimateQuery(compiled.value(), slots.value(), {});
    EXPECT_TRUE(estimate.ok());
    return estimate.value().makespan;
  };
  // Both placements must at least produce sane numbers.
  const Seconds same_rack = run("cand_same_rack");
  const Seconds far = run("cand_far");
  EXPECT_GT(same_rack, 0);
  EXPECT_GT(far, 0);
}


TEST(PacketEstimatorTest, StartTimesDelayFlows) {
  const Topology topo = MakeSingleSwitch(Cluster(3));
  TopologyDirectory directory(&topo);
  directory.AddAlias("a", topo.hosts()[0]);
  directory.AddAlias("b", topo.hosts()[1]);
  auto query = lang::Parse("f1 a -> b size 100KB start 2\n");
  ASSERT_TRUE(query.ok());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  PacketLevelEstimator estimator(&topo, &directory);
  auto estimate = estimator.EstimateQuery(compiled.value(), {}, {});
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate.value().makespan, 2.0);
  EXPECT_LT(estimate.value().makespan, 2.1);
}

TEST(PacketNetworkTest, DatagramDroppedOnFullQueueIsSilent) {
  // Saturate a 50-packet switch queue with a TCP elephant, then fire many
  // datagrams through it: some are dropped, none crash, no callback fires
  // for the lost ones.
  const Topology topo = MakeSingleSwitch(Cluster(4));
  NetworkParams params;
  params.queue_packets = 4;  // Tiny buffers to force drops.
  PacketNetwork net(&topo, params);
  net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 5 * kMB, 0);
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    net.SendDatagram(topo.hosts()[2], topo.hosts()[1], 1400, 0.001,
                     [&](Seconds) { ++delivered; });
  }
  net.RunUntilIdle(60);
  EXPECT_GT(net.total_drops(), 0);
  EXPECT_LT(delivered, 200);
}

TEST(PacketEstimatorTest, RejectsUnknownEndpoints) {
  const Topology topo = MakeSingleSwitch(Cluster(3));
  TopologyDirectory directory(&topo);
  auto query = lang::Parse("f1 0.0.0.0 -> " + topo.IpOf(topo.hosts()[0]) + " size 1M\n");
  ASSERT_TRUE(query.ok());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  PacketLevelEstimator estimator(&topo, &directory);
  EXPECT_FALSE(estimator.EstimateQuery(compiled.value(), {}, {}).ok());
}

TEST(PacketEstimatorTest, DiskFlowsAreFree) {
  const Topology topo = MakeSingleSwitch(Cluster(3));
  TopologyDirectory directory(&topo);
  directory.AddAlias("a", topo.hosts()[0]);
  directory.AddAlias("b", topo.hosts()[1]);
  auto query = lang::Parse(
      "f1 a -> b size 100KB\n"
      "f2 b -> disk size 100KB transfer t(f1)\n");
  ASSERT_TRUE(query.ok());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  PacketLevelEstimator estimator(&topo, &directory);
  auto estimate = estimator.EstimateQuery(compiled.value(), {}, {});
  ASSERT_TRUE(estimate.ok()) << estimate.error().ToString();
  EXPECT_GT(estimate.value().makespan, 0);
}


// ---- PFC (priority flow control) ----

TEST(PfcTest, IncastLosslessAndFast) {
  // Section 2: PFC "prevents loss and completely eliminates incast-related
  // problems" for scatter-gather traffic.
  const Topology topo = MakeSingleSwitch(Cluster(65));
  NetworkParams params;
  params.queue_packets = 50;
  params.enable_pfc = true;
  PacketNetwork net(&topo, params);
  int completed = 0;
  Seconds last_done = 0;
  for (int i = 1; i <= 64; ++i) {
    net.StartTcpFlow(topo.hosts()[i], topo.hosts()[0], 64 * kKB, 0,
                     [&](packetsim::FlowId, Seconds t) {
                       ++completed;
                       last_done = std::max(last_done, t);
                     });
  }
  net.RunUntilIdle();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(net.total_drops(), 0);
  EXPECT_EQ(net.total_timeouts(), 0);
  EXPECT_GT(net.total_pauses(), 0);
  // Near the serialization bound (64 x 64 KB at 1 Gbps = 33.5 ms), far from
  // the >200 ms RTO-bound completion without PFC.
  EXPECT_LT(last_done, 0.1);
}

TEST(PfcTest, ElephantSuffersHeadOfLineBlocking) {
  // Section 2: PFC "reduces throughput for elephant flows". An elephant
  // sharing fabric with an incast-prone scatter-gather completes later
  // under PFC than with plain drop-tail.
  auto run = [&](bool pfc) {
    Vl2Params vp;
    vp.num_racks = 3;
    vp.hosts_per_rack = 40;
    vp.host_link = 1 * kGbps;
    vp.tor_uplink = 2 * kGbps;  // Oversubscribed: HOL blocking has teeth.
    const Topology topo = MakeVl2(vp);
    NetworkParams params;
    params.enable_pfc = pfc;
    PacketNetwork net(&topo, params);
    // Elephant: rack 1 host -> rack 0 host A (crosses rack 0's downlink).
    Seconds elephant_done = -1;
    net.StartTcpFlow(topo.hosts()[40], topo.hosts()[0], 40 * kMB, 0,
                     [&](packetsim::FlowId, Seconds t) { elephant_done = t; });
    // Incast: 36 rack-1/2 hosts -> rack 0 host B, repeatedly.
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 36; ++i) {
        net.StartTcpFlow(topo.hosts()[41 + i], topo.hosts()[1], 30 * kKB, round * 0.05,
                         nullptr);
      }
    }
    net.RunUntilIdle(120);
    return elephant_done;
  };
  const Seconds with_pfc = run(true);
  const Seconds without_pfc = run(false);
  ASSERT_GT(with_pfc, 0);
  ASSERT_GT(without_pfc, 0);
  EXPECT_GT(with_pfc, without_pfc);
}

TEST(PfcTest, NormalTrafficUnaffected) {
  // A single uncontended flow behaves identically with PFC on.
  const Topology topo = MakeSingleSwitch(Cluster(4));
  NetworkParams pfc_params;
  pfc_params.enable_pfc = true;
  Seconds with_pfc = -1;
  Seconds without_pfc = -1;
  {
    PacketNetwork net(&topo, pfc_params);
    net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 5 * kMB, 0,
                     [&](packetsim::FlowId, Seconds t) { with_pfc = t; });
    net.RunUntilIdle();
  }
  {
    PacketNetwork net(&topo, NetworkParams{});
    net.StartTcpFlow(topo.hosts()[0], topo.hosts()[1], 5 * kMB, 0,
                     [&](packetsim::FlowId, Seconds t) { without_pfc = t; });
    net.RunUntilIdle();
  }
  EXPECT_DOUBLE_EQ(with_pfc, without_pfc);
}

}  // namespace
}  // namespace cloudtalk
