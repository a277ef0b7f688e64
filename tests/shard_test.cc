// Tests for the sharded CloudTalk deployment (src/core/shard.h): the
// ShardMap partition, the I410 no-double-reserve property, holds matching
// the one-shard server's over a sequence of reserving queries, the
// all-or-nothing reserve when an owning shard does not answer, the N-slot
// admission gate's any-slot wakeup and a stress run of its rounds, merge
// determinism against the one-shard server over every good fixture (and its
// canonical form and quote), and a concurrent admission stress run of
// answers and quotes (the TSan CI job builds this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/check.h"
#include "src/core/admission.h"
#include "src/core/packet_estimator.h"
#include "src/core/reservations.h"
#include "src/core/server.h"
#include "src/core/shard.h"
#include "src/harness/cluster.h"
#include "src/lang/canon.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

// ---- ShardMap: a total partition ----

TEST(ShardMapTest, EveryNodeOwnedByExactlyOneShard) {
  for (const int shards : {1, 2, 4, 7}) {
    const ShardMap map(shards);
    std::vector<int> owned(shards, 0);
    for (NodeId node = 0; node < 64; ++node) {
      const int owner = map.ShardOf(node);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, shards);
      owned[owner] += 1;
      // Deterministic: asking twice gives the same owner.
      EXPECT_EQ(map.ShardOf(node), owner);
    }
    // With 64 nodes and <= 7 shards, every shard owns someone.
    for (const int count : owned) {
      EXPECT_GT(count, 0);
    }
  }
  // Degenerate shard counts clamp to one shard rather than dividing by zero.
  EXPECT_EQ(ShardMap(0).shards(), 1);
  EXPECT_EQ(ShardMap(-3).shards(), 1);
}

// ---- Sharded server on a live cluster ----

std::unique_ptr<Cluster> MakeShardCluster(int hosts, uint64_t seed, Seconds hold, int slots = 2) {
  SingleSwitchParams params;
  params.num_hosts = hosts;
  params.host_caps.nic_up = params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = seed;
  options.server.seed = seed;
  options.server.eval_threads = 1;
  options.server.reservation_hold = hold;
  options.server.admission_slots = slots;
  auto cluster = std::make_unique<Cluster>(MakeSingleSwitch(params), options);
  cluster->StartStatusSweep();
  return cluster;
}

ShardedConfig ShardConfigFor(Cluster* cluster, int shards) {
  ShardedConfig cfg;
  cfg.server = cluster->cloudtalk().config();
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedServerTest, ReservationLandsOnExactlyTheOwningShard) {
  const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/5, /*hold=*/60.0);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  CloudTalkServer sharded(ShardConfigFor(&cluster, 4), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  const std::string query = "option static\nA = (" + cluster.ip(1) + " " + cluster.ip(2) +
                            " " + cluster.ip(3) + ")\nf1 A -> " + cluster.ip(0) +
                            " size 8M\n";
  const Result<QueryReply> reply = sharded.Answer(query);
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  const std::string picked = reply.value().binding.at("A").name;
  ASSERT_FALSE(picked.empty());
  // I410: the pick is reserved on its owner shard and nowhere else.
  const NodeId host = cluster.directory().Resolve(picked);
  const int owner = sharded.shard_map().ShardOf(host);
  const Seconds now = cluster.now();
  int holders = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    if (sharded.shard(s).reservations().IsReserved(host, now)) {
      EXPECT_EQ(s, owner);
      holders += 1;
    }
  }
  EXPECT_EQ(holders, 1);
  EXPECT_TRUE(sharded.IsReservedAnywhere(picked, now));
}

TEST(ShardedServerTest, UnresponsiveShardAbortsTheWholeReserve) {
  const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/5, /*hold=*/60.0);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  CloudTalkServer sharded(ShardConfigFor(&cluster, 4), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  // Single-host pools pin the binding, so we know exactly which shards must
  // hold it.
  const std::string host_a = cluster.ip(1);
  const std::string host_b = cluster.ip(2);
  const int owner_b = sharded.shard_map().ShardOf(cluster.directory().Resolve(host_b));
  const int owner_a = sharded.shard_map().ShardOf(cluster.directory().Resolve(host_a));
  ASSERT_NE(owner_a, owner_b);  // Distinct shards, or the abort proves nothing.
  sharded.shard(owner_b).set_unresponsive(true);
  const std::string query = "option static\nA = (" + host_a + ")\nB = (" + host_b +
                            ")\nf1 A -> " + cluster.ip(0) + " size 8M\nf2 B -> " +
                            cluster.ip(0) + " size 8M\n";
  const int64_t aborts_before = obs::Registry::Instance().counter("M118")->value();
  const Result<QueryReply> reply = sharded.Answer(query);
  // The binding is still returned — reservations are best-effort — but the
  // silent owner of B aborted the whole reserve: neither host is held.
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_EQ(reply.value().binding.at("A").name, host_a);
  EXPECT_EQ(reply.value().binding.at("B").name, host_b);
  const Seconds now = cluster.now();
  EXPECT_FALSE(sharded.IsReservedAnywhere(host_a, now));
  EXPECT_FALSE(sharded.IsReservedAnywhere(host_b, now));
  for (int s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.shard(s).reservations().ActiveCount(now), 0);
  }
  EXPECT_EQ(obs::Registry::Instance().counter("M118")->value(), aborts_before + 1);
  const obs::Trace& trace = reply.value().trace;
  const auto reserve =
      std::find_if(trace.spans.begin(), trace.spans.end(),
                   [](const obs::TraceSpan& span) { return span.name() == "reserve"; });
  ASSERT_NE(reserve, trace.spans.end());
  using Attr = std::pair<std::string, std::string>;
  const std::vector<Attr> attrs = trace.AttrsOf(reserve->id);
  EXPECT_NE(std::find(attrs.begin(), attrs.end(), Attr{"aborted", "1"}), attrs.end());
  EXPECT_NE(std::find(attrs.begin(), attrs.end(), Attr{"reserved", "0"}), attrs.end());
}

TEST(ShardedServerTest, UnresponsiveShardStatusFallsBackToAssumeLoaded) {
  // A shard that never answers probes makes its hosts look fully loaded
  // (assume_loaded_on_missing), steering the binding to a responsive shard
  // instead of failing the query.
  const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/9, /*hold=*/0);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  CloudTalkServer sharded(ShardConfigFor(&cluster, 4), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  const std::string host_dead = cluster.ip(1);
  const std::string host_live = cluster.ip(2);
  const int owner_dead = sharded.shard_map().ShardOf(cluster.directory().Resolve(host_dead));
  const int owner_live = sharded.shard_map().ShardOf(cluster.directory().Resolve(host_live));
  ASSERT_NE(owner_dead, owner_live);
  sharded.shard(owner_dead).set_unresponsive(true);
  const std::string query = "A = (" + host_dead + " " + host_live + ")\nf1 A -> " +
                            cluster.ip(0) + " size 8M\n";
  const Result<QueryReply> reply = sharded.Answer(query);
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_EQ(reply.value().binding.at("A").name, host_live);
  // The dead shard's probes count as timeouts in the merged stats.
  EXPECT_GT(reply.value().probe_stats.timeouts, 0);
}

// ---- Merge determinism: byte-identical to the one-shard server ----

// Everything an answer exposes, rendered bit-faithfully. Probe stats,
// counters, and traces legitimately differ between deployments.
std::string ReplyDigest(const Result<QueryReply>& reply) {
  if (!reply.ok()) {
    return "error: " + reply.error().message;
  }
  std::ostringstream out;
  out << "binding [";
  for (const auto& [var, endpoint] : reply.value().binding) {
    out << var << "=" << endpoint.name << " ";
  }
  out << "] scores [";
  for (const auto& [name, score] : reply.value().scores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g ", name.c_str(), score);
    out << buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", reply.value().estimate.makespan);
  out << "] makespan " << buf;
  return out.str();
}

// ReplyDigest in variable-name order, with names mapped back through
// `canon`'s certificate when given: canonicalization renames the variables
// and may reorder them.
std::string NameOrderedDigest(const Result<QueryReply>& reply,
                              const lang::CanonicalQuery* canon) {
  if (!reply.ok()) {
    return ReplyDigest(reply);
  }
  const auto original = [canon](const std::string& var) {
    const std::string* name = canon != nullptr ? canon->OriginalVariable(var) : nullptr;
    return name != nullptr ? *name : var;
  };
  std::map<std::string, std::string> binding;
  for (const auto& [var, endpoint] : reply.value().binding) {
    binding[original(var)] = endpoint.name;
  }
  std::map<std::string, double> scores;
  for (const auto& [var, score] : reply.value().scores) {
    scores[original(var)] = score;
  }
  std::ostringstream out;
  out << "binding [";
  for (const auto& [var, host] : binding) {
    out << var << "=" << host << " ";
  }
  out << "] scores [";
  for (const auto& [var, score] : scores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g ", var.c_str(), score);
    out << buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", reply.value().estimate.makespan);
  out << "] makespan " << buf;
  return out.str();
}

std::vector<std::filesystem::path> GoodFixtures() {
  std::vector<std::filesystem::path> fixtures;
  const std::filesystem::path root = std::filesystem::path(CLOUDTALK_QUERY_DIR) / "good";
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().extension() == ".ct") {
      fixtures.push_back(entry.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  return fixtures;
}

void AddShardLoad(Cluster* cluster) {
  cluster->AddBackgroundPair(cluster->host(2), cluster->host(5), 600 * kMbps);
  cluster->AddBackgroundPair(cluster->host(9), cluster->host(12), 800 * kMbps);
  cluster->MeasureNow();
}

TEST(ShardedServerTest, GoodFixturesAnswerByteIdenticalAcrossShardCounts) {
  const std::vector<std::filesystem::path> fixtures = GoodFixtures();
  ASSERT_FALSE(fixtures.empty()) << "no fixtures under " << CLOUDTALK_QUERY_DIR;
  for (const auto& path : fixtures) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string query = text.str();
    // Oracle: the one-shard server on its own identically seeded cluster.
    const std::unique_ptr<Cluster> oracle_cluster_ptr =
        MakeShardCluster(16, /*seed=*/21, /*hold=*/0.3);
    Cluster& oracle_cluster = *oracle_cluster_ptr;
    AddShardLoad(&oracle_cluster);
    const Result<QueryReply> oracle = oracle_cluster.cloudtalk().Answer(query);
    const std::string want = ReplyDigest(oracle);
    for (const int shards : {1, 2, 4}) {
      const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/21, /*hold=*/0.3);
      Cluster& cluster = *cluster_ptr;
      AddShardLoad(&cluster);
      CloudTalkServer sharded(ShardConfigFor(&cluster, shards), &cluster.directory(),
                              &cluster.transport(), [&cluster] { return cluster.now(); });
      EXPECT_EQ(ReplyDigest(sharded.Answer(query)), want)
          << path.filename() << " over " << shards << " shard(s)";
    }
    // The canonical text is answered like the original (D503) on a one-shard
    // twin, once its names are mapped back through the certificate.
    const Result<lang::Query> parsed = lang::Parse(query);
    ASSERT_TRUE(parsed.ok()) << path.filename();
    const Result<lang::CanonicalQuery> canon = lang::Canonicalize(parsed.value());
    ASSERT_TRUE(canon.ok()) << path.filename();
    const std::unique_ptr<Cluster> canon_cluster_ptr =
        MakeShardCluster(16, /*seed=*/21, /*hold=*/0.3);
    Cluster& canon_cluster = *canon_cluster_ptr;
    AddShardLoad(&canon_cluster);
    EXPECT_EQ(NameOrderedDigest(canon_cluster.cloudtalk().Answer(canon.value().text),
                                &canon.value()),
              NameOrderedDigest(oracle, nullptr))
        << path.filename() << " canonical form";
    // A quote is the answer, priced: on a one-shard twin it binds like the
    // oracle from the same probes (none under `option static`).
    const std::unique_ptr<Cluster> quote_cluster_ptr =
        MakeShardCluster(16, /*seed=*/21, /*hold=*/0.3);
    Cluster& quote_cluster = *quote_cluster_ptr;
    AddShardLoad(&quote_cluster);
    const Result<QuoteReply> quote = quote_cluster.cloudtalk().Quote(query);
    ASSERT_EQ(quote.ok(), oracle.ok()) << path.filename() << " quote";
    if (quote.ok()) {
      EXPECT_EQ(quote.value().binding, oracle.value().binding) << path.filename() << " quote";
    }
    const ProbeStats want_stats = oracle_cluster.cloudtalk().total_probe_stats();
    const ProbeStats got_stats = quote_cluster.cloudtalk().total_probe_stats();
    EXPECT_EQ(got_stats.requests_sent, want_stats.requests_sent) << path.filename();
    EXPECT_EQ(got_stats.replies_received, want_stats.replies_received) << path.filename();
    EXPECT_EQ(got_stats.bytes_sent, want_stats.bytes_sent) << path.filename();
    EXPECT_EQ(got_stats.bytes_received, want_stats.bytes_received) << path.filename();
  }
}

// Answers a sequence of reserving queries with overlapping pools, the
// cluster's clock advancing a third of the hold between answers so that
// earlier holds expire mid-sequence. Returns one line per answer: the reply
// digest, the holds M104 counted, and which pool hosts are held at the
// answer's instant, half a hold later and just past the hold. `shards` 0
// answers on the cluster's own one-shard server.
std::vector<std::string> HoldTimeline(int shards) {
  constexpr Seconds kHold = 0.3;
  constexpr int kPoolHosts = 8;  // Hosts 1..8; host 0 is the fixed peer.
  const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/29, kHold);
  Cluster& cluster = *cluster_ptr;
  AddShardLoad(&cluster);
  std::optional<CloudTalkServer> sharded;
  if (shards > 0) {
    sharded.emplace(ShardConfigFor(&cluster, shards), &cluster.directory(), &cluster.transport(),
                    [&cluster] { return cluster.now(); });
  }
  CloudTalkServer& server = sharded.has_value() ? *sharded : cluster.cloudtalk();
  const auto pool = [&cluster](std::initializer_list<int> hosts) {
    std::string text = "(";
    for (const int host : hosts) {
      text += (text.size() > 1 ? " " : "") + cluster.ip(host);
    }
    return text + ")";
  };
  const std::string peer = cluster.ip(0);
  const std::vector<std::string> queries = {
      "A = " + pool({1, 2, 3, 4}) + "\nf1 A -> " + peer + " size 8M\n",
      "A = " + pool({2, 3, 4, 5}) + "\nB = " + pool({3, 4, 5, 6}) + "\nf1 A -> B size 8M\n",
      "A = " + pool({1, 3, 5, 7}) + "\nf1 " + peer + " -> A size 8M\n",
      "A = B = " + pool({4, 5, 6, 7, 8}) + "\nf1 A -> B size 8M\n",
      "A = " + pool({1, 2}) + "\nB = " + pool({7, 8}) + "\nf1 A -> " + peer +
          " size 8M\nf2 B -> " + peer + " size 8M\n",
  };
  std::vector<std::string> timeline;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& query : queries) {
      const int64_t before = obs::Registry::Instance().counter("M104")->value();
      const std::string digest = ReplyDigest(server.Answer(query));
      std::string line = digest + " holds " +
                         std::to_string(obs::Registry::Instance().counter("M104")->value() -
                                        before) +
                         " held [";
      const Seconds now = cluster.now();
      for (const Seconds at : {now, now + kHold / 2, now + kHold + 0.001}) {
        for (int host = 1; host <= kPoolHosts; ++host) {
          if (server.IsReservedAnywhere(cluster.ip(host), at)) {
            line += " " + std::to_string(host) + "@" + std::to_string(at - now);
          }
        }
      }
      timeline.push_back(line + " ]");
      cluster.RunUntil(now + kHold / 3);
    }
  }
  return timeline;
}

// Holds recorded on each endpoint's owning shard behave like the one-shard
// server's single table: after every answer of the sequence, each pool host
// is held at the same instants, and M104 counts the same holds, at 1, 2 and
// 4 shards as on the one-shard server.
TEST(ShardedServerTest, HoldsMatchTheOneShardServer) {
  const std::vector<std::string> want = HoldTimeline(/*shards=*/0);
  ASSERT_EQ(want.size(), 10u);
  // The sequence does hold hosts, and lets some holds lapse.
  EXPECT_NE(want.front().find("@0.000000"), std::string::npos) << want.front();
  EXPECT_EQ(want.front().find("@0.301000"), std::string::npos) << want.front();
  for (const int shards : {1, 2, 4}) {
    const std::vector<std::string> got = HoldTimeline(shards);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "answer " << i << " over " << shards << " shard(s)";
    }
  }
}

TEST(ShardedServerTest, ProbeStatsMatchSingleServerTotals) {
  // Hierarchical aggregation re-partitions the probes but must not change
  // the totals: same requests, same replies, same bytes on the wire.
  const std::string query = "A = (10.0.0.1 10.0.0.2 10.0.0.3 10.0.0.4)\n"
                            "f1 A -> 10.0.0.9 size 32M\n";
  const std::unique_ptr<Cluster> oracle_cluster_ptr = MakeShardCluster(16, /*seed=*/13, /*hold=*/0);
  Cluster& oracle_cluster = *oracle_cluster_ptr;
  AddShardLoad(&oracle_cluster);
  const Result<QueryReply> want = oracle_cluster.cloudtalk().Answer(query);
  ASSERT_TRUE(want.ok()) << want.error().ToString();
  const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/13, /*hold=*/0);
  Cluster& cluster = *cluster_ptr;
  AddShardLoad(&cluster);
  CloudTalkServer sharded(ShardConfigFor(&cluster, 4), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  const Result<QueryReply> got = sharded.Answer(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  EXPECT_EQ(got.value().probe_stats.requests_sent, want.value().probe_stats.requests_sent);
  EXPECT_EQ(got.value().probe_stats.replies_received,
            want.value().probe_stats.replies_received);
  EXPECT_EQ(got.value().probe_stats.bytes_sent, want.value().probe_stats.bytes_sent);
  EXPECT_EQ(got.value().probe_stats.bytes_received,
            want.value().probe_stats.bytes_received);
  EXPECT_EQ(sharded.total_probe_stats().requests_sent,
            want.value().probe_stats.requests_sent);
}

TEST(ShardedServerTest, RouteAndAggregateSpansAppearInTraces) {
  const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/13, /*hold=*/0.3);
  Cluster& cluster = *cluster_ptr;
  AddShardLoad(&cluster);
  CloudTalkServer sharded(ShardConfigFor(&cluster, 4), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  const std::string query = "A = (10.0.0.1 10.0.0.2 10.0.0.5 10.0.0.6)\n"
                            "f1 A -> 10.0.0.9 size 32M\n";
  const Result<QueryReply> reply = sharded.Answer(query);
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  ASSERT_FALSE(reply.value().trace.empty());
  bool saw_route = false;
  bool saw_aggregate = false;
  for (const auto& span : reply.value().trace.spans) {
    if (span.name() == "route") {
      saw_route = true;
    }
    if (span.name() == "aggregate") {
      saw_aggregate = true;
    }
  }
  EXPECT_TRUE(saw_route);
  EXPECT_TRUE(saw_aggregate);
}

TEST(ShardedServerTest, PacketQuerySearchesOnceAtEveryShardCount) {
  // A packet query reaches the exhaustive search, which runs once over the
  // merged status however many shards gathered it: the same answer and the
  // same search counters at 1, 2 and 4 shards.
  const std::string query =
      "option packet\n"
      "A = B = (10.0.0.1 10.0.0.2 10.0.0.3 10.0.0.4 10.0.0.5 10.0.0.6)\n"
      "f1 A -> B size 2M\n"
      "f2 B -> A size 2M transfer t(f1)\n";
  std::string want;
  SearchCounters want_counters;
  for (const int shards : {1, 2, 4}) {
    const std::unique_ptr<Cluster> cluster_ptr = MakeShardCluster(16, /*seed=*/7, /*hold=*/0);
    Cluster& cluster = *cluster_ptr;
    AddShardLoad(&cluster);
    PacketLevelEstimator estimator(&cluster.topology(), &cluster.directory());
    CloudTalkServer server(ShardConfigFor(&cluster, shards), &cluster.directory(),
                           &cluster.transport(), [&cluster] { return cluster.now(); },
                           &estimator);
    const Result<QueryReply> reply = server.Answer(query);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    ASSERT_TRUE(reply.value().used_exhaustive);
    const SearchCounters& c = reply.value().counters;
    EXPECT_EQ(c.enumerated, 30);  // 6 × 5 distinct (A, B) bindings.
    if (shards == 1) {
      want = ReplyDigest(reply);
      want_counters = c;
      continue;
    }
    EXPECT_EQ(ReplyDigest(reply), want) << shards << " shards";
    EXPECT_EQ(c.evaluations, want_counters.evaluations) << shards << " shards";
    EXPECT_EQ(c.enumerated, want_counters.enumerated) << shards << " shards";
    EXPECT_EQ(c.threads_used, want_counters.threads_used) << shards << " shards";
  }
}

// ---- N-slot admission gate (src/core/admission.h) ----

// Regression for the release path: a waiter blocked purely on the slot
// count must be re-checked when ANY slot frees — not just the one its
// notify happened to target. With notify_one, releasing a slot while two
// waiters queue could wake the wrong one and deadlock.
TEST(AdmissionGateTest, WaiterBlockedOnCountWakesWhenAnySlotFrees) {
  AdmissionGate gate(/*slots=*/2);
  // Three reservers of three disjoint hosts.
  const std::vector<NodeId> a = {1};
  const std::vector<NodeId> b = {2};
  const std::vector<NodeId> c = {3};
  const uint64_t ta = gate.Admit(/*reserves=*/true, a);
  const uint64_t tb = gate.Admit(/*reserves=*/true, b);
  EXPECT_EQ(gate.InFlight(), 2);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    const uint64_t tc = gate.Admit(/*reserves=*/true, c);  // Blocked on count only.
    admitted.store(true);
    gate.Release(tc);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());  // Both slots held: still waiting.
  gate.Release(ta);               // Free ANY one slot...
  waiter.join();                  // ...and the count-blocked waiter proceeds.
  EXPECT_TRUE(admitted.load());
  gate.Release(tb);
  EXPECT_EQ(gate.InFlight(), 0);
}

TEST(AdmissionGateTest, ConflictingWaiterWaitsForTheConflictNotJustASlot) {
  AdmissionGate gate(/*slots=*/2);
  const std::vector<NodeId> a = {1, 4};
  const std::vector<NodeId> b = {2};
  // Conflicts with `a` (a shared pool host, both reserve).
  const std::vector<NodeId> c = {3, 4};
  const uint64_t ta = gate.Admit(/*reserves=*/true, a);
  const uint64_t tb = gate.Admit(/*reserves=*/true, b);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    const uint64_t tc = gate.Admit(/*reserves=*/true, c);
    admitted.store(true);
    gate.Release(tc);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  // Releasing the non-conflicting query frees a slot, but the shared host
  // with `a` still blocks the waiter.
  gate.Release(tb);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  gate.Release(ta);  // The conflicting query leaves: now it proceeds.
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

// Four threads race Admit/Release rounds through a 2-slot gate over
// overlapping host lists, readers and reservers mixed. Inside each admitted
// window, per-host occupancy counters check that a reserver shares no host
// with another query in flight and that at most two queries are in flight.
// The lists overlap, and a reserver of every host holds a slot while the
// threads start, so Admits park and Release's wake rule runs.
TEST(AdmissionGateTest, StressRoundsKeepConflictsApartAndNeverLoseAWakeup) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  constexpr int kHosts = 8;
  const std::vector<std::vector<NodeId>> lists = {{0, 1},    {1, 2, 3}, {3, 4}, {4, 5, 6},
                                                  {6, 7},    {0, 7},    {2, 5}, {1, 4, 7},
                                                  {0, 1, 2, 3, 4, 5, 6, 7}};
  AdmissionGate gate(/*slots=*/2);
  std::array<std::atomic<int>, kHosts> occupancy{};
  std::array<std::atomic<int>, kHosts> reserved{};
  std::atomic<int> in_flight{0};
  std::atomic<int> violations{0};
  std::atomic<int> finished{0};

  const uint64_t blocker = gate.Admit(/*reserves=*/true, lists.back());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<NodeId>& hosts = lists[(3 * t + 5 * round) % lists.size()];
        const bool reserves = (round + t) % 3 == 0;
        const uint64_t ticket = gate.Admit(reserves, hosts);
        if (in_flight.fetch_add(1) + 1 > 2) {
          violations.fetch_add(1);
        }
        for (const NodeId host : hosts) {
          occupancy[host].fetch_add(1);
          if (reserves) {
            reserved[host].fetch_add(1);
          }
        }
        std::this_thread::yield();
        for (const NodeId host : hosts) {
          if (reserves ? occupancy[host].load() != 1 : reserved[host].load() != 0) {
            violations.fetch_add(1);
          }
        }
        for (const NodeId host : hosts) {
          occupancy[host].fetch_sub(1);
          if (reserves) {
            reserved[host].fetch_sub(1);
          }
        }
        in_flight.fetch_sub(1);
        gate.Release(ticket);
      }
      finished.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Release(blocker);

  // A lost wake-up leaves an Admit parked for good, and joining it would
  // hang the suite: past the deadline, fail and end the process instead.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (finished.load() < kThreads) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << finished.load() << " of " << kThreads
                    << " threads finished: an Admit missed its wake-up";
      std::fflush(stdout);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(gate.InFlight(), 0);
}

TEST(AdmissionGateTest, ReleaseUnknownTicketFiresI409) {
  if (!check::kInvariantsEnabled) {
    GTEST_SKIP() << "built without CLOUDTALK_INVARIANTS";
  }
  const check::OnViolation saved = check::GetViolationPolicy();
  check::SetViolationPolicy(check::OnViolation::kThrow);
  AdmissionGate gate(/*slots=*/2);
  EXPECT_THROW(gate.Release(777), check::InvariantViolation);
  check::SetViolationPolicy(saved);
}

// ---- Concurrent admission stress (runs under TSan in CI) ----

TEST(ShardedServerTest, SixteenConcurrentDisjointQueriesAllComplete) {
  const std::unique_ptr<Cluster> cluster_ptr =
      MakeShardCluster(32, /*seed=*/17, /*hold=*/60.0, /*slots=*/8);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  CloudTalkServer sharded(ShardConfigFor(&cluster, 4), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  std::vector<std::thread> threads;
  std::vector<std::string> picks(16);
  std::vector<std::string> quoted(16);
  // Not vector<bool>: per-thread writes must land on distinct bytes.
  std::vector<char> ok(16, 0);
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&cluster, &sharded, &picks, &quoted, &ok, t] {
      // Each query draws from its own two-host slice: all disjoint, so up
      // to 8 evaluate concurrently through the N-slot gate.
      const std::string query = "option static\nA = (" + cluster.ip(2 * t) + " " +
                                cluster.ip(2 * t + 1) + ")\nf1 A -> disk size 1M\n";
      const Result<QueryReply> reply = sharded.Answer(query);
      ok[t] = reply.ok();
      if (reply.ok()) {
        picks[t] = reply.value().binding.at("A").name;
      }
      // The quote passes the same gate as a non-reserving query, while
      // other threads still answer.
      const Result<QuoteReply> quote = sharded.Quote(query);
      if (quote.ok()) {
        quoted[t] = quote.value().binding.at("A").name;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const Seconds now = cluster.now();
  for (int t = 0; t < 16; ++t) {
    EXPECT_TRUE(ok[t]) << "query " << t;
    ASSERT_FALSE(picks[t].empty());
    // Every pick committed its reservation on exactly one shard (I410).
    int holders = 0;
    for (int s = 0; s < sharded.num_shards(); ++s) {
      holders += sharded.shard(s).reservations().IsReserved(
                     cluster.directory().Resolve(picks[t]), now)
                     ? 1
                     : 0;
    }
    EXPECT_EQ(holders, 1) << picks[t];
    // The quote avoided the held pick, so it bound the slice's other host,
    // and reserved nothing there.
    const std::string other = picks[t] == cluster.ip(2 * t) ? cluster.ip(2 * t + 1)
                                                            : cluster.ip(2 * t);
    EXPECT_EQ(quoted[t], other) << "quote " << t;
    EXPECT_FALSE(sharded.IsReservedAnywhere(other, now)) << other;
  }
  // Disjoint slices: sixteen distinct hosts were reserved.
  EXPECT_EQ(std::set<std::string>(picks.begin(), picks.end()).size(), 16u);
}

}  // namespace
}  // namespace cloudtalk
