// Tests for the static footprint & effect analysis (src/lang/scope) and
// its server consumers: effect inference, active/inert classification,
// admission conflicts over the hosts a query's pools resolve to, targeted
// probing identity on a live simulated cluster, partial-fleet sampling, and
// the concurrent admission gate (DESIGN.md "Footprint & effect analysis").
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/admission.h"
#include "src/core/heuristic.h"
#include "src/harness/cluster.h"
#include "src/lang/parser.h"
#include "src/lang/scope.h"
#include "src/status/sampling.h"
#include "src/topology/topology.h"

using namespace cloudtalk;

namespace {

lang::ScopeEffects EffectsOf(const std::string& text) {
  const Result<lang::Query> query = lang::Parse(text);
  EXPECT_TRUE(query.ok()) << (query.ok() ? "" : query.error().ToString());
  return lang::AnalyzeEffects(query.value());
}

lang::ScopeAnalysis MustAnalyze(const std::string& text) {
  const Result<lang::Query> query = lang::Parse(text);
  EXPECT_TRUE(query.ok()) << (query.ok() ? "" : query.error().ToString());
  const Result<lang::CompiledQuery> compiled =
      lang::CompiledQuery::Compile(query.value());
  EXPECT_TRUE(compiled.ok()) << (compiled.ok() ? "" : compiled.error().ToString());
  return lang::AnalyzeScope(compiled.value());
}

// A 10-host fleet, 10.0.0.1 to 10.0.0.10, whose directory also knows
// 10.0.0.2 as `host2`.
const TopologyDirectory& AliasDirectory() {
  static const Topology topo = [] {
    SingleSwitchParams params;
    params.num_hosts = 10;
    return MakeSingleSwitch(params);
  }();
  static const TopologyDirectory directory = [] {
    TopologyDirectory d(&topo);
    d.AddAlias("host2", topo.HostByIp("10.0.0.2"));
    return d;
  }();
  return directory;
}

// One answer's view of a query, as the server admits it: whether it
// reserves, and the hosts its pools resolve to.
struct Admission {
  explicit Admission(const std::string& text)
      : query(lang::Parse(text).value()),
        compiled(lang::CompiledQuery::Compile(query).value()),
        reserves(lang::AnalyzeScope(compiled).effects.reserves),
        answer(compiled.hosts(), &AliasDirectory()) {}

  lang::Query query;
  lang::CompiledQuery compiled;
  bool reserves;
  AnswerHosts answer;
};

// Checks whether the admission gate keeps `a` out while `b` is in flight. A
// conflicting `a` can never be admitted while `b` holds its slot, so it must
// still be waiting after a short pause; one that does not conflict must be
// admitted, within seconds.
void ExpectConflict(const std::string& a, const std::string& b, bool conflict) {
  const Admission first(b);
  const Admission second(a);
  AdmissionGate gate(/*slots=*/2);
  const uint64_t held = gate.Admit(first.reserves, first.answer.pool_hosts);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    const uint64_t ticket = gate.Admit(second.reserves, second.answer.pool_hosts);
    admitted.store(true);
    gate.Release(ticket);
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        (conflict ? std::chrono::milliseconds(50) : std::chrono::seconds(5));
  while (!admitted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(admitted.load(), !conflict) << a << "while in flight:\n" << b;
  gate.Release(held);
  waiter.join();
}

NodeId HostOf(const std::string& name) { return AliasDirectory().Resolve(name); }

const lang::ScopeHost* FindHost(const lang::ScopeAnalysis& scope,
                                const std::string& address) {
  for (const lang::ScopeHost& host : scope.footprint) {
    if (host.address == address) {
      return &host;
    }
  }
  return nullptr;
}

// ---- Effect inference (AST only, no compilation) ----

TEST(ScopeEffectsTest, DefaultQueryReservesAndSamples) {
  const lang::ScopeEffects effects = EffectsOf(
      "A = (10.0.0.1 10.0.0.2)\nf1 A -> 10.0.0.3 size 1M\n");
  EXPECT_TRUE(effects.reserves);
  EXPECT_TRUE(effects.samples);
  EXPECT_FALSE(effects.pure);
  EXPECT_FALSE(effects.uses_packet_engine);
  EXPECT_EQ(effects.max_pool_size, 2);
  EXPECT_EQ(lang::EffectsName(effects), "reserve,sample");
}

TEST(ScopeEffectsTest, NoreserveIsPure) {
  const lang::ScopeEffects effects = EffectsOf(
      "option noreserve\nA = (10.0.0.1)\nf1 A -> 10.0.0.3 size 1M\n");
  EXPECT_FALSE(effects.reserves);
  EXPECT_TRUE(effects.pure);
  EXPECT_EQ(lang::EffectsName(effects), "sample");
}

TEST(ScopeEffectsTest, StaticNoreserveHasNoEffects) {
  const lang::ScopeEffects effects = EffectsOf(
      "option static\noption noreserve\nA = (10.0.0.1)\nf1 A -> "
      "10.0.0.3 size 1M\n");
  EXPECT_FALSE(effects.reserves);
  EXPECT_FALSE(effects.samples);
  EXPECT_TRUE(effects.pure);
  EXPECT_EQ(lang::EffectsName(effects), "pure");
}

TEST(ScopeEffectsTest, PacketEngineNeverReserves) {
  // The exhaustive packet path ignores the reservation table, so `option
  // packet` cancels the reserve effect even without `option noreserve`.
  const lang::ScopeEffects effects = EffectsOf(
      "option packet\nA = (10.0.0.1)\nf1 A -> 10.0.0.3 size 1M\n");
  EXPECT_TRUE(effects.uses_packet_engine);
  EXPECT_FALSE(effects.reserves);
  EXPECT_TRUE(effects.pure);
}

// ---- Footprint classification ----

TEST(ScopeFootprintTest, InertPoolHostsAreExcluded) {
  const lang::ScopeAnalysis scope = MustAnalyze(
      "A = (10.0.0.1 10.0.0.2)\nidle = (10.0.0.8 10.0.0.9)\n"
      "f1 A -> 10.0.0.3 size 1M\n");
  EXPECT_NE(FindHost(scope, "10.0.0.1"), nullptr);
  EXPECT_NE(FindHost(scope, "10.0.0.2"), nullptr);
  EXPECT_NE(FindHost(scope, "10.0.0.3"), nullptr);
  EXPECT_EQ(FindHost(scope, "10.0.0.8"), nullptr);
  EXPECT_EQ(FindHost(scope, "10.0.0.9"), nullptr);
  ASSERT_EQ(scope.excluded.size(), 2u);  // Sorted by address.
  EXPECT_EQ(scope.excluded[0], "10.0.0.8");
  EXPECT_EQ(scope.excluded[1], "10.0.0.9");
  ASSERT_EQ(scope.inert_variables.size(), 1u);
  EXPECT_EQ(scope.inert_variables[0], "idle");
}

TEST(ScopeFootprintTest, CandidatesCoverInertPoolsForReservationVisibility) {
  // The heuristic's reservation check steers every variable's binding —
  // inert ones included — away from held hosts, and any bound endpoint
  // gets held. So the hosts the admission gate intersects must cover inert
  // pools even though the status footprint never does.
  const std::string text = "A = (10.0.0.1)\nidle = (10.0.0.8 10.0.0.1)\nf1 A -> 10.0.0.3 size 1M\n";
  // Sorted and distinct; literals are never held, so 10.0.0.3 is out.
  EXPECT_EQ(Admission(text).answer.pool_hosts,
            (std::vector<NodeId>{HostOf("10.0.0.1"), HostOf("10.0.0.8")}));
  const lang::ScopeAnalysis scope = MustAnalyze(text);
  EXPECT_EQ(FindHost(scope, "10.0.0.8"), nullptr);
}

TEST(ScopeFootprintTest, FieldBitsFollowCommunicationPattern) {
  const lang::ScopeAnalysis scope = MustAnalyze(
      "A = (10.0.0.1)\nB = (10.0.0.2)\nB requires cpu 2\n"
      "f1 A -> B size 1M\nf2 B -> disk size 1M\n"
      "f3 10.0.0.5 -> 10.0.0.6 size 1M\n");
  const lang::ScopeHost* a = FindHost(scope, "10.0.0.1");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->candidate);
  EXPECT_FALSE(a->endpoint);
  EXPECT_NE(a->fields & lang::kScopeFieldNetOut, 0);  // Source of f1.
  EXPECT_EQ(a->fields & lang::kScopeFieldDisk, 0);
  EXPECT_EQ(a->fields & lang::kScopeFieldCpu, 0);

  const lang::ScopeHost* b = FindHost(scope, "10.0.0.2");
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b->fields & lang::kScopeFieldNetIn, 0);  // Sink of f1.
  EXPECT_NE(b->fields & lang::kScopeFieldDisk, 0);   // Writer of f2.
  EXPECT_NE(b->fields & lang::kScopeFieldCpu, 0);    // Carries a requirement.

  const lang::ScopeHost* src = FindHost(scope, "10.0.0.5");
  ASSERT_NE(src, nullptr);
  EXPECT_TRUE(src->endpoint);
  EXPECT_FALSE(src->candidate);
  EXPECT_EQ(lang::ScopeFieldNames(src->fields), "net-out");
  const lang::ScopeHost* dst = FindHost(scope, "10.0.0.6");
  ASSERT_NE(dst, nullptr);
  EXPECT_EQ(lang::ScopeFieldNames(dst->fields), "net-in");
}

TEST(ScopeFootprintTest, RequirementAloneMakesVariableActive) {
  // A variable with no flows but a cpu/mem requirement still reads status
  // (the heuristic's requirement filter), so its pool stays in scope.
  const lang::ScopeAnalysis scope = MustAnalyze(
      "A = (10.0.0.1)\nW = (10.0.0.7)\nW requires cpu 4\n"
      "f1 A -> 10.0.0.3 size 1M\n");
  EXPECT_NE(FindHost(scope, "10.0.0.7"), nullptr);
  EXPECT_TRUE(scope.inert_variables.empty());
  const lang::ScopeHost* w = FindHost(scope, "10.0.0.7");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(lang::ScopeFieldNames(w->fields), "cpu");
}

// ---- Admission conflicts over resolved hosts ----

TEST(ScopeConflictTest, DisjointReserversCommute) {
  ExpectConflict("A = (10.0.0.1 10.0.0.2)\nf1 A -> 10.0.0.3 size 1M\n",
                 "B = (10.0.0.4 10.0.0.5)\nf1 B -> 10.0.0.6 size 1M\n", false);
}

TEST(ScopeConflictTest, OverlappingReserversConflict) {
  const std::string a = "A = (10.0.0.1 10.0.0.2)\nf1 A -> 10.0.0.3 size 1M\n";
  const std::string b = "B = (10.0.0.2 10.0.0.4)\nf1 B -> 10.0.0.6 size 1M\n";
  ExpectConflict(a, b, true);
  ExpectConflict(b, a, true);
}

TEST(ScopeConflictTest, TwoReadersNeverConflict) {
  ExpectConflict("option noreserve\nA = (10.0.0.1)\nf1 A -> 10.0.0.3 size 1M\n",
                 "option noreserve\nB = (10.0.0.1)\nf1 B -> 10.0.0.6 size 1M\n", false);
}

TEST(ScopeConflictTest, InertPoolOverlapStillConflicts) {
  // The shared host appears only in inert pools, but both queries can bind
  // (and reserve) it — the conflict check must see through inertness.
  ExpectConflict("A = (10.0.0.1)\ncat = (10.0.0.9)\nf1 A -> 10.0.0.3 size 1M\n",
                 "B = (10.0.0.5)\ncat = (10.0.0.9)\nf1 B -> 10.0.0.6 size 1M\n", true);
}

TEST(ScopeConflictTest, SharedLiteralEndpointDoesNotConflict) {
  // Literal endpoints are never reserved (only variable bindings are), so a
  // shared sink is not a reservation conflict.
  ExpectConflict("A = (10.0.0.1)\nf1 A -> 10.0.0.3 size 1M\n",
                 "B = (10.0.0.5)\nf1 B -> 10.0.0.3 size 1M\n", false);
}

TEST(ScopeConflictTest, AliasAndAddressOfOneHostConflict) {
  // `host2` and 10.0.0.2 are one host: a reserver spelling it either way
  // keeps out one spelling it the other way, in either order. A reserver of
  // other hosts is still admitted beside either.
  const std::string by_alias = "A = (host2 10.0.0.3)\nf1 A -> 10.0.0.9 size 1M\n";
  const std::string by_address = "B = (10.0.0.2 10.0.0.4)\nf1 B -> 10.0.0.9 size 1M\n";
  const std::string disjoint = "C = (10.0.0.5 10.0.0.6)\nf1 C -> 10.0.0.9 size 1M\n";
  ExpectConflict(by_alias, by_address, true);
  ExpectConflict(by_address, by_alias, true);
  ExpectConflict(by_alias, disjoint, false);
  ExpectConflict(disjoint, by_address, false);
}

// ---- Targeted probing on a live cluster ----

std::unique_ptr<Cluster> MakeCluster(bool pruning, int hosts, uint64_t seed, Seconds hold,
                                     int slots = 2, int sample_threshold = 100) {
  SingleSwitchParams params;
  params.num_hosts = hosts;
  params.host_caps.nic_up = params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = seed;
  options.server.seed = seed;
  options.server.eval_threads = 1;
  options.server.reservation_hold = hold;
  options.server.scope_probe_pruning = pruning;
  options.server.admission_slots = slots;
  options.server.sample_threshold = sample_threshold;
  auto cluster = std::make_unique<Cluster>(MakeSingleSwitch(params), options);
  cluster->StartStatusSweep();
  return cluster;
}

// A footprint-sparse query: a small active slice plus a fleet-wide inert
// pool that inflates the mentioned set without widening the footprint.
std::string SparseQuery(const Cluster& cluster, int active_hosts) {
  Cluster& c = const_cast<Cluster&>(cluster);
  std::string query = "A = (";
  for (int i = 1; i <= active_hosts; ++i) {
    query += (i > 1 ? " " : "") + c.ip(i);
  }
  query += ")\ncatalog = (";
  for (int i = 0; i < c.num_hosts(); ++i) {
    query += (i > 0 ? " " : "") + c.ip(i);
  }
  query += ")\nf1 A -> " + c.ip(0) + " size 64M\n";
  return query;
}

TEST(ScopeClusterTest, FootprintPruningByteIdenticalUnderLoad) {
  const std::unique_ptr<Cluster> pruned_ptr =
      MakeCluster(/*pruning=*/true, 16, /*seed=*/7, /*hold=*/0);
  Cluster& pruned = *pruned_ptr;
  const std::unique_ptr<Cluster> full_ptr =
      MakeCluster(/*pruning=*/false, 16, /*seed=*/7, /*hold=*/0);
  Cluster& full = *full_ptr;
  for (Cluster* c : {&pruned, &full}) {
    c->AddBackgroundPair(c->host(2), c->host(5), 600 * kMbps);
    c->AddBackgroundPair(c->host(9), c->host(12), 800 * kMbps);
    c->MeasureNow();
  }
  const std::string query = SparseQuery(pruned, 4);
  const Result<QueryReply> a = pruned.cloudtalk().Answer(query);
  const Result<QueryReply> b = full.cloudtalk().Answer(query);
  ASSERT_TRUE(a.ok()) << a.error().ToString();
  ASSERT_TRUE(b.ok()) << b.error().ToString();
  EXPECT_EQ(a.value().binding.at("A").name, b.value().binding.at("A").name);
  EXPECT_EQ(a.value().binding.at("catalog").name, b.value().binding.at("catalog").name);
  EXPECT_EQ(a.value().estimate.makespan, b.value().estimate.makespan);
  ASSERT_EQ(a.value().scores.size(), b.value().scores.size());
  for (size_t i = 0; i < a.value().scores.size(); ++i) {
    EXPECT_EQ(a.value().scores[i].second, b.value().scores[i].second);
  }
  // Footprint: 4 candidates + 1 literal; full probing covers the fleet.
  EXPECT_EQ(a.value().probe_stats.requests_sent, 5);
  EXPECT_EQ(b.value().probe_stats.requests_sent, 16);
}

TEST(ScopeClusterTest, StaticPathSkipsExcludedHosts) {
  const std::unique_ptr<Cluster> pruned_ptr =
      MakeCluster(/*pruning=*/true, 16, /*seed=*/3, /*hold=*/0);
  Cluster& pruned = *pruned_ptr;
  const std::unique_ptr<Cluster> full_ptr =
      MakeCluster(/*pruning=*/false, 16, /*seed=*/3, /*hold=*/0);
  Cluster& full = *full_ptr;
  pruned.MeasureNow();
  full.MeasureNow();
  const std::string query = "option static\n" + SparseQuery(pruned, 3);
  const Result<QueryReply> a = pruned.cloudtalk().Answer(query);
  const Result<QueryReply> b = full.cloudtalk().Answer(query);
  ASSERT_TRUE(a.ok()) << a.error().ToString();
  ASSERT_TRUE(b.ok()) << b.error().ToString();
  EXPECT_EQ(a.value().probe_stats.requests_sent, 0);  // Static: no probes.
  EXPECT_EQ(a.value().binding.at("A").name, b.value().binding.at("A").name);
  EXPECT_EQ(a.value().estimate.makespan, b.value().estimate.makespan);
}

// ---- Partial-fleet sampling (src/status/sampling) ----

TEST(SamplingScopeTest, RequiredSamplesEdges) {
  // One idle server wanted, everything idle: a single probe suffices.
  EXPECT_EQ(RequiredSamples(1, 1.0, 0.99), 1);
  // Nothing is ever idle: the search saturates at max_n.
  EXPECT_EQ(RequiredSamples(1, 0.0, 0.9, /*max_n=*/64), 64);
  // More idle servers wanted can never need fewer probes.
  EXPECT_GE(RequiredSamples(5, 0.2, 0.9), RequiredSamples(1, 0.2, 0.9));
  // Certain event: at least zero successes always happens.
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0.5, 0), 1.0);
}

TEST(SamplingScopeTest, OversizedInertPoolKeepsSamplingDrawsIdentical) {
  // Both pools exceed the sample threshold, so both consume RNG draws when
  // sampled — including the inert one. Pruning filters the probe *targets*
  // only, never the draws, so the sampled answer stays byte-identical.
  const std::unique_ptr<Cluster> pruned_ptr =
      MakeCluster(true, 20, /*seed=*/11, /*hold=*/0, /*slots=*/2, /*sample_threshold=*/4);
  Cluster& pruned = *pruned_ptr;
  const std::unique_ptr<Cluster> full_ptr =
      MakeCluster(false, 20, /*seed=*/11, /*hold=*/0, /*slots=*/2, /*sample_threshold=*/4);
  Cluster& full = *full_ptr;
  for (Cluster* c : {&pruned, &full}) {
    c->AddBackgroundPair(c->host(3), c->host(6), 700 * kMbps);
    c->MeasureNow();
  }
  const std::string query = SparseQuery(pruned, 8);  // Active pool of 8 > 4.
  const Result<QueryReply> a = pruned.cloudtalk().Answer(query);
  const Result<QueryReply> b = full.cloudtalk().Answer(query);
  ASSERT_TRUE(a.ok()) << a.error().ToString();
  ASSERT_TRUE(b.ok()) << b.error().ToString();
  EXPECT_EQ(a.value().binding.at("A").name, b.value().binding.at("A").name);
  EXPECT_EQ(a.value().binding.at("catalog").name, b.value().binding.at("catalog").name);
  EXPECT_EQ(a.value().estimate.makespan, b.value().estimate.makespan);
  EXPECT_LT(a.value().probe_stats.requests_sent, b.value().probe_stats.requests_sent);
}

// ---- Concurrent admission gate ----

// Admission-gate tests use `option static` so concurrent answers never
// touch the simulated probe transport (which is single-threaded); the
// static path still runs the full bind + reserve pipeline.
TEST(ScopeAdmissionTest, ConflictingReserversSerializeToDistinctPicks) {
  const std::unique_ptr<Cluster> cluster_ptr = MakeCluster(true, 8, /*seed=*/1, /*hold=*/60.0);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  std::string query = "option static\nA = (";
  for (int i = 1; i <= 4; ++i) {
    query += (i > 1 ? " " : "") + cluster.ip(i);
  }
  query += ")\nf1 A -> " + cluster.ip(0) + " size 1M\n";

  std::vector<std::string> picks(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cluster, &query, &picks, t] {
      const Result<QueryReply> reply = cluster.cloudtalk().Answer(query);
      if (reply.ok()) {
        picks[t] = reply.value().binding.at("A").name;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // The gate serializes conflicting reservers, so each query observes every
  // earlier reservation and steers to a fresh host: four distinct picks.
  // Without serialization two queries could race to the same best host.
  const std::set<std::string> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 4u);
  for (const std::string& pick : picks) {
    EXPECT_FALSE(pick.empty());
  }
}

TEST(ScopeAdmissionTest, DisjointReserversBothComplete) {
  const std::unique_ptr<Cluster> cluster_ptr = MakeCluster(true, 16, /*seed=*/1, /*hold=*/60.0);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  const std::string left = "option static\nA = (" + cluster.ip(1) + " " + cluster.ip(2) +
                           ")\nf1 A -> " + cluster.ip(0) + " size 1M\n";
  const std::string right = "option static\nB = (" + cluster.ip(9) + " " + cluster.ip(10) +
                            ")\nf1 B -> " + cluster.ip(8) + " size 1M\n";
  std::string left_pick;
  std::string right_pick;
  std::thread lt([&] {
    const Result<QueryReply> reply = cluster.cloudtalk().Answer(left);
    if (reply.ok()) {
      left_pick = reply.value().binding.at("A").name;
    }
  });
  std::thread rt([&] {
    const Result<QueryReply> reply = cluster.cloudtalk().Answer(right);
    if (reply.ok()) {
      right_pick = reply.value().binding.at("B").name;
    }
  });
  lt.join();
  rt.join();
  // Disjoint footprints are admitted concurrently; each binds in its slice.
  EXPECT_TRUE(left_pick == cluster.ip(1) || left_pick == cluster.ip(2)) << left_pick;
  EXPECT_TRUE(right_pick == cluster.ip(9) || right_pick == cluster.ip(10)) << right_pick;
}

TEST(ScopeAdmissionTest, SingleSlotFallsBackToSerial) {
  const std::unique_ptr<Cluster> cluster_ptr =
      MakeCluster(true, 16, /*seed=*/1, /*hold=*/60.0, /*slots=*/1);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  std::vector<std::thread> threads;
  // Not vector<bool>: per-thread writes must land on distinct bytes.
  std::vector<char> ok(3, 0);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&cluster, &ok, t] {
      const int base = 1 + 4 * t;
      const std::string query = "option static\nA = (" + cluster.ip(base) + " " +
                                cluster.ip(base + 1) + ")\nf1 A -> " + cluster.ip(0) +
                                " size 1M\n";
      ok[t] = cluster.cloudtalk().Answer(query).ok();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(ok[0] && ok[1] && ok[2]);
}

TEST(ScopeAdmissionTest, GateBypassedWithoutReservations) {
  // reservation_hold == 0 disables both the table and the gate; concurrent
  // pure queries must still complete.
  const std::unique_ptr<Cluster> cluster_ptr = MakeCluster(true, 8, /*seed=*/1, /*hold=*/0);
  Cluster& cluster = *cluster_ptr;
  cluster.MeasureNow();
  const std::string query = "option static\noption noreserve\nA = (" + cluster.ip(1) + " " +
                            cluster.ip(2) + ")\nf1 A -> " + cluster.ip(0) + " size 1M\n";
  std::vector<std::thread> threads;
  // Not vector<bool>: per-thread writes must land on distinct bytes.
  std::vector<char> ok(2, 0);
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(
        [&cluster, &query, &ok, t] { ok[t] = cluster.cloudtalk().Answer(query).ok(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(ok[0] && ok[1]);
}

}  // namespace
