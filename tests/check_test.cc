// Tests for the invariant-checking library (src/check), the lock registry
// (src/common/lock_registry), and one deliberately-corrupted state per
// instrumented subsystem (fluidsim, hdfs, mapred).
//
// The binary is built in both invariant modes: with CLOUDTALK_INVARIANTS the
// macro-based checks must fire on corrupted state; without it they must
// compile to nothing (conditions unevaluated), while the always-compiled
// checkers (LockRegistry, AccessCell) still work. Tests that need the
// macros skip themselves in OFF builds.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/check.h"
#include "src/common/lock_registry.h"
#include "src/fluidsim/fluid_simulation.h"
#include "src/harness/cluster.h"
#include "src/hdfs/mini_hdfs.h"
#include "src/mapred/mini_mapreduce.h"
#include "src/topology/topology.h"

namespace cloudtalk {

// Test peers: corrupt private state so invariants have something to catch.
struct FluidSimTestPeer {
  static void CorruptResidual(FluidSimulation& sim, GroupId id, Bytes value) {
    for (auto& group : sim.groups_) {
      if (group.id == id) {
        ASSERT_FALSE(group.members.empty());
        group.members[0].remaining = value;
        return;
      }
    }
    FAIL() << "group " << id << " not found";
  }
};

struct MapRedTestPeer {
  static int num_trackers(MiniMapReduce& mr) { return static_cast<int>(mr.trackers_.size()); }
  static void CorruptRunningMaps(MiniMapReduce& mr, int delta) {
    ASSERT_FALSE(mr.trackers_.empty());
    mr.trackers_[0].running_maps += delta;
  }
  static void Verify(MiniMapReduce& mr) { mr.VerifySchedulerState(); }
};

namespace {

using check::OnViolation;
using check::Violation;

// Installs a recording sink with log-and-continue for the test body and
// restores the abort default afterwards, so a stray violation in one test
// cannot kill or poison the rest of the binary.
class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    check::ResetViolationCountForTest();
    check::SetCheckSink(&sink_);
    check::SetViolationPolicy(OnViolation::kLogAndContinue);
    LockRegistry::Instance().ResetForTest();
  }
  void TearDown() override {
    check::SetCheckSink(nullptr);
    check::SetViolationPolicy(OnViolation::kAbort);
    LockRegistry::Instance().ResetForTest();
  }

  std::vector<Violation> Taken() { return sink_.TakeAll(); }

  check::RecordingSink sink_;
};

TEST_F(CheckTest, ConditionEvaluatedOnlyWhenCompiledIn) {
  int calls = 0;
  auto probe = [&] {
    ++calls;
    return true;
  };
  CT_INVARIANT(probe(), "D000", "held condition");
  EXPECT_EQ(calls, check::kInvariantsEnabled ? 1 : 0);
  EXPECT_TRUE(Taken().empty());

  // A failing condition only reports when compiled in; the With() chain must
  // be swallowed without evaluating anything in OFF builds.
  CT_INVARIANT(calls < 0, "D000", "deliberately false").With("calls", calls);
  const std::vector<Violation> got = Taken();
  if (check::kInvariantsEnabled) {
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].code, "D000");
    EXPECT_EQ(got[0].condition, "calls < 0");
    ASSERT_EQ(got[0].state.size(), 1u);
    EXPECT_EQ(got[0].state[0].first, "calls");
    EXPECT_EQ(got[0].state[0].second, "1");
    EXPECT_EQ(check::ViolationCount(), 1);
  } else {
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(check::ViolationCount(), 0);
  }
}

TEST_F(CheckTest, ThrowPolicyRaisesInvariantViolation) {
  if (!check::kInvariantsEnabled) {
    GTEST_SKIP() << "CT_INVARIANT compiled out";
  }
  check::SetViolationPolicy(OnViolation::kThrow);
  try {
    CT_INVARIANT(1 + 1 == 3, "D000", "arithmetic is broken").With("lhs", 2);
    FAIL() << "expected InvariantViolation";
  } catch (const check::InvariantViolation& e) {
    EXPECT_EQ(e.violation().code, "D000");
    EXPECT_NE(std::string(e.what()).find("arithmetic is broken"), std::string::npos);
  }
  // The sink saw it before the throw.
  EXPECT_EQ(Taken().size(), 1u);
}

TEST_F(CheckTest, FormatViolationIsClangStyle) {
  Violation v;
  v.code = "I104";
  v.condition = "member.remaining >= 0";
  v.file = "src/fluidsim/fluid_simulation.cc";
  v.line = 42;
  v.message = "negative residual bytes";
  v.state = {{"group", "7"}, {"remaining", "-1.5"}};
  const std::string text = check::FormatViolation(v);
  EXPECT_NE(text.find("src/fluidsim/fluid_simulation.cc:42: invariant violation:"),
            std::string::npos);
  EXPECT_NE(text.find("negative residual bytes"), std::string::npos);
  EXPECT_NE(text.find("[I104 fluidsim]"), std::string::npos);
  EXPECT_NE(text.find("condition: member.remaining >= 0"), std::string::npos);
  EXPECT_NE(text.find("remaining = -1.5"), std::string::npos);
}

TEST_F(CheckTest, ViolationJsonEscapesAndNests) {
  Violation v;
  v.code = "D000";
  v.condition = "a < \"b\"";
  v.file = "x.cc";
  v.line = 1;
  v.message = "quote \" and backslash \\";
  v.state = {{"key", "value"}};
  const std::string json = check::ViolationToJson(v);
  EXPECT_NE(json.find("\"code\":\"D000\""), std::string::npos);
  EXPECT_NE(json.find("\\\"b\\\""), std::string::npos);
  EXPECT_NE(json.find("backslash \\\\"), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"value\""), std::string::npos);

  const std::string report = check::ViolationsToJson({v, v});
  EXPECT_NE(report.find("\"violations\":2"), std::string::npos);
}

TEST_F(CheckTest, CatalogCoversEveryEmittedCode) {
  const char* used[] = {"D000", "D500", "I101", "I102", "I103", "I104", "I105",
                        "I106", "I201", "I202", "I203", "I204", "I205", "I301",
                        "I302", "I303", "I304", "I305", "I401", "I402", "I403",
                        "L401", "L402"};
  for (const char* code : used) {
    const check::InvariantInfo* info = check::FindInvariant(code);
    ASSERT_NE(info, nullptr) << code;
    EXPECT_STRNE(info->summary, "") << code;
  }
  EXPECT_EQ(check::FindInvariant("X999"), nullptr);
  // Ordered by code, no duplicates (stable registry, like the lint rules).
  const auto& catalog = check::InvariantCatalog();
  for (size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string(catalog[i - 1].code), catalog[i].code);
  }
}

TEST_F(CheckTest, LockRegistryDetectsInversion) {
  LockRegistry& registry = LockRegistry::Instance();
  const LockId a = registry.Register("test.lock_a");
  const LockId b = registry.Register("test.lock_b");

  registry.OnAcquire(a);
  registry.OnAcquire(b);  // Order a -> b recorded.
  registry.OnRelease(b);
  registry.OnRelease(a);

  registry.OnAcquire(b);
  registry.OnAcquire(a);  // b -> a: inversion.
  registry.OnRelease(a);
  registry.OnRelease(b);

  EXPECT_EQ(registry.inversions_detected(), 1);
  const std::vector<Violation> got = Taken();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].code, "L401");

  // The same pair is reported once, however often it recurs.
  registry.OnAcquire(b);
  registry.OnAcquire(a);
  registry.OnRelease(a);
  registry.OnRelease(b);
  EXPECT_EQ(registry.inversions_detected(), 1);
  EXPECT_TRUE(Taken().empty());
}

TEST_F(CheckTest, LockRegistryAcceptsConsistentOrder) {
  LockRegistry& registry = LockRegistry::Instance();
  const LockId outer = registry.Register("test.outer");
  const LockId inner = registry.Register("test.inner");
  for (int i = 0; i < 3; ++i) {
    registry.OnAcquire(outer);
    registry.OnAcquire(inner);
    registry.OnRelease(inner);
    registry.OnRelease(outer);
  }
  EXPECT_EQ(registry.inversions_detected(), 0);
  EXPECT_TRUE(Taken().empty());
}

TEST_F(CheckTest, LockRegistryNestingPastCapacityStaysBalanced) {
  LockRegistry& registry = LockRegistry::Instance();
  std::vector<LockId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(registry.Register("test.deep" + std::to_string(i)));
  }
  for (const LockId id : ids) {
    registry.OnAcquire(id);
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    registry.OnRelease(*it);
  }
  // The unrecorded innermost acquisitions were still ordered after the
  // recorded ones, and the unwinding left nothing held: the reverse pair
  // is exactly one inversion, with no stale held entry adding others.
  registry.OnAcquire(ids.back());
  registry.OnAcquire(ids.front());
  registry.OnRelease(ids.front());
  registry.OnRelease(ids.back());
  EXPECT_EQ(registry.inversions_detected(), 1);
  EXPECT_EQ(Taken().size(), 1u);
}

TEST_F(CheckTest, AccessCellReportsSecondWriter) {
  AccessCell cell("test.cell");
  ASSERT_TRUE(cell.Enter());
  ASSERT_TRUE(cell.Enter());  // Same-thread reentrancy is depth-counted.

  bool other_entered = true;
  std::thread intruder([&] { other_entered = cell.Enter(); });
  intruder.join();
  EXPECT_FALSE(other_entered);

  cell.Exit();
  cell.Exit();
  const std::vector<Violation> got = Taken();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].code, "L402");

  // Once the owner left, another thread may enter cleanly.
  bool entered_after_exit = false;
  std::thread successor([&] {
    entered_after_exit = cell.Enter();
    if (entered_after_exit) {
      cell.Exit();
    }
  });
  successor.join();
  EXPECT_TRUE(entered_after_exit);
  EXPECT_TRUE(Taken().empty());
}

TEST_F(CheckTest, FluidSimCatchesCorruptedResidual) {
  if (!check::kInvariantsEnabled) {
    GTEST_SKIP() << "CT_INVARIANT compiled out";
  }
  SingleSwitchParams params;
  params.num_hosts = 2;
  Topology topo = MakeSingleSwitch(params);
  FluidSimulation sim(&topo);

  GroupSpec spec;
  FluidFlow flow;
  flow.resources = {sim.resources().NicUp(topo.hosts()[0]),
                    sim.resources().NicDown(topo.hosts()[1])};
  flow.size = 100 * kMB;
  spec.flows.push_back(flow);
  const GroupId id = sim.AddGroup(std::move(spec));
  sim.RunUntil(0.01);
  ASSERT_TRUE(sim.GroupActive(id));
  EXPECT_TRUE(Taken().empty());  // Healthy state is quiet.

  FluidSimTestPeer::CorruptResidual(sim, id, -1.0);
  sim.CheckInvariantsNow();
  const std::vector<Violation> got = Taken();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].code, "I104");
}

TEST_F(CheckTest, HdfsCatchesReadOfIncompleteBlock) {
  if (!check::kInvariantsEnabled) {
    GTEST_SKIP() << "CT_INVARIANT compiled out";
  }
  SingleSwitchParams params;
  params.num_hosts = 5;
  Cluster cluster(MakeSingleSwitch(params));
  HdfsOptions options;
  options.block_size = 16 * kMB;
  options.replication = 2;
  MiniHdfs hdfs(&cluster, options);

  ASSERT_TRUE(hdfs.WriteFile(cluster.host(0), "f", 32 * kMB, nullptr));
  // The write pipelines are still streaming: reading now must trip I205.
  ASSERT_TRUE(hdfs.ReadFile(cluster.host(1), "f", nullptr));
  const std::vector<Violation> got = Taken();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].code, "I205");

  // Letting the write finish makes reads legal again. The first read's
  // continuation (block 1, read via callback mid-run) fires more I205s
  // while the write is still streaming; drain those first.
  cluster.RunUntil(60.0);
  for (const Violation& v : Taken()) {
    EXPECT_EQ(v.code, "I205");
  }
  ASSERT_TRUE(hdfs.ReadFile(cluster.host(2), "f", nullptr));
  cluster.RunUntil(120.0);
  EXPECT_TRUE(Taken().empty());
}

TEST_F(CheckTest, MapRedCatchesCorruptedSlotAccounting) {
  if (!check::kInvariantsEnabled) {
    GTEST_SKIP() << "CT_INVARIANT compiled out";
  }
  SingleSwitchParams params;
  params.num_hosts = 4;
  Cluster cluster(MakeSingleSwitch(params));
  HdfsOptions hdfs_options;
  hdfs_options.block_size = 16 * kMB;
  hdfs_options.replication = 2;
  MiniHdfs hdfs(&cluster, hdfs_options);
  hdfs.InstallFile("input", 64 * kMB,
                   {{cluster.host(0), cluster.host(1)},
                    {cluster.host(1), cluster.host(2)},
                    {cluster.host(2), cluster.host(3)},
                    {cluster.host(3), cluster.host(0)}});

  MiniMapReduce mapred(&cluster, &hdfs, MapRedOptions{});
  ASSERT_TRUE(mapred.RunJob("input", 2, nullptr));
  cluster.RunUntil(1.0);
  ASSERT_GT(MapRedTestPeer::num_trackers(mapred), 0);
  MapRedTestPeer::Verify(mapred);
  EXPECT_TRUE(Taken().empty());  // Healthy accounting is quiet.

  MapRedTestPeer::CorruptRunningMaps(mapred, 3);
  MapRedTestPeer::Verify(mapred);
  const std::vector<Violation> got = Taken();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].code, "I304");
}

// The policy is the caller's: building a server (here, the one every
// Cluster owns) leaves it as it was.
TEST_F(CheckTest, BuildingAServerKeepsTheProcessPolicy) {
  check::SetViolationPolicy(OnViolation::kThrow);
  SingleSwitchParams params;
  params.num_hosts = 2;
  Cluster cluster(MakeSingleSwitch(params));
  EXPECT_EQ(check::GetViolationPolicy(), OnViolation::kThrow);
  EXPECT_STREQ(check::OnViolationName(OnViolation::kThrow), "throw");
}

}  // namespace
}  // namespace cloudtalk
