// Cross-module property tests:
//  * the Section 5.1 optimality claims of the heuristic,
//  * parser robustness (never crashes, errors are positioned),
//  * CloudTalk server thread safety under concurrent queries.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/heuristic.h"
#include "src/core/server.h"
#include "src/lang/parser.h"
#include "src/status/transport.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

StatusByAddress RandomUniformState(int servers, Rng& rng) {
  StatusByAddress status;
  for (int i = 1; i <= servers; ++i) {
    StatusReport report;
    report.nic_tx_cap = report.nic_rx_cap = 1e9;
    report.nic_tx_use = rng.Uniform(0, 0.9) * 1e9;
    report.nic_rx_use = rng.Uniform(0, 0.9) * 1e9;
    report.disk_read_cap = report.disk_write_cap = 1e12;
    status["s" + std::to_string(i)] = report;
  }
  return status;
}

// "It can be shown that our algorithm is optimal for single variable
// queries" — already covered in core_test. This covers the other claim:
// "and for daisy-chaining queries where the first endpoint is a fixed
// address."
class DaisyFixedHeadOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(DaisyFixedHeadOptimalityTest, MatchesExhaustive) {
  constexpr int kServers = 12;
  Rng rng(GetParam() * 7919);
  std::ostringstream text;
  text << "x1 = x2 = (";
  for (int i = 1; i <= kServers; ++i) {
    text << "s" << i << " ";
  }
  text << ")\n";
  text << "f1 head -> x1 size 100M\n";
  text << "f2 x1 -> x2 size sz(f1) transfer t(f1)\n";
  auto query = lang::Parse(text.str());
  ASSERT_TRUE(query.ok());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());

  StatusByAddress by_spelling = RandomUniformState(kServers, rng);
  by_spelling["head"] = StatusReport::Idle(kInvalidNode, HostCaps{});
  const lang::HostStatus status(compiled.value().hosts(), by_spelling);

  FlowLevelEstimator estimator(/*min_available_fraction=*/0.0);
  auto best = EvaluateExhaustive(compiled.value(), status, estimator);
  ASSERT_TRUE(best.ok());
  auto heuristic = EvaluateHeuristic(compiled.value(), status, HeuristicParams{});
  ASSERT_TRUE(heuristic.ok());
  const Result<std::vector<int>> slots = SlotsOf(compiled.value(), heuristic.value().binding);
  ASSERT_TRUE(slots.ok());
  auto h_est = estimator.EstimateQuery(compiled.value(), slots.value(), status);
  ASSERT_TRUE(h_est.ok());
  // Within 2% of the optimum on every state (ties in scoring can pick a
  // different but equally good binding).
  EXPECT_LE(h_est.value().makespan, best.value().estimate.makespan * 1.02)
      << "heuristic " << h_est.value().makespan << "s vs optimal "
      << best.value().estimate.makespan << "s";
}

INSTANTIATE_TEST_SUITE_P(RandomStates, DaisyFixedHeadOptimalityTest, ::testing::Range(1, 26));

// ---- Parser robustness: mutated inputs never crash ----

class ParserRobustnessTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustnessTest, MutatedQueriesNeverCrash) {
  const std::string base =
      "option noreserve\n"
      "r1 = r2 = r3 = (dn1 dn2 dn3 10.0.0.4)\n"
      "r1 requires cpu 2 mem 1G\n"
      "f1 client -> r1 size 256M rate r(f2)\n"
      "f2 r1 -> disk size 256M rate r(f1)\n"
      "f3 r1 -> r2 size sz(f1) transfer t(f2)\n";
  Rng rng(GetParam() * 104729);
  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = base;
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations; ++m) {
      const int pos = static_cast<int>(rng.UniformInt(0, static_cast<int>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        case 2:
          mutated.insert(static_cast<size_t>(pos), 1,
                         static_cast<char>(rng.UniformInt(32, 126)));
          break;
        case 3:
          mutated[pos] = '\n';
          break;
      }
      if (mutated.empty()) {
        mutated = " ";
      }
    }
    // Must either parse or return a structured error; never crash or hang.
    auto result = lang::Parse(mutated);
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
    } else {
      // Whatever parsed must print and re-parse (printer totality).
      auto reparsed = lang::Parse(result.value().ToString());
      EXPECT_TRUE(reparsed.ok()) << result.value().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest, ::testing::Range(1, 9));

// ---- Server thread safety ----

class ThreadSafeSource : public UsageSource {
 public:
  explicit ThreadSafeSource(const Topology* topo) : topo_(topo) {}
  StatusReport Snapshot(NodeId host) override {
    return StatusReport::Idle(host, topo_->host_caps(host));
  }

 private:
  const Topology* topo_;
};

TEST(ServerConcurrencyTest, ParallelQueriesAreConsistent) {
  SingleSwitchParams params;
  params.num_hosts = 12;
  const Topology topo = MakeSingleSwitch(params);
  TopologyDirectory directory(&topo);
  ThreadSafeSource source(&topo);
  std::vector<std::unique_ptr<StatusServer>> servers;
  std::unordered_map<NodeId, StatusServer*> server_map;
  for (NodeId h : topo.hosts()) {
    servers.push_back(std::make_unique<StatusServer>(h, &source, 0.0));
    server_map[h] = servers.back().get();
  }
  SimUdpTransport transport(std::move(server_map), SimUdpParams{}, 1);
  ServerConfig config;
  config.reservation_hold = 50 * kMillisecond;
  std::atomic<int64_t> fake_clock_us{0};
  CloudTalkServer server(config, &directory, &transport,
                         [&] { return fake_clock_us.fetch_add(100) * 1e-6; });

  std::string pool;
  for (int i = 1; i < 12; ++i) {
    pool += topo.IpOf(topo.hosts()[i]) + " ";
  }
  const std::string query =
      "A = B = (" + pool + ")\nf1 A -> " + topo.IpOf(topo.hosts()[0]) +
      " size 256M\nf2 B -> " + topo.IpOf(topo.hosts()[0]) + " size 256M\n";

  std::atomic<int> failures{0};
  std::atomic<int> same_binding{0};
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      auto reply = server.Answer(query);
      if (!reply.ok()) {
        failures.fetch_add(1);
        continue;
      }
      if (reply.value().binding.at("A").name == reply.value().binding.at("B").name) {
        same_binding.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Distinct-binding invariant holds under concurrency.
  EXPECT_EQ(same_binding.load(), 0);
}

}  // namespace
}  // namespace cloudtalk
