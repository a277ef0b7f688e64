// ISSUE 9 acceptance: targeted probing driven by the static footprint
// analysis (src/lang/scope) must cut probe traffic on footprint-sparse
// queries without touching the answers.
//
// Workload: a 20-host fleet answering per-tenant placement queries. Each
// tenant's query is footprint-sparse — an active pool of at most 5 hosts
// (its own slice) plus a fleet-wide inert "catalog" pool that inflates the
// mentioned host set the way a templated tenant manifest does. Every query
// is answered on two identically seeded twin clusters carrying the same
// background load: one with `ServerConfig::scope_probe_pruning` on, one
// probing every mentioned host. The bench fails unless
//   (a) every reply pair is identical — ok-ness, binding, per-candidate
//       scores (bit compare), makespan bits, replies received vs sent,
//   (b) full probing sends at least 3x the probes footprint probing sends
//       (summed over the workload; the ISSUE 9 acceptance floor).
//
// The report (bench/experiments.h) goes to stdout and to argv[1] when given
// (CI stores it as BENCH_scope.json). Exit code: 0 = both hold, 1 = a
// bound failed, 2 = setup failure or argv[1] cannot be written.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/common/stats.h"
#include "src/harness/cluster.h"
#include "src/topology/topology.h"

using namespace cloudtalk;

namespace {

constexpr int kHosts = 20;
constexpr int kSliceHosts = 4;  // Active pool per tenant (acceptance: <= 5).

std::unique_ptr<Cluster> MakeCluster(bool pruning, uint64_t seed) {
  SingleSwitchParams params;
  params.num_hosts = kHosts;
  params.host_caps.nic_up = params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = seed;
  options.server.seed = seed;
  options.server.eval_threads = 1;  // Deterministic shard order.
  // Reservation-free twins: a pending pseudo-reservation would make the
  // second cluster's answer depend on answer order, not on probing.
  options.server.reservation_hold = 0;
  options.server.scope_probe_pruning = pruning;
  auto cluster = std::make_unique<Cluster>(MakeSingleSwitch(params), options);
  cluster->StartStatusSweep();
  return cluster;
}

// Tenant `t` owns hosts [1 + t*kSliceHosts, ...): an active pool over its
// slice, a write to its own frontend, and the fleet-wide inert catalog.
std::string TenantQuery(Cluster& cluster, int tenant) {
  const int base = 1 + (tenant * kSliceHosts) % (kHosts - 1 - kSliceHosts);
  std::string query = "A = (";
  for (int i = 0; i < kSliceHosts; ++i) {
    query += (i > 0 ? " " : "") + cluster.ip(base + i);
  }
  query += ")\ncatalog = (";
  for (int i = 0; i < cluster.num_hosts(); ++i) {
    query += (i > 0 ? " " : "") + cluster.ip(i);
  }
  query += ")\nf1 A -> " + cluster.ip(0) + " size " + std::to_string(32 + 16 * (tenant % 4)) +
           "M\n";
  return query;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Everything an identical reply pair must agree on.
bool RepliesIdentical(const QueryReply& a, const QueryReply& b) {
  std::map<std::string, std::string> binding_a;
  for (const auto& [var, endpoint] : a.binding) {
    binding_a[var] = endpoint.name;
  }
  std::map<std::string, std::string> binding_b;
  for (const auto& [var, endpoint] : b.binding) {
    binding_b[var] = endpoint.name;
  }
  if (binding_a != binding_b) {
    return false;
  }
  std::map<std::string, uint64_t> scores_a;
  for (const auto& [var, score] : a.scores) {
    scores_a[var] = Bits(score);
  }
  std::map<std::string, uint64_t> scores_b;
  for (const auto& [var, score] : b.scores) {
    scores_b[var] = Bits(score);
  }
  return scores_a == scores_b && Bits(a.estimate.makespan) == Bits(b.estimate.makespan);
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = bench::QuickMode() ? 8 : 32;
  const int tenants = 4;

  bench::PrintHeader("Footprint-targeted probing on footprint-sparse tenant queries");

  bool identical = true;
  long pruned_probes = 0;
  long full_probes = 0;
  long queries = 0;
  std::vector<double> per_query_ratio;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = 100 + round;
    const std::unique_ptr<Cluster> pruned_ptr = MakeCluster(/*pruning=*/true, seed);
    Cluster& pruned = *pruned_ptr;
    const std::unique_ptr<Cluster> full_ptr = MakeCluster(/*pruning=*/false, seed);
    Cluster& full = *full_ptr;
    // The same deterministic background load on both twins.
    for (int p = 0; p < 3; ++p) {
      const int src = 2 + (round + 5 * p) % (kHosts - 3);
      const int dst = 1 + (src + 7) % (kHosts - 1);
      for (Cluster* c : {&pruned, &full}) {
        c->AddBackgroundPair(c->host(src), c->host(dst), (300 + 150 * p) * kMbps);
      }
    }
    pruned.MeasureNow();
    full.MeasureNow();
    for (int tenant = 0; tenant < tenants; ++tenant) {
      const std::string query = TenantQuery(pruned, round * tenants + tenant);
      const Result<QueryReply> a = pruned.cloudtalk().Answer(query);
      const Result<QueryReply> b = full.cloudtalk().Answer(query);
      if (a.ok() != b.ok()) {
        identical = false;
        continue;
      }
      if (!a.ok()) {
        std::fprintf(stderr, "rejected: %s\n", a.error().ToString().c_str());
        return 2;
      }
      if (!RepliesIdentical(a.value(), b.value())) {
        identical = false;
      }
      pruned_probes += a.value().probe_stats.requests_sent;
      full_probes += b.value().probe_stats.requests_sent;
      per_query_ratio.push_back(
          a.value().probe_stats.requests_sent > 0
              ? static_cast<double>(b.value().probe_stats.requests_sent) /
                    a.value().probe_stats.requests_sent
              : 0.0);
      ++queries;
    }
  }

  const double ratio =
      pruned_probes > 0 ? static_cast<double>(full_probes) / pruned_probes : 0.0;

  bench::JsonReport report("scope_probes");
  report.Case("tenant_placement", std::to_string(queries) + " tenant queries over " +
                                      std::to_string(kHosts) +
                                      " hosts: footprint probing vs probing every host");
  report.Metric("pruned_probes", static_cast<double>(pruned_probes), "count", "lower");
  report.Metric("full_probes", static_cast<double>(full_probes), "count", "lower");
  report.Metric("median_query_ratio", Median(per_query_ratio), "x", "higher");
  report.Floor("identical", identical ? 1 : 0, 1, identical);
  report.Floor("probe_ratio", ratio, 3.0, ratio >= 3.0);
  if (!report.Write(argc > 1 ? argv[1] : nullptr)) {
    return 2;
  }
  return report.pass() ? 0 : 1;
}
