// ctcheck: seeded scenario fuzzer hunting invariant violations, plus the
// differential oracles of the query service's optimisations.
//
// Each seed deterministically generates a randomized cluster scenario —
// fabric shape, host/link/disk speeds, HDFS files and placement policies,
// an optional MapReduce job, background traffic — and executes it on the
// fluid simulation with every CT_INVARIANT armed in log-and-continue mode.
// Scenarios that fire any invariant are serialized to a replayable `.ctsc`
// file and reported (clang-style text or --json), and the process exits
// nonzero. `--replay file.ctsc` re-runs a serialized scenario exactly; the
// fixtures under examples/scenarios/ are such files, registered as ctest
// cases (one clean sweep, one guarding the time-epsilon regression).
//
// `--diff-<mode>` fuzzes one differential oracle instead (kDiffOracles):
// per seed it generates its inputs, runs an optimised path and its plain
// counterpart, and reports any divergence as the oracle's D-code, saving
// the query text as diff<mode>_<seed>.ct. The modes are opt (D500, static
// optimisation passes), sim (D501, incremental delta re-solve), bound
// (D502, bound soundness), canon (D503, canonicalization), scope (D504,
// footprint probing and disjoint admission) and shard (D505, sharding).
//
// Usage:
//   ctcheck [--seeds N] [--seed-base B] [--out DIR] [--json]
//   ctcheck --diff-<mode> [--seeds N] [--seed-base B] [--out DIR] [--json]
//   ctcheck --replay scenario.ctsc [--json]
//   ctcheck --catalog [--json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/check.h"
#include "src/common/rng.h"
#include "src/core/exhaustive.h"
#include "src/core/packet_estimator.h"
#include "src/core/shard.h"
#include "src/lang/bound.h"
#include "src/lang/canon.h"
#include "src/lang/parser.h"
#include "src/fluidsim/fluid_simulation.h"
#include "src/harness/cluster.h"
#include "src/hdfs/mini_hdfs.h"
#include "src/mapred/mini_mapreduce.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

struct Scenario {
  uint64_t seed = 1;
  std::string fabric = "single";  // single | vl2 | ec2
  int hosts = 12;
  double host_link_gbps = 1.0;
  double disk_gbps = 4.0;
  int replication = 3;
  int files = 2;
  double file_mb = 128.0;
  double block_mb = 64.0;
  int cloudtalk_writes = 1;
  int cloudtalk_reads = 1;
  int cloudtalk_map = 0;
  int cloudtalk_reduce = 0;
  int background_pairs = 1;
  double background_gbps = 0.5;
  int disk_loads = 1;
  double disk_load_gbps = 2.0;
  int run_mapreduce = 1;
  int reducers = 2;
  int map_blocks = 4;
  int eval_threads = 1;
  double horizon_s = 300.0;
  double status_period_ms = 100.0;
};

Scenario GenerateScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;
  const int fabric_pick = static_cast<int>(rng.UniformInt(0, 3));
  s.fabric = fabric_pick <= 1 ? "single" : (fabric_pick == 2 ? "vl2" : "ec2");
  s.hosts = static_cast<int>(rng.UniformInt(6, 24));
  const double links[] = {0.5, 1.0, 2.0};
  s.host_link_gbps = links[rng.UniformInt(0, 2)];
  const double disks[] = {2.0, 4.0, 8.0};
  s.disk_gbps = disks[rng.UniformInt(0, 2)];
  // The heuristic's distinct-binding pass wraps around on tiny pools, so
  // keep a couple of spare hosts beyond the replication factor.
  s.replication = static_cast<int>(rng.UniformInt(2, std::min(3, s.hosts - 2)));
  s.files = static_cast<int>(rng.UniformInt(1, 3));
  s.file_mb = rng.Uniform(32.0, 256.0);
  s.block_mb = rng.Uniform(32.0, 128.0);
  s.cloudtalk_writes = rng.Bernoulli(0.5) ? 1 : 0;
  s.cloudtalk_reads = rng.Bernoulli(0.5) ? 1 : 0;
  s.cloudtalk_map = rng.Bernoulli(0.5) ? 1 : 0;
  s.cloudtalk_reduce = rng.Bernoulli(0.5) ? 1 : 0;
  s.background_pairs = static_cast<int>(rng.UniformInt(0, 3));
  s.background_gbps = rng.Uniform(0.2, 1.0);
  s.disk_loads = static_cast<int>(rng.UniformInt(0, 2));
  s.disk_load_gbps = rng.Uniform(0.5, 3.0);
  s.run_mapreduce = rng.Bernoulli(0.7) ? 1 : 0;
  s.reducers = static_cast<int>(rng.UniformInt(1, 4));
  s.map_blocks = static_cast<int>(rng.UniformInt(2, 6));
  s.eval_threads = rng.Bernoulli(0.25) ? 2 : 1;
  s.horizon_s = rng.Uniform(120.0, 600.0);
  s.status_period_ms = rng.Uniform(50.0, 200.0);
  return s;
}

// `key value` lines; order-independent; '#' starts a comment.
void SerializeScenario(const Scenario& s, std::ostream& os) {
  os << "# ctcheck scenario (replay with: ctcheck --replay <this file>)\n";
  os << "seed " << s.seed << "\n";
  os << "fabric " << s.fabric << "\n";
  os << "hosts " << s.hosts << "\n";
  os << "host_link_gbps " << s.host_link_gbps << "\n";
  os << "disk_gbps " << s.disk_gbps << "\n";
  os << "replication " << s.replication << "\n";
  os << "files " << s.files << "\n";
  os << "file_mb " << s.file_mb << "\n";
  os << "block_mb " << s.block_mb << "\n";
  os << "cloudtalk_writes " << s.cloudtalk_writes << "\n";
  os << "cloudtalk_reads " << s.cloudtalk_reads << "\n";
  os << "cloudtalk_map " << s.cloudtalk_map << "\n";
  os << "cloudtalk_reduce " << s.cloudtalk_reduce << "\n";
  os << "background_pairs " << s.background_pairs << "\n";
  os << "background_gbps " << s.background_gbps << "\n";
  os << "disk_loads " << s.disk_loads << "\n";
  os << "disk_load_gbps " << s.disk_load_gbps << "\n";
  os << "run_mapreduce " << s.run_mapreduce << "\n";
  os << "reducers " << s.reducers << "\n";
  os << "map_blocks " << s.map_blocks << "\n";
  os << "eval_threads " << s.eval_threads << "\n";
  os << "horizon_s " << s.horizon_s << "\n";
  os << "status_period_ms " << s.status_period_ms << "\n";
}

bool ParseScenario(std::istream& is, Scenario* s, std::string* error) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) {
      continue;  // Blank / comment-only line.
    }
    bool ok = true;
    if (key == "seed") {
      ok = static_cast<bool>(fields >> s->seed);
    } else if (key == "fabric") {
      ok = static_cast<bool>(fields >> s->fabric) &&
           (s->fabric == "single" || s->fabric == "vl2" || s->fabric == "ec2");
    } else if (key == "hosts") {
      ok = static_cast<bool>(fields >> s->hosts) && s->hosts >= 2;
    } else if (key == "host_link_gbps") {
      ok = static_cast<bool>(fields >> s->host_link_gbps) && s->host_link_gbps > 0;
    } else if (key == "disk_gbps") {
      ok = static_cast<bool>(fields >> s->disk_gbps) && s->disk_gbps > 0;
    } else if (key == "replication") {
      ok = static_cast<bool>(fields >> s->replication) && s->replication >= 1;
    } else if (key == "files") {
      ok = static_cast<bool>(fields >> s->files) && s->files >= 0;
    } else if (key == "file_mb") {
      ok = static_cast<bool>(fields >> s->file_mb) && s->file_mb > 0;
    } else if (key == "block_mb") {
      ok = static_cast<bool>(fields >> s->block_mb) && s->block_mb > 0;
    } else if (key == "cloudtalk_writes") {
      ok = static_cast<bool>(fields >> s->cloudtalk_writes);
    } else if (key == "cloudtalk_reads") {
      ok = static_cast<bool>(fields >> s->cloudtalk_reads);
    } else if (key == "cloudtalk_map") {
      ok = static_cast<bool>(fields >> s->cloudtalk_map);
    } else if (key == "cloudtalk_reduce") {
      ok = static_cast<bool>(fields >> s->cloudtalk_reduce);
    } else if (key == "background_pairs") {
      ok = static_cast<bool>(fields >> s->background_pairs) && s->background_pairs >= 0;
    } else if (key == "background_gbps") {
      ok = static_cast<bool>(fields >> s->background_gbps);
    } else if (key == "disk_loads") {
      ok = static_cast<bool>(fields >> s->disk_loads) && s->disk_loads >= 0;
    } else if (key == "disk_load_gbps") {
      ok = static_cast<bool>(fields >> s->disk_load_gbps);
    } else if (key == "run_mapreduce") {
      ok = static_cast<bool>(fields >> s->run_mapreduce);
    } else if (key == "reducers") {
      ok = static_cast<bool>(fields >> s->reducers) && s->reducers >= 1;
    } else if (key == "map_blocks") {
      ok = static_cast<bool>(fields >> s->map_blocks) && s->map_blocks >= 1;
    } else if (key == "eval_threads") {
      ok = static_cast<bool>(fields >> s->eval_threads) && s->eval_threads >= 1;
    } else if (key == "horizon_s") {
      ok = static_cast<bool>(fields >> s->horizon_s) && s->horizon_s > 0;
    } else if (key == "status_period_ms") {
      ok = static_cast<bool>(fields >> s->status_period_ms) && s->status_period_ms > 0;
    } else {
      ok = false;
    }
    if (!ok) {
      *error = "line " + std::to_string(lineno) + ": bad scenario field: " + line;
      return false;
    }
  }
  if (s->replication > s->hosts) {
    *error = "replication exceeds host count";
    return false;
  }
  return true;
}

Topology BuildTopology(const Scenario& s) {
  if (s.fabric == "vl2") {
    Vl2Params params;
    params.hosts_per_rack = 4;
    params.num_racks = (s.hosts + params.hosts_per_rack - 1) / params.hosts_per_rack;
    params.max_hosts = s.hosts;
    params.host_link = s.host_link_gbps * kGbps;
    params.host_caps.nic_up = s.host_link_gbps * kGbps;
    params.host_caps.nic_down = s.host_link_gbps * kGbps;
    params.host_caps.disk_read = s.disk_gbps * kGbps;
    params.host_caps.disk_write = s.disk_gbps * kGbps;
    return MakeVl2(params);
  }
  if (s.fabric == "ec2") {
    Ec2Params params;
    params.num_instances = s.hosts;
    params.instance_rate = s.host_link_gbps * kGbps;
    params.disk_read = s.disk_gbps * kGbps;
    params.disk_write = s.disk_gbps * kGbps;
    return MakeEc2(params);
  }
  SingleSwitchParams params;
  params.num_hosts = s.hosts;
  params.link_capacity = s.host_link_gbps * kGbps;
  params.host_caps.nic_up = s.host_link_gbps * kGbps;
  params.host_caps.nic_down = s.host_link_gbps * kGbps;
  params.host_caps.disk_read = s.disk_gbps * kGbps;
  params.host_caps.disk_write = s.disk_gbps * kGbps;
  return MakeSingleSwitch(params);
}

struct RunResult {
  std::vector<check::Violation> violations;
  Seconds end_time = 0;
  int64_t blocks_written = 0;
  int64_t blocks_read = 0;
};

RunResult RunScenario(const Scenario& s) {
  check::RecordingSink sink;
  check::SetCheckSink(&sink);
  check::SetViolationPolicy(check::OnViolation::kLogAndContinue);

  RunResult result;
  {
    ClusterOptions options;
    options.status_period = s.status_period_ms * kMillisecond;
    options.seed = s.seed;
    options.server.seed = s.seed;
    options.server.eval_threads = s.eval_threads;
    Cluster cluster(BuildTopology(s), options);
    cluster.StartStatusSweep();

    Rng rng(s.seed ^ 0x9e3779b97f4a7c15ull);  // Workload stream, decoupled from generation.
    const int n = cluster.num_hosts();
    for (int i = 0; i < s.background_pairs; ++i) {
      const NodeId src = cluster.host(static_cast<int>(rng.UniformInt(0, n - 1)));
      NodeId dst = src;
      while (dst == src) {
        dst = cluster.host(static_cast<int>(rng.UniformInt(0, n - 1)));
      }
      cluster.AddBackgroundPair(src, dst, s.background_gbps * kGbps);
    }
    for (int i = 0; i < s.disk_loads; ++i) {
      const NodeId host = cluster.host(static_cast<int>(rng.UniformInt(0, n - 1)));
      cluster.AddDiskLoad(host, s.disk_load_gbps * kGbps, s.disk_load_gbps * kGbps);
    }

    HdfsOptions hdfs_options;
    hdfs_options.block_size = s.block_mb * kMB;
    hdfs_options.replication = std::min(s.replication, n);
    hdfs_options.cloudtalk_writes = s.cloudtalk_writes != 0;
    hdfs_options.cloudtalk_reads = s.cloudtalk_reads != 0;
    MiniHdfs hdfs(&cluster, hdfs_options);

    // Read-after-write chains: each file is written from a random client
    // and, once durable, read back to a different random host.
    for (int f = 0; f < s.files; ++f) {
      const std::string name = "file" + std::to_string(f);
      const NodeId writer = cluster.host(static_cast<int>(rng.UniformInt(0, n - 1)));
      const NodeId reader = cluster.host(static_cast<int>(rng.UniformInt(0, n - 1)));
      const Bytes bytes = s.file_mb * kMB;
      const Seconds start = rng.Uniform(0.0, 5.0);
      FluidSimulation& sim = cluster.sim();
      MiniHdfs* fs = &hdfs;
      sim.Schedule(start, [fs, writer, reader, name, bytes] {
        fs->WriteFile(writer, name, bytes,
                      [fs, reader, name](Seconds, Seconds) { fs->ReadFile(reader, name, nullptr); });
      });
    }

    MapRedOptions mr_options;
    mr_options.cloudtalk_map = s.cloudtalk_map != 0;
    mr_options.cloudtalk_reduce = s.cloudtalk_reduce != 0;
    MiniMapReduce mapred(&cluster, &hdfs, mr_options);
    if (s.run_mapreduce != 0) {
      const int rep = std::min(s.replication, n);
      std::vector<std::vector<NodeId>> replicas;
      Rng placement_rng(s.seed + 17);
      for (int b = 0; b < s.map_blocks; ++b) {
        std::vector<NodeId> block;
        for (int idx : placement_rng.SampleWithoutReplacement(n, rep)) {
          block.push_back(cluster.host(idx));
        }
        replicas.push_back(std::move(block));
      }
      hdfs.InstallFile("mr_input", s.map_blocks * s.block_mb * kMB, std::move(replicas));
      MiniMapReduce* mr = &mapred;
      cluster.sim().Schedule(1.0, [mr, &s] { mr->RunJob("mr_input", s.reducers, nullptr); });
    }

    // The status sweep reschedules itself forever, so drive a bounded
    // horizon in steps (each step recomputes and verifies allocations).
    const int steps = 25;
    for (int i = 1; i <= steps; ++i) {
      cluster.RunUntil(s.horizon_s * i / steps);
    }
    cluster.sim().CheckInvariantsNow();
    result.end_time = cluster.now();
    result.blocks_written = hdfs.blocks_written();
    result.blocks_read = hdfs.blocks_read();
  }

  check::SetCheckSink(nullptr);
  result.violations = sink.TakeAll();
  return result;
}

// ---- --diff-opt: differential fuzz of the static optimisation passes ----
//
// Generates a random-but-valid query: up to two declarations (one possibly
// shared by several variables, the recipe for O200 symmetry), optional
// scalar requirements, and flows mixing literal and variable endpoints with
// occasional zero sizes (O400), start offsets, rate chains (shared chain
// groups), and literal-only background flows (binding-independent groups).
std::string GenerateDiffOptQuery(uint64_t seed) {
  Rng rng(seed ^ 0xc2b2ae3d27d4eb4full);
  std::ostringstream q;
  const int num_hosts = static_cast<int>(rng.UniformInt(4, 8));
  std::vector<std::string> hosts;
  for (int i = 0; i < num_hosts; ++i) {
    hosts.push_back("10.1.0." + std::to_string(i + 1));
  }
  if (rng.Bernoulli(0.25)) {
    q << "option allow_same\n";
  }
  if (rng.Bernoulli(0.25)) {
    q << "option threads 2\n";
  }
  const auto pool = [&](int min_size) {
    const int k = static_cast<int>(rng.UniformInt(min_size, num_hosts));
    std::string out = "(";
    bool first = true;
    for (const int idx : rng.SampleWithoutReplacement(num_hosts, k)) {
      out += (first ? "" : " ") + hosts[idx];
      first = false;
    }
    return out + ")";
  };
  std::vector<std::string> vars;
  const int shared = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < shared; ++i) {
    vars.push_back(std::string(1, static_cast<char>('A' + i)));
    q << vars.back() << " = ";
  }
  q << pool(2) << "\n";
  if (rng.Bernoulli(0.5)) {
    vars.push_back("D");
    q << "D = " << pool(2) << "\n";
  }
  for (const std::string& var : vars) {
    if (rng.Bernoulli(0.25)) {
      q << var << " requires cpu " << rng.UniformInt(1, 8);
      if (rng.Bernoulli(0.5)) {
        q << " mem " << rng.UniformInt(1, 16) << "G";
      }
      q << "\n";
    }
  }
  int flow_id = 0;
  std::vector<std::string> flow_names;
  const auto attrs = [&]() {
    std::string out;
    if (rng.Bernoulli(0.15)) {
      out += " size 0";
    } else {
      out += " size " + std::to_string(rng.UniformInt(1, 64)) + "M";
    }
    if (rng.Bernoulli(0.2)) {
      out += " start " + std::to_string(rng.UniformInt(1, 3));
    }
    if (!flow_names.empty() && rng.Bernoulli(0.3)) {
      out += " rate r(" +
             flow_names[static_cast<size_t>(
                 rng.UniformInt(0, static_cast<int64_t>(flow_names.size()) - 1))] +
             ")";
    } else if (rng.Bernoulli(0.25)) {
      out += " rate " + std::to_string(rng.UniformInt(1, 8) * 100) + "M";
    }
    return out;
  };
  for (const std::string& var : vars) {
    const int flows = static_cast<int>(rng.UniformInt(1, 2));
    for (int i = 0; i < flows; ++i) {
      const std::string name = "f" + std::to_string(flow_id++);
      const std::string peer = hosts[rng.UniformInt(0, num_hosts - 1)];
      q << name << " ";
      const int form = vars.size() > 1 ? static_cast<int>(rng.UniformInt(0, 2)) :
                                         static_cast<int>(rng.UniformInt(0, 1));
      if (form == 0) {
        q << peer << " -> " << var;
      } else if (form == 1) {
        q << var << " -> " << peer;
      } else {
        std::string other = var;
        while (other == var) {
          other = vars[rng.UniformInt(0, static_cast<int64_t>(vars.size()) - 1)];
        }
        q << var << " -> " << other;
      }
      q << attrs() << "\n";
      flow_names.push_back(name);
    }
  }
  if (rng.Bernoulli(0.3)) {
    q << "bg 10.1.9.1 -> 10.1.9.2 size " << rng.UniformInt(1, 32) << "M\n";
  }
  return q.str();
}

// Random per-address load, with scalar resources present half the time so
// requirement pruning (O100) actually bites.
StatusByAddress GenerateDiffOptStatus(const lang::CompiledQuery& compiled, uint64_t seed) {
  Rng rng(seed ^ 0x94d049bb133111ebull);
  StatusByAddress status;
  NodeId next = 1;
  const auto add = [&](const lang::Endpoint& e) {
    if (e.kind != lang::Endpoint::Kind::kAddress || status.count(e.name) > 0) {
      return;
    }
    StatusReport r;
    r.host = next++;
    r.nic_tx_cap = r.nic_rx_cap = 1e9;
    r.nic_tx_use = rng.Uniform(0, 9e8);
    r.nic_rx_use = rng.Uniform(0, 9e8);
    r.disk_read_cap = r.disk_write_cap = 4e9;
    r.disk_read_use = rng.Uniform(0, 2e9);
    r.disk_write_use = rng.Uniform(0, 2e9);
    if (rng.Bernoulli(0.5)) {
      r.cpu_cores_total = 8;
      r.cpu_cores_used = rng.Uniform(0, 8);
      r.mem_total = static_cast<Bytes>(16.0 * kGB);
      r.mem_used = static_cast<Bytes>(rng.Uniform(0, 16.0 * kGB));
    }
    status[e.name] = r;
  };
  for (const lang::VarComm& var : compiled.variables()) {
    for (const lang::Endpoint& e : var.pool) {
      add(e);
    }
  }
  for (const lang::CompiledFlow& flow : compiled.flows()) {
    add(flow.src);
    add(flow.dst);
  }
  return status;
}

std::string RenderBinding(const Binding& binding) {
  std::vector<std::string> parts;
  parts.reserve(binding.size());
  for (const auto& [var, endpoint] : binding) {
    parts.push_back(var + "=" + endpoint.ToString());
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& part : parts) {
    out += (out.empty() ? "" : " ") + part;
  }
  return out;
}

// Per-seed check of an oracle that runs on GenerateDiffOptQuery's query: it
// gets the query text, its parse and compilation, and the seed's random
// status snapshot, and returns the divergence detail, or "" on agreement.
using GeneratedQueryCheck = std::string (*)(uint64_t seed, const std::string& query_text,
                                            const lang::Query& query,
                                            const lang::CompiledQuery& compiled,
                                            const StatusByAddress& status);

// The seed function of an oracle over the generated query: generates,
// parses and compiles it, then runs `check`. A generated query that does
// not parse or compile is a generator bug, reported as a divergence.
template <GeneratedQueryCheck check>
std::string RunGeneratedQuerySeed(uint64_t seed, std::string* query_text) {
  *query_text = GenerateDiffOptQuery(seed);
  lang::DiagnosticSink sink;
  const lang::Query query = lang::ParseWithDiagnostics(*query_text, &sink);
  if (sink.has_errors()) {
    return "generated query does not parse (generator bug): " +
           sink.diagnostics().front().message;
  }
  Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query);
  if (!compiled.ok()) {
    return "generated query does not compile (generator bug): " + compiled.error().message;
  }
  return check(seed, *query_text, query, compiled.value(),
               GenerateDiffOptStatus(compiled.value(), seed));
}

// The identity contract of two exhaustive searches: both find no binding,
// or both find the same winner with bit-identical estimates. `finder` names
// what the sides are ("search", "estimator", "form"). Returns the
// divergence, or "" on agreement.
std::string CompareWinners(const char* finder, const char* name_a,
                           const Result<ExhaustiveResult>& a, const char* name_b,
                           const Result<ExhaustiveResult>& b) {
  if (!a.ok() && !b.ok()) {
    return "";  // Both sides agree there is no answer.
  }
  if (a.ok() != b.ok()) {
    return std::string("only the ") + (a.ok() ? name_a : name_b) + " " + finder +
           " found a binding (" + (a.ok() ? b.error().message : a.error().message) + ")";
  }
  const std::string binding_a = RenderBinding(a.value().binding);
  const std::string binding_b = RenderBinding(b.value().binding);
  if (binding_a != binding_b) {
    return std::string("different winners: ") + name_a + " [" + binding_a + "] vs " + name_b +
           " [" + binding_b + "]";
  }
  const Estimate& ea = a.value().estimate;
  const Estimate& eb = b.value().estimate;
  if (std::memcmp(&ea.makespan, &eb.makespan, sizeof(double)) != 0 ||
      std::memcmp(&ea.aggregate_throughput, &eb.aggregate_throughput, sizeof(double)) != 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "same winner but estimates differ: makespan %.17g vs %.17g", ea.makespan,
                  eb.makespan);
    return buf;
  }
  return "";
}

// Runs `check(status)` over the seed's snapshot twice: with each slot of
// `hosts` its own host, then with two slots the seed picks declared one
// host, which reads the first slot's report, as an alias reads its address's
// in the server. The second run is skipped for a query naming fewer than
// two addresses. Returns the first divergence, "" when both agree.
template <typename Check>
std::string WithMergedTwin(uint64_t seed, const lang::QueryHosts& hosts,
                           const StatusByAddress& status, const Check& check) {
  std::string detail = check(lang::HostStatus(hosts, status));
  const int n = static_cast<int>(hosts.names.size());
  if (!detail.empty() || n < 2) {
    return detail;
  }
  Rng rng(seed ^ 0xd6e8feb86659fd93ull);
  const std::vector<int> pick = rng.SampleWithoutReplacement(n, 2);
  const int first = std::min(pick[0], pick[1]);
  const int second = std::max(pick[0], pick[1]);
  std::vector<int> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  identity[second] = first;
  detail = check(lang::HostStatus(hosts, status, identity));
  return detail.empty() ? "" : "with " + *hosts.names[second] + " one host with " +
                                   *hosts.names[first] + ": " + detail;
}

// --diff-opt (D500): the exhaustive search with the static optimisation
// passes off and on, each slot its own host and on the seed's merged twin.
std::string CheckDiffOpt(uint64_t seed, const std::string& /*query_text*/,
                         const lang::Query& query, const lang::CompiledQuery& compiled,
                         const StatusByAddress& status) {
  return WithMergedTwin(seed, compiled.hosts(), status, [&](const lang::HostStatus& st) {
    ExhaustiveParams params;
    params.threads = query.options.eval_threads > 0 ? query.options.eval_threads : 1;
    params.optimize = false;
    FlowLevelEstimator est_off;
    const Result<ExhaustiveResult> off = EvaluateExhaustive(compiled, st, est_off, params);
    params.optimize = true;
    FlowLevelEstimator est_on;
    const Result<ExhaustiveResult> on = EvaluateExhaustive(compiled, st, est_on, params);
    return CompareWinners("search", "unoptimised", off, "optimized", on);
  });
}

// ---- --diff-sim: differential fuzz of the incremental delta re-solve ----
//
// Same generated workloads as --diff-opt, but the two sides differ in the
// *estimator*, not the search: one FlowLevelEstimator serves every binding
// via checkpoint restore + delta patches, the other re-installs the groups
// cold per binding. Memoisation is disabled so every enumerated binding
// actually reaches the estimator, and the unoptimised walk is used on both
// sides so the enumeration order (and hence the delta chains the odometer
// produces) is identical. Any divergence is a D501 violation. Like
// --diff-opt, each seed also runs on its merged twin.
std::string CheckDiffSim(uint64_t seed, const std::string& /*query_text*/,
                         const lang::Query& query, const lang::CompiledQuery& compiled,
                         const StatusByAddress& status) {
  return WithMergedTwin(seed, compiled.hosts(), status, [&](const lang::HostStatus& st) {
    ExhaustiveParams params;
    params.threads = query.options.eval_threads > 0 ? query.options.eval_threads : 1;
    params.optimize = false;
    params.memoize = false;
    FlowLevelEstimator est_cold(/*min_available_fraction=*/0.1, /*reuse_scratch=*/true,
                                /*delta_rebind=*/false);
    const Result<ExhaustiveResult> cold = EvaluateExhaustive(compiled, st, est_cold, params);
    FlowLevelEstimator est_delta(/*min_available_fraction=*/0.1, /*reuse_scratch=*/true,
                                 /*delta_rebind=*/true);
    const Result<ExhaustiveResult> delta = EvaluateExhaustive(compiled, st, est_delta, params);
    return CompareWinners("estimator", "cold", cold, "delta", delta);
  });
}

// ---- --diff-bound: differential fuzz of the sound bound analysis ----
//
// Same generated workloads as --diff-opt, but the oracle is *soundness*
// rather than identity: every legal binding's simulated makespan must lie
// inside the [LB, UB] interval lang::BoundAnalysis computes for that
// binding's full pin set — and inside the query-level interval with nothing
// pinned (the two nest by monotonicity). Estimator errors (no legal rate
// allocation) are skipped: bounds only promise to bracket successful
// estimates. Any escape is a D502 violation and the query is saved. Like
// --diff-opt, each seed also runs on its merged twin.

// D502 over the host numbering of `status`: walks every legal binding,
// distinct by host unless the query says `option allow_same`.
std::string CheckBoundsBracketEstimates(const lang::Query& query, const lang::CompiledQuery& cq,
                                        const lang::HostStatus& status) {
  const lang::QueryHosts& hosts = cq.hosts();
  const lang::BoundAnalysis bounds = lang::BoundAnalysis::Build(cq, status);
  const auto& variables = cq.variables();
  const size_t n = variables.size();

  std::vector<std::vector<int>> candidates(n);
  for (size_t i = 0; i < n; ++i) {
    candidates[i] = hosts.CandidateSlots(static_cast<int>(i));
    if (candidates[i].empty()) {
      return "";  // Unanswerable variable; nothing to bound.
    }
  }

  const bool distinct = !query.options.allow_same_binding;
  FlowLevelEstimator estimator;  // Default fraction 0.1 = BoundOptions default.
  estimator.BeginQuery(cq, status);
  // Per variable: its candidate's slot, what the estimator reads, and that
  // slot's host, what the bounds pin.
  std::vector<int> var_slot(n, -1);
  std::vector<int32_t> var_host(n, -1);
  std::string violation;

  const std::function<void(size_t)> walk = [&](size_t d) {
    if (!violation.empty()) {
      return;
    }
    if (d == n) {
      const Result<Estimate> est = estimator.EstimateQuery(cq, var_slot, status);
      if (!est.ok()) {
        return;
      }
      const double makespan = est.value().makespan;
      const lang::BoundInterval interval = bounds.BindingBounds(var_host);
      const bool in_pinned = interval.Contains(makespan);
      const bool in_query = bounds.query_bounds().Contains(makespan);
      if (!in_pinned || !in_query) {
        Binding binding;  // Spelled out only for the report.
        for (size_t i = 0; i < n; ++i) {
          binding[variables[i].name] = lang::Endpoint::Address(*hosts.names[var_slot[i]]);
        }
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "binding [%s]: makespan %.17g escapes the %s interval "
                      "[%.17g, %.17g]",
                      RenderBinding(binding).c_str(), makespan,
                      in_pinned ? "query-level" : "fully-pinned",
                      in_pinned ? bounds.query_bounds().lb : interval.lb,
                      in_pinned ? bounds.query_bounds().ub : interval.ub);
        violation = buf;
      }
      return;
    }
    for (const int slot : candidates[d]) {
      const int32_t host = lang::HostOf(status.identity(), slot);
      if (distinct && std::find(var_host.begin(), var_host.begin() + d, host) !=
                          var_host.begin() + d) {
        continue;
      }
      var_slot[d] = slot;
      var_host[d] = host;
      walk(d + 1);
      var_host[d] = -1;
    }
  };
  walk(0);
  estimator.EndQuery();
  return violation;
}

// --diff-bound (D502), each slot its own host and on the seed's merged twin.
std::string CheckDiffBound(uint64_t seed, const std::string& /*query_text*/,
                           const lang::Query& query, const lang::CompiledQuery& cq,
                           const StatusByAddress& status) {
  return WithMergedTwin(seed, cq.hosts(), status, [&](const lang::HostStatus& st) {
    return CheckBoundsBracketEstimates(query, cq, st);
  });
}

// ---- --diff-canon: differential fuzz of semantic canonicalization ----
//
// Same generated workloads as --diff-opt, three oracles per seed (D503):
//  1. canon(canon(q)) == canon(q) (idempotence, byte-for-byte);
//  2. an equivalence-preserving mutation of q (alpha-renaming, flow
//     reordering, literal unfolding, duplicated pool entries, dead clauses)
//     canonicalizes to the same bytes;
//  3. the canonical form, evaluated exhaustively against the same status
//     snapshot, returns the original's winning binding (names mapped back
//     through the certificate) with a bit-identical estimate.

// Renames every variable and explicitly named flow by appending a suffix,
// updating declarations, requirements, variable endpoints, and flow
// references. A pure alpha-conversion: the query's meaning is unchanged.
void AlphaRenameQuery(lang::Query* query) {
  std::unordered_map<std::string, std::string> flow_rename;
  for (lang::FlowDef& flow : query->flows) {
    if (flow.explicit_name) {
      flow_rename[flow.name] = flow.name + "x";
    }
  }
  const auto rename_expr = [&flow_rename](lang::Expr* root) {
    std::vector<lang::Expr*> stack = {root};
    while (!stack.empty()) {
      lang::Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == lang::Expr::Kind::kRef) {
        const auto it = flow_rename.find(e->ref_flow);
        if (it != flow_rename.end()) {
          e->ref_flow = it->second;
        }
      } else if (e->kind == lang::Expr::Kind::kBinary) {
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
      }
    }
  };
  for (lang::VarDecl& decl : query->variables) {
    for (std::string& name : decl.names) {
      name += "x";
    }
  }
  for (lang::Requirement& requirement : query->requirements) {
    requirement.var += "x";
  }
  for (lang::FlowDef& flow : query->flows) {
    const auto it = flow_rename.find(flow.name);
    if (it != flow_rename.end()) {
      flow.name = it->second;
    }
    for (lang::Endpoint* e : {&flow.src, &flow.dst}) {
      if (e->kind == lang::Endpoint::Kind::kVariable) {
        e->name += "x";
      }
    }
    for (lang::AttrValue& attr : flow.attrs) {
      rename_expr(attr.value.get());
    }
  }
}

// Applies one random equivalence-preserving mutation in place.
void MutateEquivalent(lang::Query* query, Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      AlphaRenameQuery(query);
      break;
    case 1:
      std::reverse(query->flows.begin(), query->flows.end());
      break;
    case 2:
      // Unfold one literal: `v` -> `v*1`, which folds back bit-identically.
      for (lang::FlowDef& flow : query->flows) {
        for (lang::AttrValue& attr : flow.attrs) {
          if (attr.value->kind == lang::Expr::Kind::kLiteral) {
            attr.value = lang::Expr::Binary('*', std::move(attr.value),
                                            lang::Expr::Literal(1));
            return;
          }
        }
      }
      break;
    case 3:
      // Duplicate pool entries are deduplicated keep-first.
      if (!query->variables.empty() && !query->variables.front().values.empty()) {
        lang::VarDecl& decl = query->variables.front();
        decl.values.push_back(decl.values.front());
        decl.value_spans.clear();
      }
      break;
    case 4:
      // A dead clause: `start 0` is the attribute's default.
      for (lang::FlowDef& flow : query->flows) {
        if (flow.FindAttr(lang::Attr::kStart) == nullptr) {
          flow.attrs.push_back({lang::Attr::kStart, lang::Expr::Literal(0), lang::Span{}});
          return;
        }
      }
      break;
  }
}

std::string CheckDiffCanon(uint64_t seed, const std::string& query_text,
                           const lang::Query& query, const lang::CompiledQuery& compiled,
                           const StatusByAddress& status) {
  const Result<lang::CanonicalQuery> canon = lang::Canonicalize(query);
  if (!canon.ok()) {
    return "error-free query failed to canonicalize: " + canon.error().message;
  }

  // Oracle 1: idempotence.
  const Result<lang::CanonicalQuery> twice = lang::Canonicalize(canon.value().query);
  if (!twice.ok()) {
    return "canonical form failed to re-canonicalize: " + twice.error().message;
  }
  if (twice.value().text != canon.value().text) {
    return "canon is not idempotent: [" + canon.value().text + "] re-canonicalizes to [" +
           twice.value().text + "]";
  }

  // Oracle 2: equivalence-preserving mutations keep the canonical bytes.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  lang::DiagnosticSink mutant_sink;
  lang::Query mutant = lang::ParseWithDiagnostics(query_text, &mutant_sink);
  const int mutations = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < mutations; ++i) {
    MutateEquivalent(&mutant, rng);
  }
  const Result<lang::CanonicalQuery> mutated = lang::Canonicalize(mutant);
  if (!mutated.ok()) {
    return "mutated-equivalent query failed to canonicalize: " + mutated.error().message;
  }
  if (mutated.value().text != canon.value().text) {
    return "equivalent mutation changed the canonical form: [" + canon.value().text +
           "] vs [" + mutated.value().text + "]";
  }

  // Oracle 3: the canonical form is answered exactly like the original.
  Result<lang::CompiledQuery> canon_compiled =
      lang::CompiledQuery::Compile(canon.value().query);
  if (!canon_compiled.ok()) {
    return "canonical form does not compile: " + canon_compiled.error().message;
  }
  ExhaustiveParams params;
  params.threads = 1;
  params.optimize = false;
  FlowLevelEstimator est_original;
  const Result<ExhaustiveResult> original = EvaluateExhaustive(
      compiled, lang::HostStatus(compiled.hosts(), status), est_original, params);
  FlowLevelEstimator est_canonical;
  const lang::QueryHosts& canon_hosts = canon_compiled.value().hosts();
  Result<ExhaustiveResult> canonical = EvaluateExhaustive(
      canon_compiled.value(), lang::HostStatus(canon_hosts, status), est_canonical, params);
  if (canonical.ok()) {
    Binding mapped;
    for (const auto& [var, endpoint] : canonical.value().binding) {
      const std::string* name = canon.value().OriginalVariable(var);
      mapped[name != nullptr ? *name : var] = endpoint;
    }
    canonical.value().binding = std::move(mapped);
  }
  return CompareWinners("form", "original", original, "canonical", canonical);
}

// ---- --diff-scope: differential fuzz of the footprint analysis ----
//
// Two oracles per seed (D504):
//  1. footprint identity: a generated query (active variables plus an inert
//     slice-wide "catalog" pool whose hosts the scope analysis excludes) is
//     answered on two identically seeded simulated clusters, one probing
//     only the static footprint and one probing everything; the replies
//     must be identical and footprint probing must never send more probes.
//  2. disjoint commutation: two queries drawing from disjoint host slices
//     are answered in both orders on twin cluster pairs with reservations
//     armed; neither query's reply may depend on the admission order — the
//     property the server's concurrent admission gate rests on.

constexpr int kDiffScopeHosts = 16;

// Single-switch hosts are 10.0.0.1 .. 10.0.0.N (rack 0), index 0-based.
std::string DiffScopeHost(int index) { return "10.0.0." + std::to_string(index + 1); }

// Generates a query whose pool and literal addresses stay inside the host
// slice [lo, hi]: one or two active variables with flows, an inert
// slice-wide pool, and occasional requirements / static / noreserve.
std::string GenerateDiffScopeQuery(uint64_t seed, int lo, int hi) {
  Rng rng(seed ^ 0xa0761d6478bd642full);
  std::ostringstream q;
  if (rng.Bernoulli(0.2)) {
    q << "option noreserve\n";
  }
  if (rng.Bernoulli(0.2)) {
    q << "option static\n";
  }
  const int span = hi - lo + 1;
  const auto slice_pool = [&](int min_size) {
    const int k = static_cast<int>(rng.UniformInt(std::min(min_size, span), span));
    std::string out = "(";
    bool first = true;
    for (const int idx : rng.SampleWithoutReplacement(span, k)) {
      out += (first ? "" : " ") + DiffScopeHost(lo + idx);
      first = false;
    }
    return out + ")";
  };
  const int actives = static_cast<int>(rng.UniformInt(1, 2));
  std::vector<std::string> vars;
  for (int i = 0; i < actives; ++i) {
    vars.push_back(std::string(1, static_cast<char>('A' + i)));
    q << vars.back() << " = " << slice_pool(2) << "\n";
  }
  // The inert variable: declared, never used by a flow or requirement — its
  // hosts are exactly the probes the identity oracle must prove harmless.
  q << "catalog = " << slice_pool(2) << "\n";
  if (rng.Bernoulli(0.3)) {
    q << vars.front() << " requires cpu " << rng.UniformInt(1, 4) << "\n";
  }
  int flow_id = 0;
  for (const std::string& var : vars) {
    const std::string literal =
        DiffScopeHost(lo + static_cast<int>(rng.UniformInt(0, span - 1)));
    q << "f" << flow_id++ << " ";
    if (rng.Bernoulli(0.5)) {
      q << literal << " -> " << var;
    } else {
      q << var << " -> " << literal;
    }
    q << " size " << rng.UniformInt(1, 64) << "M";
    if (rng.Bernoulli(0.25)) {
      q << " rate " << rng.UniformInt(1, 8) * 100 << "M";
    }
    q << "\n";
  }
  if (actives == 2 && rng.Bernoulli(0.5)) {
    q << "x " << vars[0] << " -> " << vars[1] << " size " << rng.UniformInt(1, 32) << "M\n";
  }
  return q.str();
}

std::unique_ptr<Cluster> MakeDiffScopeCluster(uint64_t seed, bool scope_probe_pruning,
                                              Seconds reservation_hold) {
  SingleSwitchParams params;
  params.num_hosts = kDiffScopeHosts;
  params.host_caps.nic_up = 1 * kGbps;
  params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = 4 * kGbps;
  params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = seed;
  options.server.seed = seed;
  options.server.eval_threads = 1;
  options.server.reservation_hold = reservation_hold;
  options.server.scope_probe_pruning = scope_probe_pruning;
  auto cluster = std::make_unique<Cluster>(MakeSingleSwitch(params), options);
  cluster->StartStatusSweep();
  return cluster;
}

// Seeds deterministic background traffic so probed status actually differs
// across hosts (an all-idle fleet would make every oracle trivially pass).
void AddDiffScopeLoad(Cluster* cluster, uint64_t seed) {
  Rng rng(seed ^ 0x8ebc6af09c88c6e3ull);
  const std::vector<NodeId>& hosts = cluster->topology().hosts();
  const int pairs = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < pairs; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, kDiffScopeHosts - 1));
    const int b = static_cast<int>(rng.UniformInt(0, kDiffScopeHosts - 1));
    if (a == b) {
      continue;
    }
    cluster->AddBackgroundPair(hosts[a], hosts[b],
                               static_cast<double>(rng.UniformInt(1, 8)) * 0.1 * kGbps);
  }
  cluster->MeasureNow();
}

// Everything an answer exposes, rendered bit-faithfully (%.17g doubles):
// ok-ness and message, binding, per-variable scores, estimate makespan.
// Probe stats and traces legitimately differ between the two sides.
std::string DiffScopeReplyDigest(const Result<QueryReply>& reply) {
  if (!reply.ok()) {
    return "error: " + reply.error().message;
  }
  std::string out = "binding [" + RenderBinding(reply.value().binding) + "] scores [";
  std::vector<std::string> scores;
  for (const auto& [name, score] : reply.value().scores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g", name.c_str(), score);
    scores.push_back(buf);
  }
  std::sort(scores.begin(), scores.end());
  for (const std::string& s : scores) {
    out += s + " ";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", reply.value().estimate.makespan);
  out += "] makespan " + std::string(buf);
  return out;
}

std::string RunDiffScopeSeed(uint64_t seed, std::string* query_text) {
  // Oracle 1: footprint identity against full-fleet probing.
  *query_text = GenerateDiffScopeQuery(seed, 0, kDiffScopeHosts - 1);
  {
    const std::unique_ptr<Cluster> pruned_ptr =
        MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 0);
    Cluster& pruned = *pruned_ptr;
    const std::unique_ptr<Cluster> full_ptr =
        MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/false, 0);
    Cluster& full = *full_ptr;
    AddDiffScopeLoad(&pruned, seed);
    AddDiffScopeLoad(&full, seed);
    const Result<QueryReply> a = pruned.cloudtalk().Answer(*query_text);
    const Result<QueryReply> b = full.cloudtalk().Answer(*query_text);
    const std::string da = DiffScopeReplyDigest(a);
    const std::string db = DiffScopeReplyDigest(b);
    if (da != db) {
      return "footprint probing diverges from full probing: [" + da + "] vs [" + db + "]";
    }
    if (a.ok() && a.value().probe_stats.requests_sent > b.value().probe_stats.requests_sent) {
      return "footprint probing sent more probes (" +
             std::to_string(a.value().probe_stats.requests_sent) + ") than full probing (" +
             std::to_string(b.value().probe_stats.requests_sent) + ")";
    }
  }
  // Oracle 2: disjoint queries commute under reservations.
  const std::string left = GenerateDiffScopeQuery(seed * 2 + 1, 0, kDiffScopeHosts / 2 - 1);
  const std::string right =
      GenerateDiffScopeQuery(seed * 2 + 2, kDiffScopeHosts / 2, kDiffScopeHosts - 1);
  const std::unique_ptr<Cluster> lr_ptr =
      MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 60.0);
  Cluster& lr = *lr_ptr;
  const std::unique_ptr<Cluster> rl_ptr =
      MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 60.0);
  Cluster& rl = *rl_ptr;
  AddDiffScopeLoad(&lr, seed);
  AddDiffScopeLoad(&rl, seed);
  const std::string left_first = DiffScopeReplyDigest(lr.cloudtalk().Answer(left));
  const std::string right_second = DiffScopeReplyDigest(lr.cloudtalk().Answer(right));
  const std::string right_first = DiffScopeReplyDigest(rl.cloudtalk().Answer(right));
  const std::string left_second = DiffScopeReplyDigest(rl.cloudtalk().Answer(left));
  if (left_first != left_second) {
    *query_text = left + "# --- disjoint peer, answered on the same cluster ---\n" + right;
    return "disjoint queries do not commute: first reply depends on order: [" + left_first +
           "] vs [" + left_second + "]";
  }
  if (right_second != right_first) {
    *query_text = left + "# --- disjoint peer, answered on the same cluster ---\n" + right;
    return "disjoint queries do not commute: second reply depends on order: [" +
           right_first + "] vs [" + right_second + "]";
  }
  return "";
}

// ---- --diff-shard: differential fuzz of the sharded deployment ----
//
// Three oracles per seed (D505), each comparing a sharded CloudTalkServer
// against the default one-shard server on identically seeded twin clusters
// (same topology, same background load, same server seed — so the sampling
// RNG streams and the simulated status plane line up exactly):
//  1. sequential identity: three generated queries are answered in sequence
//     over 2 and 4 shards with reservations armed; every reply must be
//     byte-identical to the default server's, which also proves the
//     partitioned reservation tables (holds on every owning shard or on
//     none) behave like the flat one.
//  2. packet search: a packet-level query, searched once over the status
//     the shards gathered, must pick the default server's winner at 2 and
//     4 shards.
//  3. concurrent admission: two queries over disjoint host slices answered
//     concurrently through the 4-shard server's N-slot gate must match
//     the one-shard server answering them in sequence.

ShardedConfig DiffShardConfig(Cluster* cluster, int shards) {
  ShardedConfig cfg;
  cfg.server = cluster->cloudtalk().config();
  cfg.shards = shards;
  return cfg;
}

std::string RunDiffShardSeed(uint64_t seed, std::string* query_text) {
  // The default server is the one-shard configuration, so it is the oracle
  // and is not answered a second time.
  constexpr int kShardCounts[] = {2, 4};
  // Oracle 1: sequential identity, reservations armed (0.3 s hold, so the
  // second and third queries see the first's reservations).
  std::vector<std::string> queries;
  for (uint64_t k = 0; k < 3; ++k) {
    queries.push_back(GenerateDiffScopeQuery(seed * 3 + k, 0, kDiffScopeHosts - 1));
  }
  *query_text = queries[0] + "# --- answered in sequence ---\n" + queries[1] +
                "# --- answered in sequence ---\n" + queries[2];
  std::vector<std::string> oracle;
  {
    const std::unique_ptr<Cluster> cluster_ptr =
        MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 0.3);
    Cluster& cluster = *cluster_ptr;
    AddDiffScopeLoad(&cluster, seed);
    for (const std::string& q : queries) {
      oracle.push_back(DiffScopeReplyDigest(cluster.cloudtalk().Answer(q)));
    }
  }
  for (const int shards : kShardCounts) {
    const std::unique_ptr<Cluster> cluster_ptr =
        MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 0.3);
    Cluster& cluster = *cluster_ptr;
    AddDiffScopeLoad(&cluster, seed);
    CloudTalkServer sharded(DiffShardConfig(&cluster, shards), &cluster.directory(),
                            &cluster.transport(), [&cluster] { return cluster.now(); });
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string got = DiffScopeReplyDigest(sharded.Answer(queries[i]));
      if (got != oracle[i]) {
        return "sharded reply diverges from single server (" + std::to_string(shards) +
               " shard(s), query " + std::to_string(i + 1) + " of 3): [" + got + "] vs [" +
               oracle[i] + "]";
      }
    }
  }
  // Oracle 2: the packet path over per-shard probes. A packet-level query
  // over a small host slice keeps the exhaustive walk cheap.
  {
    const std::string packet_query =
        "option packet\n" + GenerateDiffScopeQuery(seed ^ 0x9e3779b97f4a7c15ull, 0, 5);
    const std::unique_ptr<Cluster> oracle_cluster_ptr =
        MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 0);
    Cluster& oracle_cluster = *oracle_cluster_ptr;
    AddDiffScopeLoad(&oracle_cluster, seed);
    PacketLevelEstimator oracle_estimator(&oracle_cluster.topology(),
                                          &oracle_cluster.directory());
    CloudTalkServer single(oracle_cluster.cloudtalk().config(), &oracle_cluster.directory(),
                           &oracle_cluster.transport(),
                           [&oracle_cluster] { return oracle_cluster.now(); },
                           &oracle_estimator);
    const std::string want = DiffScopeReplyDigest(single.Answer(packet_query));
    for (const int shards : kShardCounts) {
      const std::unique_ptr<Cluster> cluster_ptr =
          MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 0);
      Cluster& cluster = *cluster_ptr;
      AddDiffScopeLoad(&cluster, seed);
      PacketLevelEstimator estimator(&cluster.topology(), &cluster.directory());
      CloudTalkServer sharded(DiffShardConfig(&cluster, shards), &cluster.directory(),
                              &cluster.transport(), [&cluster] { return cluster.now(); },
                              &estimator);
      const std::string got = DiffScopeReplyDigest(sharded.Answer(packet_query));
      if (got != want) {
        *query_text = packet_query;
        return "packet query picks a different winner through the shards (" +
               std::to_string(shards) + " shard(s)): [" + got + "] vs [" + want + "]";
      }
    }
  }
  // Oracle 3: concurrent admission through the N-slot gate. The two queries
  // draw from disjoint host slices, so the sharded server may evaluate them
  // in parallel — the replies must still match the sequential single-server
  // answers.
  const std::string left = GenerateDiffScopeQuery(seed * 2 + 1, 0, kDiffScopeHosts / 2 - 1);
  const std::string right =
      GenerateDiffScopeQuery(seed * 2 + 2, kDiffScopeHosts / 2, kDiffScopeHosts - 1);
  const std::unique_ptr<Cluster> oracle_cluster_ptr =
      MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 60.0);
  Cluster& oracle_cluster = *oracle_cluster_ptr;
  const std::unique_ptr<Cluster> sharded_cluster_ptr =
      MakeDiffScopeCluster(seed, /*scope_probe_pruning=*/true, 60.0);
  Cluster& sharded_cluster = *sharded_cluster_ptr;
  AddDiffScopeLoad(&oracle_cluster, seed);
  AddDiffScopeLoad(&sharded_cluster, seed);
  const std::string left_want = DiffScopeReplyDigest(oracle_cluster.cloudtalk().Answer(left));
  const std::string right_want = DiffScopeReplyDigest(oracle_cluster.cloudtalk().Answer(right));
  CloudTalkServer sharded(DiffShardConfig(&sharded_cluster, 4), &sharded_cluster.directory(),
                          &sharded_cluster.transport(),
                          [&sharded_cluster] { return sharded_cluster.now(); });
  std::string left_got;
  std::string right_got;
  std::thread left_thread([&] { left_got = DiffScopeReplyDigest(sharded.Answer(left)); });
  std::thread right_thread([&] { right_got = DiffScopeReplyDigest(sharded.Answer(right)); });
  left_thread.join();
  right_thread.join();
  if (left_got != left_want || right_got != right_want) {
    *query_text = left + "# --- disjoint peer, admitted concurrently ---\n" + right;
    return "concurrently admitted replies diverge from sequential single server: [" +
           left_got + "] vs [" + left_want + "], [" + right_got + "] vs [" + right_want + "]";
  }
  return "";
}

// One differential oracle, selected by `--diff-<name>`.
struct DiffOracle {
  const char* name;
  const char* code;   // Invariant code a divergence violates.
  const char* label;  // What a divergence is, for the stderr line.
  // Runs one seed: returns the divergence detail ("" on agreement) and
  // leaves the input to replay in `query_text`.
  std::string (*run)(uint64_t seed, std::string* query_text);
};

constexpr DiffOracle kDiffOracles[] = {
    {"opt", "D500", "optimisation divergence", RunGeneratedQuerySeed<CheckDiffOpt>},
    {"sim", "D501", "delta re-solve divergence", RunGeneratedQuerySeed<CheckDiffSim>},
    {"bound", "D502", "bound soundness violation", RunGeneratedQuerySeed<CheckDiffBound>},
    {"canon", "D503", "canonicalization violation", RunGeneratedQuerySeed<CheckDiffCanon>},
    {"scope", "D504", "footprint violation", RunDiffScopeSeed},
    {"shard", "D505", "sharding violation", RunDiffShardSeed},
};

// Runs `oracle` on seeds seed_base .. seed_base + seeds - 1. Each divergent
// seed is named on stderr and its input saved as
// <out_dir>/diff<name>_<seed>.ct.
int RunDiffMode(const DiffOracle& oracle, int seeds, uint64_t seed_base,
                const std::string& out_dir, bool json) {
  if (seeds <= 0) {
    std::fprintf(stderr, "ctcheck: --seeds must be positive\n");
    return 2;
  }
  int violating = 0;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(i);
    std::string query_text;
    const std::string detail = oracle.run(seed, &query_text);
    if (detail.empty()) {
      continue;
    }
    ++violating;
    std::string saved_to =
        out_dir + "/diff" + oracle.name + "_" + std::to_string(seed) + ".ct";
    std::ofstream out(saved_to);
    if (out) {
      out << "# ctcheck --diff-" << oracle.name << " divergence, seed " << seed << " ("
          << oracle.code << ")\n"
          << "# " << detail << "\n"
          << query_text;
    } else {
      std::fprintf(stderr, "ctcheck: cannot write '%s'\n", saved_to.c_str());
      saved_to.clear();
    }
    std::fprintf(stderr, "seed %llu: %s %s: %s%s%s\n", static_cast<unsigned long long>(seed),
                 oracle.code, oracle.label, detail.c_str(),
                 saved_to.empty() ? "" : ", query saved to ", saved_to.c_str());
  }
  if (json) {
    std::printf("{\"mode\":\"diff-%s\",\"scenarios\":%d,\"violating\":%d}\n", oracle.name,
                seeds, violating);
  } else {
    std::printf("ctcheck --diff-%s: %d seed(s), %d divergent\n", oracle.name, seeds,
                violating);
  }
  return violating > 0 ? 1 : 0;
}

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: ctcheck [--seeds N] [--seed-base B] [--out DIR] [--json]\n"
               "       ctcheck --diff-MODE [--seeds N] [--seed-base B] [--out DIR] [--json]\n"
               "       ctcheck --replay scenario.ctsc [--json]\n"
               "       ctcheck --catalog [--json]\n"
               "\n"
               "Seeded scenario fuzzer for the CloudTalk invariant checks: generates\n"
               "randomized cluster workloads, runs them with CT_INVARIANT armed, and\n"
               "serializes any violating scenario to a replayable .ctsc file.\n"
               "With one --diff-MODE, fuzzes a differential oracle instead; any\n"
               "divergence is a violation of the mode's D-code and the query is saved\n"
               "as diffMODE_SEED.ct:\n"
               "  opt    D500  random queries and status snapshots are searched\n"
               "               exhaustively with the static optimisation passes off and\n"
               "               on; the winners must be byte-identical\n"
               "  sim    D501  every binding is estimated by checkpoint-restore delta\n"
               "               re-solve and by a cold per-binding rebuild\n"
               "  bound  D502  every legal binding's makespan must lie inside the\n"
               "               static [LB, UB] interval\n"
               "  canon  D503  canon must be idempotent, equivalence-preserving\n"
               "               mutations must keep the canonical bytes, and the\n"
               "               canonical form must be answered like the original\n"
               "  scope  D504  probing only the footprint must answer like probing\n"
               "               everything, and queries with disjoint reservation\n"
               "               footprints must commute\n"
               "  shard  D505  the server over 2 and 4 shards must answer like the\n"
               "               default one-shard server, also under concurrent admission\n"
               "Exits 0 when every scenario is clean, 1 on violations, 2 on usage errors.\n");
}

void PrintCatalog(bool json) {
  if (json) {
    std::string out = "{\"invariants\":[";
    bool first = true;
    for (const check::InvariantInfo& info : check::InvariantCatalog()) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      out += "{\"code\":\"" + std::string(info.code) + "\",\"subsystem\":\"" +
             info.subsystem + "\",\"summary\":\"" + info.summary + "\"}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return;
  }
  for (const check::InvariantInfo& info : check::InvariantCatalog()) {
    std::printf("%-5s %-9s %s\n", info.code, info.subsystem, info.summary);
  }
}

int Main(int argc, char** argv) {
  int seeds = 20;
  uint64_t seed_base = 1;
  std::string out_dir = ".";
  std::string replay_path;
  bool json = false;
  bool catalog = false;
  const DiffOracle* diff = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ctcheck: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::atoi(next("--seeds"));
    } else if (arg == "--seed-base") {
      seed_base = static_cast<uint64_t>(std::atoll(next("--seed-base")));
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--catalog") {
      catalog = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      const DiffOracle* oracle = nullptr;
      for (const DiffOracle& o : kDiffOracles) {
        if (arg == std::string("--diff-") + o.name) {
          oracle = &o;
        }
      }
      if (oracle == nullptr) {
        std::fprintf(stderr, "ctcheck: unknown argument '%s'\n", arg.c_str());
        PrintUsage(stderr);
        return 2;
      }
      if (diff != nullptr) {
        std::fprintf(stderr, "ctcheck: %s: only one --diff-* mode per run\n", arg.c_str());
        return 2;
      }
      diff = oracle;
    }
  }
  if (catalog) {
    PrintCatalog(json);
    return 0;
  }
  if (diff != nullptr) {
    return RunDiffMode(*diff, seeds, seed_base, out_dir, json);
  }
  if (!check::kInvariantsEnabled) {
    std::fprintf(stderr,
                 "ctcheck: warning: built without CLOUDTALK_INVARIANTS; the CT_INVARIANT "
                 "checks are compiled out and only always-on checkers run. Configure with "
                 "-DCLOUDTALK_INVARIANTS=ON for full coverage.\n");
  }

  std::vector<Scenario> scenarios;
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "ctcheck: cannot open '%s'\n", replay_path.c_str());
      return 2;
    }
    Scenario s;
    std::string error;
    if (!ParseScenario(in, &s, &error)) {
      std::fprintf(stderr, "ctcheck: %s: %s\n", replay_path.c_str(), error.c_str());
      return 2;
    }
    scenarios.push_back(s);
  } else {
    if (seeds <= 0) {
      std::fprintf(stderr, "ctcheck: --seeds must be positive\n");
      return 2;
    }
    for (int i = 0; i < seeds; ++i) {
      scenarios.push_back(GenerateScenario(seed_base + static_cast<uint64_t>(i)));
    }
  }

  int violating = 0;
  int64_t total_violations = 0;
  std::string scenario_reports;  // JSON fragments, one per violating scenario.
  for (const Scenario& s : scenarios) {
    const RunResult result = RunScenario(s);
    total_violations += static_cast<int64_t>(result.violations.size());
    if (result.violations.empty()) {
      if (!json) {
        std::printf("seed %llu: clean (t=%.1fs, %lld blocks written, %lld read)\n",
                    static_cast<unsigned long long>(s.seed), result.end_time,
                    static_cast<long long>(result.blocks_written),
                    static_cast<long long>(result.blocks_read));
      }
      continue;
    }
    ++violating;
    std::string saved_to;
    if (replay_path.empty()) {
      saved_to = out_dir + "/scenario_" + std::to_string(s.seed) + ".ctsc";
      std::ofstream out(saved_to);
      if (out) {
        SerializeScenario(s, out);
      } else {
        std::fprintf(stderr, "ctcheck: cannot write '%s'\n", saved_to.c_str());
        saved_to.clear();
      }
    }
    if (json) {
      if (!scenario_reports.empty()) {
        scenario_reports.push_back(',');
      }
      scenario_reports += "{\"seed\":" + std::to_string(s.seed) + ",\"saved_to\":\"" +
                          saved_to + "\",\"report\":" +
                          check::ViolationsToJson(result.violations) + "}";
    } else {
      std::printf("seed %llu: %zu violation(s)%s%s\n",
                  static_cast<unsigned long long>(s.seed), result.violations.size(),
                  saved_to.empty() ? "" : ", scenario saved to ", saved_to.c_str());
      for (const check::Violation& v : result.violations) {
        std::fputs(check::FormatViolation(v).c_str(), stdout);
      }
    }
  }

  if (json) {
    std::printf("{\"scenarios\":%zu,\"violating\":%d,\"violations\":%lld,\"reports\":[%s]}\n",
                scenarios.size(), violating, static_cast<long long>(total_violations),
                scenario_reports.c_str());
  } else {
    std::printf("ctcheck: %zu scenario(s), %d violating, %lld violation(s) total\n",
                scenarios.size(), violating, static_cast<long long>(total_violations));
  }
  return violating > 0 ? 1 : 0;
}

}  // namespace
}  // namespace cloudtalk

int main(int argc, char** argv) { return cloudtalk::Main(argc, argv); }
