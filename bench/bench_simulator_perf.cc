// Simulator micro-performance (google-benchmark).
//
// Not a paper figure — operational numbers for users of the library: how
// fast the fluid engine recomputes allocations, how many packet events the
// packet simulator processes per second, and end-to-end HDFS simulation
// throughput. These bound the experiment scales the repo can handle.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/fluidsim/fluid_simulation.h"
#include "src/harness/cluster.h"
#include "src/harness/profiles.h"
#include "src/packetsim/network.h"
#include "src/topology/topology.h"

using namespace cloudtalk;

namespace {

void BM_FluidMaxMinRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const Topology topo = Ec2Cluster(100);
  FluidSimulation sim(&topo);
  Rng rng(1);
  for (int i = 0; i < flows; ++i) {
    const NodeId src = topo.hosts()[rng.UniformInt(0, 99)];
    NodeId dst = src;
    while (dst == src) {
      dst = topo.hosts()[rng.UniformInt(0, 99)];
    }
    GroupSpec spec;
    FluidFlow flow;
    flow.resources = sim.resources().NetworkPath(topo, src, dst);
    flow.size = 1e15;
    spec.flows.push_back(std::move(flow));
    sim.AddGroup(std::move(spec));
  }
  sim.RunUntil(1e-6);
  for (auto _ : state) {
    // Force a fresh allocation by perturbing background load.
    sim.AddBackground(sim.resources().NicUp(topo.hosts()[0]), 1.0);
    benchmark::DoNotOptimize(sim.Usage(sim.resources().NicUp(topo.hosts()[0])));
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidMaxMinRecompute)->Arg(50)->Arg(200)->Arg(800)->Unit(benchmark::kMicrosecond);

void BM_PacketSimEventsPerSecond(benchmark::State& state) {
  SingleSwitchParams params;
  params.num_hosts = 32;
  const Topology topo = MakeSingleSwitch(params);
  for (auto _ : state) {
    packetsim::PacketNetwork net(&topo, packetsim::NetworkParams{});
    for (int i = 1; i < 32; ++i) {
      net.StartTcpFlow(topo.hosts()[i], topo.hosts()[0], 256 * kKB, 0);
    }
    net.RunUntilIdle(60);
    state.SetIterationTime(0);  // Use wall time; report events/s below.
    benchmark::DoNotOptimize(net.events().processed());
    state.counters["events"] = static_cast<double>(net.events().processed());
  }
}
BENCHMARK(BM_PacketSimEventsPerSecond)->Unit(benchmark::kMillisecond)->UseRealTime();

// The estimator hot loop (ISSUE 1): run a 3-hop transfer chain, Reset(),
// repeat on the same simulation — vs constructing a fresh simulation per
// iteration. The delta is the per-binding saving of the prepared scratch.
void BM_FluidRunAndReset(benchmark::State& state) {
  SingleSwitchParams params;
  params.num_hosts = 20;
  const Topology topo = MakeSingleSwitch(params);
  FluidSimulation sim(&topo);
  for (auto _ : state) {
    GroupSpec spec;
    for (int i = 0; i < 3; ++i) {
      FluidFlow flow;
      flow.resources =
          sim.resources().NetworkPath(topo, topo.hosts()[i], topo.hosts()[i + 1]);
      flow.size = 100 * kMB;
      spec.flows.push_back(std::move(flow));
    }
    sim.AddGroup(std::move(spec));
    sim.RunUntilIdle();
    sim.Reset();
    benchmark::DoNotOptimize(sim.recompute_count());
  }
}
BENCHMARK(BM_FluidRunAndReset)->Unit(benchmark::kMicrosecond);

void BM_FluidRunFreshSim(benchmark::State& state) {
  SingleSwitchParams params;
  params.num_hosts = 20;
  const Topology topo = MakeSingleSwitch(params);
  for (auto _ : state) {
    FluidSimulation sim(&topo);
    GroupSpec spec;
    for (int i = 0; i < 3; ++i) {
      FluidFlow flow;
      flow.resources =
          sim.resources().NetworkPath(topo, topo.hosts()[i], topo.hosts()[i + 1]);
      flow.size = 100 * kMB;
      spec.flows.push_back(std::move(flow));
    }
    sim.AddGroup(std::move(spec));
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(sim.now());
  }
}
BENCHMARK(BM_FluidRunFreshSim)->Unit(benchmark::kMicrosecond);

void BM_HdfsWriteSimulated(benchmark::State& state) {
  // End-to-end cost of simulating one 3-replica 256 MB pipelined write.
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(LocalGigabitCluster(20));
    state.ResumeTiming();
    GroupSpec spec;
    FluidSimulation& sim = cluster.sim();
    NodeId prev = cluster.host(0);
    for (int r = 1; r <= 3; ++r) {
      FluidFlow net;
      net.resources = sim.resources().NetworkPath(cluster.topology(), prev, cluster.host(r));
      net.size = 256 * kMB;
      spec.flows.push_back(std::move(net));
      FluidFlow disk;
      disk.resources = {sim.resources().DiskWrite(cluster.host(r))};
      disk.size = 256 * kMB;
      spec.flows.push_back(std::move(disk));
      prev = cluster.host(r);
    }
    sim.AddGroup(std::move(spec));
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(sim.now());
  }
}
BENCHMARK(BM_HdfsWriteSimulated)->Unit(benchmark::kMicrosecond);

// ---- Cold vs delta rebind comparison (ISSUE 6) ----
//
// The exhaustive engine's per-binding pattern at simulation level: a fixed
// workload where one "variable" flow is re-pointed per binding, served
// either by Reset() + full group rebuild (the cold rebind) or by checkpoint
// restore + an in-place resource patch (the delta rebind). Results must be
// bit-identical; the delta path must be at least 1.5x faster (the `delta`
// case of bench_search reports the speedup end to end, through the engine).
// The report (bench/experiments.h) goes to stdout and to `json_path` when
// non-null.
int RunRebindComparison(const char* json_path) {
  // Star topology with per-host resources — the same shape the estimator's
  // scratch builds, where flows couple only through shared endpoints (an
  // Ec2-style core would fold every group into one component and never
  // exercise reuse).
  SingleSwitchParams topo_params;
  topo_params.num_hosts = 100;
  const Topology topo = MakeSingleSwitch(topo_params);
  const int num_hosts = static_cast<int>(topo.hosts().size());
  FluidSimulation sim(&topo);
  Rng rng(7);

  const auto random_path = [&](const FluidSimulation& s) {
    const NodeId src = topo.hosts()[rng.UniformInt(0, num_hosts - 1)];
    NodeId dst = src;
    while (dst == src) {
      dst = topo.hosts()[rng.UniformInt(0, num_hosts - 1)];
    }
    return s.resources().NetworkPath(topo, src, dst);
  };

  // Fixed workload: 12 two-flow groups; bindings re-point group 0's first
  // flow at host b (keeping the paper's one-odometer-digit-changes shape).
  constexpr int kGroups = 12;
  std::vector<GroupSpec> base_specs(kGroups);
  for (GroupSpec& spec : base_specs) {
    for (int f = 0; f < 2; ++f) {
      FluidFlow flow;
      flow.resources = random_path(sim);
      flow.size = 64 * kMB;
      spec.flows.push_back(std::move(flow));
    }
  }
  const int bindings = bench::QuickMode() ? 50 : 400;
  std::vector<std::vector<ResourceId>> binding_paths;
  binding_paths.reserve(bindings);
  for (int b = 0; b < bindings; ++b) {
    binding_paths.push_back(
        sim.resources().NetworkPath(topo, topo.hosts()[0], topo.hosts()[1 + b % (num_hosts - 1)]));
  }

  // Cold pass: Reset + rebuild every group per binding (reference result).
  std::vector<std::vector<Seconds>> reference(bindings);
  const auto cold_begin = std::chrono::steady_clock::now();
  for (int b = 0; b < bindings; ++b) {
    sim.Reset();
    std::vector<GroupId> ids;
    ids.reserve(kGroups);
    for (int g = 0; g < kGroups; ++g) {
      GroupSpec spec = base_specs[g];
      if (g == 0) {
        spec.flows[0].resources = binding_paths[b];
      }
      ids.push_back(sim.AddGroup(std::move(spec)));
    }
    if (!sim.RunUntilIdle()) {
      std::fprintf(stderr, "cold rebind pass stalled\n");
      return 1;
    }
    reference[b].reserve(kGroups);
    for (const GroupId id : ids) {
      reference[b].push_back(sim.GroupFinishTime(id));
    }
  }
  const auto cold_end = std::chrono::steady_clock::now();

  // Delta pass: install once, checkpoint, then restore + patch per binding.
  sim.Reset();
  std::vector<GroupId> ids;
  ids.reserve(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    GroupSpec spec = base_specs[g];
    ids.push_back(sim.AddGroup(std::move(spec)));
  }
  sim.SaveCheckpoint();
  if (!sim.RunUntilIdle()) {  // Install run; captures the checkpoint solution.
    std::fprintf(stderr, "install run stalled\n");
    return 1;
  }
  bool identical = true;
  const auto delta_begin = std::chrono::steady_clock::now();
  for (int b = 0; b < bindings; ++b) {
    sim.RestoreCheckpoint();
    sim.MutableMemberResources(ids[0], 0) = binding_paths[b];
    sim.MarkGroupDirty(ids[0]);
    if (!sim.RunUntilIdle()) {
      std::fprintf(stderr, "delta rebind pass stalled\n");
      return 1;
    }
    for (int g = 0; g < kGroups; ++g) {
      identical = identical && sim.GroupFinishTime(ids[g]) == reference[b][g];
    }
  }
  const auto delta_end = std::chrono::steady_clock::now();

  const double cold_us =
      std::chrono::duration<double, std::micro>(cold_end - cold_begin).count() / bindings;
  const double delta_us =
      std::chrono::duration<double, std::micro>(delta_end - delta_begin).count() / bindings;
  const double speedup = delta_us > 0 ? cold_us / delta_us : 0;
  const auto counters = sim.solver_counters();

  bench::JsonReport report("simulator_perf");
  report.Case("rebind", std::to_string(bindings) + " bindings x " + std::to_string(kGroups) +
                            " groups on a 100-host star: cold rebuild vs delta restore");
  report.Metric("cold_us_per_binding", cold_us, "us", "lower");
  report.Metric("delta_us_per_binding", delta_us, "us", "lower");
  report.Metric("delta_component_hits", static_cast<double>(counters.delta_component_hits),
                "count", "higher");
  report.Metric("cold_component_solves", static_cast<double>(counters.cold_component_solves),
                "count", "lower");
  // A divergence is D501 material.
  report.Floor("identical", identical ? 1 : 0, 1, identical);
  report.Floor("speedup", speedup, 1.5, speedup >= 1.5);
  const bool written = report.Write(json_path);
  return written && report.pass() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  const int rc = RunRebindComparison(json_path);
  if (rc != 0) {
    return rc;
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
