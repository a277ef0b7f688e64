// Shared experiment drivers for the benchmark binaries.
//
// Each bench regenerates one of the paper's tables/figures; the HDFS load
// protocol (Section 5.3) is common to several of them and lives here:
//
//   "First, each node copies a 768MB file from local storage to HDFS.
//    Then, at each step, a percentage of servers become active. In this
//    state, a server will attempt to copy three files, chosen at random,
//    from HDFS to local storage [or write files to HDFS]. There is an idle
//    period of up to three seconds (also random) between copy operations."
#ifndef CLOUDTALK_BENCH_EXPERIMENTS_H_
#define CLOUDTALK_BENCH_EXPERIMENTS_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/harness/cluster.h"
#include "src/harness/profiles.h"
#include "src/hdfs/mini_hdfs.h"

namespace cloudtalk {
namespace bench {

// True when the bench should run a reduced sweep (set CLOUDTALK_BENCH_FULL=1
// for paper-scale repetition counts).
inline bool QuickMode() { return std::getenv("CLOUDTALK_BENCH_FULL") == nullptr; }

struct HdfsLoadParams {
  enum class Mode { kRead, kWrite };
  Mode mode = Mode::kRead;
  std::function<Topology()> topology;          // Cluster profile.
  Bytes file_size = 768 * kMB;                 // 768 MB local / 512 MB EC2.
  Bytes block_size = 256 * kMB;
  double active_fraction = 0.5;                // Servers doing copies.
  int copies_per_active = 3;
  Seconds max_idle_gap = 3.0;
  bool cloudtalk = false;
  Seconds reservation_hold = 300 * kMillisecond;
  int sample_override = 0;                     // 0 = probe the whole pool.
  int repetitions = 1;
  uint64_t seed = 1;
  Seconds deadline = 3600;                     // Per repetition.
  // Optional hook to adjust the cluster configuration (ablation benches).
  std::function<void(ClusterOptions&)> configure;
};

struct HdfsLoadResult {
  std::vector<double> durations;  // Per individual copy operation.
  int unfinished = 0;
};

// Runs the Section 5.3 read/write load protocol and returns per-operation
// completion times.
inline HdfsLoadResult RunHdfsLoad(const HdfsLoadParams& params) {
  HdfsLoadResult result;
  for (int rep = 0; rep < params.repetitions; ++rep) {
    ClusterOptions options;
    options.seed = params.seed + rep * 1000003;
    options.server.reservation_hold = params.reservation_hold;
    if (params.sample_override > 0) {
      options.server.sample_override = params.sample_override;
      options.server.sample_threshold = params.sample_override;
    }
    if (params.configure) {
      params.configure(options);
    }
    Cluster cluster(params.topology(), options);
    cluster.StartStatusSweep();
    HdfsOptions hdfs_options;
    hdfs_options.block_size = params.block_size;
    hdfs_options.cloudtalk_reads = params.cloudtalk;
    hdfs_options.cloudtalk_writes = params.cloudtalk;
    MiniHdfs hdfs(&cluster, hdfs_options);

    const int n = cluster.num_hosts();
    Rng rng(options.seed * 7 + 13);

    // Seed data: one file per node, first replica local, rest random.
    const int blocks =
        static_cast<int>((params.file_size + params.block_size - 1) / params.block_size);
    for (int i = 0; i < n; ++i) {
      std::vector<std::vector<NodeId>> replicas(blocks);
      for (int b = 0; b < blocks; ++b) {
        replicas[b].push_back(cluster.host(i));
        while (replicas[b].size() < 3) {
          const NodeId candidate = cluster.host(rng.UniformInt(0, n - 1));
          if (std::find(replicas[b].begin(), replicas[b].end(), candidate) ==
              replicas[b].end()) {
            replicas[b].push_back(candidate);
          }
        }
      }
      hdfs.InstallFile("seed" + std::to_string(i), params.file_size, std::move(replicas));
    }

    // Activate a fraction of servers.
    const int active = std::max(1, static_cast<int>(params.active_fraction * n + 0.5));
    const std::vector<int> chosen = rng.SampleWithoutReplacement(n, active);
    int outstanding = 0;
    int write_counter = 0;
    // Each active server runs `copies_per_active` operations sequentially
    // with random idle gaps.
    std::function<void(NodeId, int, uint64_t)> run_op = [&](NodeId client, int remaining,
                                                            uint64_t op_seed) {
      if (remaining == 0) {
        return;
      }
      Rng op_rng(op_seed);
      const Seconds gap = op_rng.Uniform(0, params.max_idle_gap);
      cluster.sim().Schedule(cluster.now() + gap, [&, client, remaining, op_seed] {
        ++outstanding;
        auto done = [&, client, remaining, op_seed](Seconds start, Seconds end) {
          result.durations.push_back(end - start);
          --outstanding;
          run_op(client, remaining - 1, op_seed * 31 + 7);
        };
        if (params.mode == HdfsLoadParams::Mode::kRead) {
          Rng pick(op_seed ^ 0x5bd1e995);
          const int victim = static_cast<int>(pick.UniformInt(0, n - 1));
          hdfs.ReadFile(client, "seed" + std::to_string(victim), done);
        } else {
          hdfs.WriteFile(client, "w" + std::to_string(write_counter++), params.file_size,
                         done);
        }
      });
    };
    for (int index : chosen) {
      run_op(cluster.host(index), params.copies_per_active,
             options.seed * 977 + index * 131 + 1);
    }
    cluster.RunUntil(cluster.now() + params.deadline);
    result.unfinished += outstanding;
  }
  return result;
}

// ---- Reduce-placement experiment (Figures 7 and 8) ----
//
// "We evaluate these effects by having UDP iperf connections from outside
// the Hadoop cluster arrive at a subset of the machines within the cluster
// ... All other machines run iperf senders." A sort job runs on the
// cluster; reducers = half the cluster size.
struct ReduceExperimentParams {
  int cluster_size = 10;        // Hadoop nodes (10 local / 58 EC2).
  int sender_count = 10;        // Outside iperf senders.
  double udp_target_fraction = 0.3;  // Fraction of cluster nodes blasted.
  Bytes input_per_node = 512 * kMB;  // 256 MB on EC2.
  Bytes split_size = 128 * kMB;
  bool ec2 = false;
  bool cloudtalk = false;
  uint64_t seed = 1;
};

struct ReduceExperimentResult {
  double job_time = 0;
  double avg_shuffle = 0;
  double p99_shuffle = 0;
  bool finished = false;
};

ReduceExperimentResult RunReduceExperiment(const ReduceExperimentParams& params);

// The Section 5.1 daisy chain: x1 = ... = xd = (s1 ... sn); f_i: x_i -> x_{i+1},
// among `bg` literal 64M transfers between disjoint host pairs outside the
// pool (rebinding the chain leaves their trajectories untouched).
std::string DaisyChainQuery(int n, int d, int bg = 0);

// ---- The one report schema of the acceptance benches ----
//
// A run writes one JSON object: the bench name, the build type, and per
// case the configuration compared, its metrics (name, value, unit, which
// direction is better) and its floors (name, measured value, bound, and
// whether the value meets the bound), plus `pass`, which is true iff every
// floor holds.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  // Opens a case; Metric and Floor attach to the case opened last.
  void Case(const std::string& name, const std::string& config);
  // `better` is "lower" or "higher".
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& better);
  // Records a floor and returns `holds`.
  bool Floor(const std::string& name, double value, double bound, bool holds);

  bool pass() const { return pass_; }
  // Prints the object to stdout and, when `path` is non-null, writes it
  // there too. Returns false, after saying so on stderr, when the file
  // cannot be written.
  bool Write(const char* path) const;

 private:
  struct CaseJson {
    std::string head;                  // Rendered name and config.
    std::vector<std::string> metrics;  // Rendered JSON objects.
    std::vector<std::string> floors;
  };

  std::string bench_;
  std::vector<CaseJson> cases_;
  bool pass_ = true;
};

// Formatting helpers shared by the bench mains.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintSeriesRow(const char* label, double x, double avg, double p99) {
  std::printf("%-24s %8.0f%% %12.2f %12.2f\n", label, x, avg, p99);
}

}  // namespace bench
}  // namespace cloudtalk

#endif  // CLOUDTALK_BENCH_EXPERIMENTS_H_
