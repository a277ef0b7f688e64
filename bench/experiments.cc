#include "bench/experiments.h"

#include <cmath>
#include <sstream>

#include "src/mapred/mini_mapreduce.h"

namespace cloudtalk {
namespace bench {
namespace {

// JSON has no NaN or infinity: a non-finite value is written as null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string JoinJson(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out;
}

}  // namespace

std::string DaisyChainQuery(int n, int d, int bg) {
  std::ostringstream query;
  for (int i = 1; i <= d; ++i) {
    query << "x" << i << " = ";
  }
  query << "(";
  for (int i = 1; i <= n; ++i) {
    query << "s" << i << " ";
  }
  query << ")\n";
  for (int i = 1; i + 1 <= d; ++i) {
    query << "f" << i << " x" << i << " -> x" << (i + 1) << " size 100M";
    if (i > 1) {
      query << " transfer t(f" << (i - 1) << ")";
    }
    query << "\n";
  }
  for (int b = 0; b < bg; ++b) {
    query << "g" << b << " s" << (n + 1 + 2 * b) << " -> s" << (n + 2 + 2 * b) << " size 64M\n";
  }
  return query.str();
}

void JsonReport::Case(const std::string& name, const std::string& config) {
  cases_.push_back(
      CaseJson{"\"name\":" + JsonString(name) + ",\"config\":" + JsonString(config), {}, {}});
}

void JsonReport::Metric(const std::string& name, double value, const std::string& unit,
                        const std::string& better) {
  cases_.back().metrics.push_back("{\"name\":" + JsonString(name) +
                                  ",\"value\":" + JsonNumber(value) +
                                  ",\"unit\":" + JsonString(unit) +
                                  ",\"better\":" + JsonString(better) + "}");
}

bool JsonReport::Floor(const std::string& name, double value, double bound, bool holds) {
  cases_.back().floors.push_back("{\"name\":" + JsonString(name) +
                                 ",\"value\":" + JsonNumber(value) +
                                 ",\"bound\":" + JsonNumber(bound) +
                                 ",\"holds\":" + (holds ? "true" : "false") + "}");
  pass_ = pass_ && holds;
  return holds;
}

bool JsonReport::Write(const char* path) const {
  std::string json = "{\"bench\":" + JsonString(bench_) +
                     ",\"build_type\":" + JsonString(CLOUDTALK_BUILD_TYPE) + ",\"cases\":[";
  for (size_t i = 0; i < cases_.size(); ++i) {
    const CaseJson& c = cases_[i];
    json += (i > 0 ? ",\n  {" : "\n  {") + c.head + ",\"metrics\":[" + JoinJson(c.metrics) +
            "],\"floors\":[" + JoinJson(c.floors) + "]}";
  }
  json += std::string("\n],\"pass\":") + (pass_ ? "true" : "false") + "}\n";
  std::fputs(json.c_str(), stdout);
  if (path == nullptr) {
    return true;
  }
  std::FILE* f = std::fopen(path, "w");
  bool written = f != nullptr && std::fputs(json.c_str(), f) >= 0;
  if (f != nullptr) {
    written = std::fclose(f) == 0 && written;
  }
  if (!written) {
    std::fprintf(stderr, "cannot write %s\n", path);
  }
  return written;
}

ReduceExperimentResult RunReduceExperiment(const ReduceExperimentParams& params) {
  ReduceExperimentResult result;
  const int total_hosts = params.cluster_size + params.sender_count;
  ClusterOptions options;
  options.seed = params.seed;
  Topology topo =
      params.ec2 ? Ec2Cluster(total_hosts) : LocalGigabitCluster(total_hosts);
  Cluster cluster(std::move(topo), options);
  cluster.StartStatusSweep();

  // Hadoop runs on the first cluster_size hosts; the rest blast UDP at a
  // random subset of the cluster nodes.
  std::vector<NodeId> hadoop_nodes;
  for (int i = 0; i < params.cluster_size; ++i) {
    hadoop_nodes.push_back(cluster.host(i));
  }
  Rng rng(params.seed * 101 + 9);
  const int targets =
      std::max(1, static_cast<int>(params.udp_target_fraction * params.cluster_size + 0.5));
  const std::vector<int> victims =
      rng.SampleWithoutReplacement(params.cluster_size, targets);
  const Bps line_rate = cluster.topology().host_caps(cluster.host(0)).nic_down;
  for (size_t i = 0; i < victims.size(); ++i) {
    const NodeId sender = cluster.host(params.cluster_size + (static_cast<int>(i) %
                                                              params.sender_count));
    cluster.AddBackgroundPair(sender, cluster.host(victims[i]), line_rate * 0.95);
  }
  cluster.RunUntil(0.5);

  // Input: randomwriter output, replicas inside the Hadoop cluster.
  HdfsOptions hdfs_options;
  hdfs_options.block_size = params.split_size;
  hdfs_options.datanodes = hadoop_nodes;
  MiniHdfs hdfs(&cluster, hdfs_options);
  const int blocks = static_cast<int>(params.input_per_node * params.cluster_size /
                                      params.split_size);
  std::vector<std::vector<NodeId>> replicas(blocks);
  for (int b = 0; b < blocks; ++b) {
    for (int r = 0; r < 3; ++r) {
      replicas[b].push_back(hadoop_nodes[(b + r * 3) % params.cluster_size]);
    }
  }
  hdfs.InstallFile("input", static_cast<Bytes>(blocks) * params.split_size,
                   std::move(replicas));

  MapRedOptions mr_options;
  mr_options.cloudtalk_reduce = params.cloudtalk;
  mr_options.nodes = hadoop_nodes;
  // Output writes are "not optimised during these experiments" (Section
  // 5.3), so the MiniHdfs policy stays baseline.
  MiniMapReduce mr(&cluster, &hdfs, mr_options);
  JobStats stats;
  bool done = false;
  mr.RunJob("input", params.cluster_size / 2, [&](const JobStats& s) {
    stats = s;
    done = true;
  });
  cluster.RunUntil(cluster.now() + 3600 * 2);
  result.finished = done;
  if (done) {
    result.job_time = stats.finished - stats.started;
    result.avg_shuffle = Mean(stats.shuffle_durations);
    result.p99_shuffle = Percentile(stats.shuffle_durations, 99);
  }
  return result;
}

}  // namespace bench
}  // namespace cloudtalk
