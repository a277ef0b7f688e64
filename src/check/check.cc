#include "src/check/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/json.h"

namespace cloudtalk {
namespace check {
namespace {

// Process-wide policy/sink state. Atomics rather than a mutex: violations
// can fire from worker threads while a test thread flips the policy, and
// the report path must never itself take a lock that user code might hold
// (the lock registry reports through here while a mutex is being acquired).
std::atomic<OnViolation> g_policy{OnViolation::kAbort};
std::atomic<CheckSink*> g_sink{nullptr};
std::atomic<int64_t> g_violation_count{0};

}  // namespace

const char* OnViolationName(OnViolation policy) {
  switch (policy) {
    case OnViolation::kAbort:
      return "abort";
    case OnViolation::kLogAndContinue:
      return "log-and-continue";
    case OnViolation::kThrow:
      return "throw";
  }
  return "unknown";
}

const std::vector<InvariantInfo>& InvariantCatalog() {
  static const std::vector<InvariantInfo> kCatalog = {
      {"D000", "check", "generic CT_DCHECK internal sanity check"},
      {"D500", "opt",
       "exhaustive search with the static optimisation passes returns the same "
       "winning binding and bit-identical estimate as the unoptimised walk "
       "(checked differentially by ctcheck --diff-opt)"},
      {"D501", "fluidsim",
       "the incremental delta re-solve (checkpoint restore + dirty-component "
       "water-filling) returns the same winning binding and bit-identical "
       "estimate as a cold per-binding rebuild (checked differentially by "
       "ctcheck --diff-sim)"},
      {"D502", "bound",
       "bound soundness: every simulated binding's makespan lies inside the "
       "[LB, UB] interval lang::BoundAnalysis computes at the estimator's "
       "availability fraction (checked differentially by ctcheck "
       "--diff-bound)"},
      {"D503", "canon",
       "canonicalization soundness: canon is idempotent, equivalence-preserving "
       "mutations (renaming, reordering, respelling, dead clauses) leave the "
       "canonical bytes unchanged, and the canonical form is answered exactly "
       "like the original after mapping names back (checked differentially by "
       "ctcheck --diff-canon)"},
      {"D504", "scope",
       "footprint soundness: probing only the hosts the static scope analysis "
       "places in the footprint yields byte-identical answers to probing every "
       "sampled pool entry and literal endpoint, and queries with disjoint "
       "reservation footprints commute — either admission order yields "
       "byte-identical replies (checked differentially by ctcheck "
       "--diff-scope)"},
      {"D505", "shard",
       "sharded-deployment identity: CloudTalkServer built over 1, 2, or 4 "
       "shards — hierarchical probe aggregation, one exhaustive search over the "
       "merged status, holds on every owning shard or on none — "
       "answers byte-identically to the default one-shard server, for "
       "sequential queries and for disjoint queries admitted concurrently "
       "through the N-slot gate (checked differentially by ctcheck "
       "--diff-shard)"},
      {"I101", "fluidsim",
       "after max-min allocation every unfrozen flow group is bottlenecked at a "
       "saturated resource or pinned at its rate cap"},
      {"I102", "fluidsim",
       "allocated rates never consume more than a resource's capacity (within "
       "epsilon)"},
      {"I103", "fluidsim", "events are never scheduled before the current simulation time"},
      {"I104", "fluidsim", "residual (untransferred) bytes of a member never go negative"},
      {"I105", "fluidsim", "GroupTransferred is queried with a valid member index"},
      {"I106", "fluidsim", "simulation time never moves backwards between events"},
      {"I201", "hdfs", "a write pipeline has exactly `replication` stages"},
      {"I202", "hdfs", "all replicas in a write pipeline are distinct hosts"},
      {"I203", "hdfs", "a read is always served from a host that holds a replica"},
      {"I204", "hdfs",
       "block state transitions follow empty -> writing -> complete (installs may "
       "jump straight to complete)"},
      {"I205", "hdfs", "reads are only served from blocks in the complete state"},
      {"I301", "mapred", "a task attempt is never assigned to two trackers at once"},
      {"I302", "mapred", "speculative attempts are launched only for running tasks"},
      {"I303", "mapred", "per-tracker heartbeat times are monotonically non-decreasing"},
      {"I304", "mapred",
       "tracker slot counters match the number of running attempts placed on the "
       "tracker"},
      {"I305", "mapred", "a reducer's outstanding-fetch count never goes negative"},
      {"I401", "topology",
       "every pair of nodes in a constructed fabric is connected (the reverse "
       "BFS from the destination reaches the source)"},
      {"I402", "topology",
       "the ECMP shortest-path walk always finds a next hop strictly closer "
       "to the destination"},
      {"I403", "topology",
       "a synthesized cloud tenant exposes exactly the requested number of "
       "instances"},
      {"I404", "result", "Result<T>::value() is only called on a result holding a value"},
      {"I405", "result", "Result<T>::error() is only called on a failed result"},
      {"I406", "probing",
       "rack inference assigns every probed host a non-negative rack label"},
      {"I407", "harness",
       "a measurement sweep reports status for every host in the cluster"},
      {"I408", "scope",
       "every literal flow endpoint is inside the computed footprint (the bound "
       "analysis and the estimators read its status for every binding)"},
      {"I409", "server",
       "an admission-gate release always matches a scope that is still in "
       "flight"},
      {"I410", "shard",
       "the shard map is a total partition: every probe target and every "
       "reservation routes to exactly one owning shard, so no host is ever "
       "probed twice or double-reserved across shards"},
      {"I412", "shard",
       "hierarchical probe aggregation reads a partition: a shard reports "
       "only hosts of its own slice of the probe targets, so no report is "
       "invented or read from a shard that does not own the host"},
      {"L401", "lock",
       "no two locks are ever acquired in opposite orders by different threads "
       "(lock-order inversion)"},
      {"L402", "lock",
       "state protected by a ScopedAccessGuard is entered by one thread at a time "
       "(single-writer violation)"},
  };
  return kCatalog;
}

const InvariantInfo* FindInvariant(std::string_view code) {
  for (const InvariantInfo& info : InvariantCatalog()) {
    if (code == info.code) {
      return &info;
    }
  }
  return nullptr;
}

void RecordingSink::Report(const Violation& violation) {
  std::lock_guard<std::mutex> lock(mutex_);
  violations_.push_back(violation);
}

std::vector<Violation> RecordingSink::TakeAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Violation> out;
  out.swap(violations_);
  return out;
}

int RecordingSink::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(violations_.size());
}

void SetViolationPolicy(OnViolation policy) { g_policy.store(policy, std::memory_order_relaxed); }

OnViolation GetViolationPolicy() { return g_policy.load(std::memory_order_relaxed); }

void SetCheckSink(CheckSink* sink) { g_sink.store(sink, std::memory_order_release); }

int64_t ViolationCount() { return g_violation_count.load(std::memory_order_relaxed); }

void ResetViolationCountForTest() { g_violation_count.store(0, std::memory_order_relaxed); }

InvariantViolation::InvariantViolation(Violation violation)
    : std::runtime_error(FormatViolation(violation)), violation_(std::move(violation)) {}

void ReportViolation(Violation violation) {
  g_violation_count.fetch_add(1, std::memory_order_relaxed);
  if (CheckSink* sink = g_sink.load(std::memory_order_acquire)) {
    sink->Report(violation);
    if (GetViolationPolicy() == OnViolation::kLogAndContinue) {
      return;
    }
  }
  switch (GetViolationPolicy()) {
    case OnViolation::kThrow:
      throw InvariantViolation(std::move(violation));
    case OnViolation::kLogAndContinue:
      std::fputs(FormatViolation(violation).c_str(), stderr);
      return;
    case OnViolation::kAbort:
      std::fputs(FormatViolation(violation).c_str(), stderr);
      std::abort();
  }
}

std::string FormatViolation(const Violation& violation) {
  std::ostringstream os;
  const InvariantInfo* info = FindInvariant(violation.code);
  os << violation.file << ":" << violation.line << ": invariant violation: "
     << violation.message << " [" << violation.code;
  if (info != nullptr) {
    os << " " << info->subsystem;
  }
  os << "]\n";
  os << "  condition: " << violation.condition << "\n";
  for (const auto& [key, value] : violation.state) {
    os << "  " << key << " = " << value << "\n";
  }
  return os.str();
}

std::string ViolationToJson(const Violation& violation) {
  std::string out = "{\"code\":";
  out += JsonQuote(violation.code);
  const InvariantInfo* info = FindInvariant(violation.code);
  out += ",\"subsystem\":";
  out += JsonQuote(info != nullptr ? info->subsystem : "unknown");
  out += ",\"file\":";
  out += JsonQuote(violation.file);
  out += ",\"line\":" + std::to_string(violation.line);
  out += ",\"condition\":";
  out += JsonQuote(violation.condition);
  out += ",\"message\":";
  out += JsonQuote(violation.message);
  out += ",\"state\":{";
  bool first = true;
  for (const auto& [key, value] : violation.state) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += JsonQuote(key);
    out.push_back(':');
    out += JsonQuote(value);
  }
  out += "}}";
  return out;
}

std::string ViolationsToJson(const std::vector<Violation>& violations) {
  std::string out = "{\"violations\":" + std::to_string(violations.size());
  out += ",\"reports\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += ViolationToJson(violations[i]);
  }
  out += "]}";
  return out;
}

}  // namespace check
}  // namespace cloudtalk
