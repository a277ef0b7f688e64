// Answer-path stages of CloudTalkServer (src/core/server.h), each written so
// its bytes do not depend on the shard count — the D505 differential
// contract:
//
//   - GatherStatusOver: sampling (one RNG stream, drawn over the FULL
//     variable set so the stream is independent of footprint pruning),
//     address assembly, resolution, and the scatter-gather. The server
//     passes its ShardRouter as the transport, turning the one logical
//     gather into per-shard batches without changing the bytes.
//   - SynthesizeStaticStatus: the `option static` no-probe path.
//   - CheckAdmissionBound: the ISSUE 7 pre-search rejection, error string
//     and all.
//   - RunExhaustiveSliced: the exhaustive/packet search, fanned out over
//     `slice_count` engine slices and merged by (makespan, winner_rank).
//     The server runs one slice per shard; results are byte-identical at
//     any slice count.
#ifndef CLOUDTALK_SRC_CORE_PIPELINE_H_
#define CLOUDTALK_SRC_CORE_PIPELINE_H_

#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/server.h"
#include "src/lang/analysis.h"
#include "src/lang/scope.h"
#include "src/obs/trace.h"
#include "src/status/transport.h"

namespace cloudtalk {

// Samples oversized pools in place in `*sampled_vars` (which the caller
// seeds with the query's variables), assembles and resolves the address
// set, probes it over `transport`, and returns the status map. Applies the
// footprint filter from `scope` (nullptr probes everything) and records the
// `sample` and `probe` spans with one probe.host child per contacted
// target (M113 counting the skipped ones).
StatusByAddress GatherStatusOver(const ServerConfig& config, const Directory& directory,
                                 ProbeTransport& transport, Rng& rng, std::mutex& rng_mutex,
                                 const lang::CompiledQuery& compiled,
                                 const lang::ScopeAnalysis* scope,
                                 std::vector<lang::VarComm>* sampled_vars, ProbeStats* stats,
                                 obs::TraceContext& trace);

// The `option static` path: every in-footprint pool host idle at nominal
// capacity, no probing. Emits the sample/probe spans with mode=static so
// the phase skeleton stays complete.
StatusByAddress SynthesizeStaticStatus(const Directory& directory,
                                       const std::vector<lang::VarComm>& variables,
                                       const lang::ScopeAnalysis* probe_scope,
                                       obs::TraceContext& trace);

// Admission bound check (ISSUE 7): when the estimator vouches for the bound
// model (`bound_fraction` ≥ 0), a chain group whose sound lower bound
// exceeds its deadline rejects the query before any search. Returns true to
// proceed; returns false and fills *error on rejection. Emits the `bound`
// span and counts M108/M109.
bool CheckAdmissionBound(const ServerConfig& config, const lang::CompiledQuery& compiled,
                         const StatusByAddress& status, double bound_fraction,
                         obs::TraceContext& trace, Error* error);

// The exhaustive/packet search behind `option packet` queries: computes the
// optimisation plan once, runs one engine slice per `slice_count` (all
// through `estimator`, sequentially — each slice parallelizes internally
// per `config.eval_threads`), and merges by (makespan, winner_rank). Walk
// counters are summed across slices; plan-derived counters are taken once.
// Emits the `bind` span with the search and per-pass attributes and counts
// M105. Every slice_count yields the slice_count = 1 result, bit for bit.
Result<ExhaustiveResult> RunExhaustiveSliced(const ServerConfig& config,
                                             const lang::Query& query,
                                             const lang::CompiledQuery& compiled,
                                             const StatusByAddress& status,
                                             CompletionEstimator& estimator,
                                             double bound_fraction, int slice_count,
                                             obs::TraceContext& trace);

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_PIPELINE_H_
