// Shared plumbing for the per-table / per-figure benchmark binaries.
//
// Two measurement substrates (see DESIGN.md):
//  * live wall-clock: workloads run through the FASE runtime against a
//    tmpfs-backed region with real clflush* instructions;
//  * trace + cost model: workloads are recorded once per thread count and
//    replayed through the policies on hwsim cores (deterministic; used for
//    the thread-scaling figures since this host exposes one core).
//
// Every binary honors NVC_FULL=1 (paper-scale inputs), the bench-scale
// knobs read through bench_knob (NVC_THREADS, NVC_SEED, NVC_REPEATS, …) and
// the runtime knobs of RuntimeConfig::from_env, e.g. NVC_FLUSH
// (clflush|clflushopt|clwb|sim|count); a malformed knob of either kind
// exits 2.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/policy.hpp"
#include "core/sampler.hpp"
#include "hwsim/contention.hpp"
#include "mdb/mtest.hpp"
#include "runtime/runtime.hpp"
#include "workloads/replay.hpp"
#include "workloads/workload.hpp"

namespace nvc::bench {

/// Paper Table III order, including mdb.
std::vector<std::string> all_workloads();

/// SPLASH2-style subset used by Table I / Fig. 5 / Fig. 6 / Table IV.
std::vector<std::string> splash_workloads();

/// Instantiate any workload, including "mdb".
std::unique_ptr<workloads::Workload> make_any_workload(
    const std::string& name);

/// Bench-scale knob `name` (README knob table), `fallback` when unset or
/// empty. A value that is not an integer in the knob's range ends the run
/// with exit 2 and `NAME=value: want an integer in [lo, hi]`, as
/// RuntimeConfig::from_env refuses runtime knobs. print_banner checks
/// every bench-scale knob before a table starts.
std::uint64_t bench_knob(const char* name, std::uint64_t fallback);

/// Default workload parameters from the environment.
workloads::WorkloadParams params_from_env(std::size_t threads = 1);

/// Record the per-thread write trace of a workload (trace mode).
workloads::TraceApi record_trace(const std::string& name,
                                 const workloads::WorkloadParams& params);

/// Offline analysis of a recorded trace: best cache size per paper rules
/// (thread 0's trace, as SC-offline profiles one representative thread).
core::KneeResult offline_knee(const workloads::TraceApi& traces,
                              core::Mrc* mrc_out = nullptr);

struct LiveResult {
  double seconds = 0.0;
  runtime::RuntimeStats stats;
};

/// Run a workload live through the runtime and time it.
LiveResult run_live(const std::string& workload, core::PolicyKind kind,
                    const workloads::WorkloadParams& params,
                    const core::PolicyConfig& policy_config);

/// Best-of-n live timing (the paper averages five runs; quick mode uses 3).
LiveResult run_live_repeated(const std::string& workload,
                             core::PolicyKind kind,
                             const workloads::WorkloadParams& params,
                             const core::PolicyConfig& policy_config,
                             int repeats);

/// Policy config with the sampler scaled to the environment: the paper's
/// burst is 64M writes; quick runs sample 4K writes, full-scale runs 64K.
core::PolicyConfig default_policy_config();

/// Cost-model configuration for a given thread count (contention grows with
/// threads, per hwsim/contention.hpp).
workloads::SimConfig sim_config_for_threads(std::size_t threads,
                                            const core::PolicyConfig& pc);

/// Print the standard header every bench emits, with the effective config.
void print_banner(const std::string& experiment, const std::string& paper_ref);

}  // namespace nvc::bench
