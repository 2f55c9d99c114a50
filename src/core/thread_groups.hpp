// Thread grouping by write-locality similarity — the paper's stated future
// work (Section III-C): "To reduce the overhead, we could group threads with
// similar write locality and calculate one MRC for each group."
//
// Implementation: each thread contributes its sampled MRC as a feature
// vector; agglomerative clustering merges the closest pair of groups while
// their average-linkage L1 distance stays below a tolerance; each group then
// gets one shared MRC (the member average) and one knee-selected size.
// Sampling cost scales with groups, not threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpu.hpp"
#include "core/knee.hpp"
#include "core/mrc.hpp"

namespace nvc::core {

struct ThreadGroupConfig {
  /// Maximum mean per-size |Δ miss ratio| for two groups to merge.
  double merge_tolerance = 0.05;
  KneeConfig knee;
};

struct ThreadGroups {
  /// group_of[t] = group index of thread t.
  std::vector<std::size_t> group_of;
  /// Per group: the shared MRC and the knee-selected cache size.
  std::vector<Mrc> group_mrc;
  std::vector<std::size_t> group_size;

  std::size_t num_groups() const noexcept { return group_mrc.size(); }
};

/// Average per-size absolute miss-ratio difference between two MRCs of the
/// same max_size (the clustering metric).
double mrc_distance(const Mrc& a, const Mrc& b);

/// Cluster per-thread MRCs and select one cache size per group.
ThreadGroups group_threads(const std::vector<Mrc>& per_thread_mrcs,
                           const ThreadGroupConfig& config = {});

/// Topology-aware placement for the flush/analysis worker pools: where each
/// pool thread should run, and which pool thread serves each producer shard.
/// "Writes Hurt" (PAPERS.md) rewards few, batched issue streams per device,
/// so workers fill a NUMA node before spilling to the next (node-major)
/// rather than striping — a small pool stays co-located with the node whose
/// producers it serves.
struct ShardPlacement {
  /// worker_cpu[w] = preferred logical CPU of pool thread w (node-major,
  /// wrapping when the pool exceeds the machine). Pinning is opt-in
  /// (NVC_PIN); unpinned pools still use the map's node assignment.
  std::vector<int> worker_cpu;
  /// worker_node[w] = NUMA node of worker_cpu[w].
  std::vector<int> worker_node;
};

/// Place `workers` pool threads onto the probed topology (see above).
/// Always returns `workers` entries; on a flat machine every node is 0.
ShardPlacement place_workers(std::size_t workers, const CpuTopology& topo);

/// Home assignment for a known shard count: block-distribute `shards`
/// producer shards over `workers` homes (shard s -> s*workers/shards), so
/// consecutive shards — adjacent producers, typically co-located — share a
/// home worker and its node. Dynamic channel arrival (unknown final count)
/// uses round-robin instead; this is the static variant used when the
/// producer set is known up front (benchmarks, tests, fig5).
std::vector<std::size_t> place_shards(std::size_t shards, std::size_t workers);

inline constexpr std::size_t kMaxPoolWorkers = 64;

/// The worker-pool knobs, read nowhere else and afresh on every call, so a
/// pool or channel sees the environment of its construction. Pool sizes
/// (NVC_FLUSH_WORKERS, NVC_ANALYSIS_WORKERS) default to 1, the original
/// single worker; 0 = one per NUMA node ("Writes Hurt" rewards few batched
/// issue streams per device, and one per node keeps write-backs local);
/// clamped to [1, kMaxPoolWorkers].
struct PoolSettings {
  std::size_t flush_workers = 1;
  std::size_t analysis_workers = 1;
  bool pin = false;                    // NVC_PIN=1: pin to the placed CPU
  std::uint64_t drain_timeout_ns = 0;  // NVC_FLUSH_DRAIN_TIMEOUT_MS; 0 = off
};
/// Throws std::invalid_argument ("NVC_X=value: want ...") for a malformed
/// value, like RuntimeConfig::from_env (which calls this to check them).
PoolSettings pool_settings_from_env();

}  // namespace nvc::core
