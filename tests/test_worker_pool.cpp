// Worker pools (DESIGN.md §11): topology probe and placement, pool sizing
// from the environment, round-robin channel homes, N-producer × M-worker
// exactly-once retirement, and the work-stealing drain. Runs under the
// `tsan` and `pool` ctest labels — configure with -DNVC_SANITIZE=thread to
// check the cross-worker handoffs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "core/analyzer.hpp"
#include "core/flush_pipeline.hpp"
#include "core/thread_groups.hpp"
#include "support/sinks.hpp"

namespace nvc::core {
namespace {

using nvc::testing::ForwardSink;
using nvc::testing::RecordingSink;

/// First flush parks until released — wedges whichever consumer pops it
/// while it holds the channel's consumer lock.
struct GateSink final : FlushSink {
  explicit GateSink(FlushSink* t) : target(t) {}
  bool flush_line(LineAddr line) override {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return target->flush_line(line);
  }
  void drain() override {}
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  FlushSink* target;
};

bool wait_until(const std::function<bool()>& done,
                std::chrono::seconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// --- topology + placement ---------------------------------------------------

TEST(CpuTopologyProbe, CachedProbeIsSane) {
  const CpuTopology& topo = cpu_topology();
  EXPECT_GE(topo.logical_cpus, 1);
  EXPECT_GE(topo.numa_nodes, 1);
  ASSERT_EQ(topo.cpu_node.size(), static_cast<std::size_t>(topo.logical_cpus));
  for (int node : topo.cpu_node) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, topo.numa_nodes);
  }
  EXPECT_EQ(topo.can_spin(), topo.logical_cpus > 1);
  // Same cached object every call — the probe must not re-run per query.
  EXPECT_EQ(&cpu_topology(), &topo);
}

TEST(Placement, WorkersFillNodesInNodeMajorOrder) {
  CpuTopology topo;
  topo.logical_cpus = 8;
  topo.numa_nodes = 2;
  topo.cpu_node = {0, 0, 1, 1, 0, 0, 1, 1};  // interleaved numbering
  const ShardPlacement p = place_workers(4, topo);
  ASSERT_EQ(p.worker_cpu.size(), 4u);
  // Node 0 owns cpus {0,1,4,5}; a 4-worker pool stays entirely on node 0.
  EXPECT_EQ(p.worker_cpu, (std::vector<int>{0, 1, 4, 5}));
  EXPECT_EQ(p.worker_node, (std::vector<int>{0, 0, 0, 0}));
}

TEST(Placement, PoolLargerThanMachineWraps) {
  CpuTopology topo;
  topo.logical_cpus = 2;
  topo.numa_nodes = 1;
  topo.cpu_node = {0, 0};
  const ShardPlacement p = place_workers(5, topo);
  EXPECT_EQ(p.worker_cpu, (std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(Placement, ShardsBlockDistributeOverWorkers) {
  EXPECT_EQ(place_shards(8, 2),
            (std::vector<std::size_t>{0, 0, 0, 0, 1, 1, 1, 1}));
  EXPECT_EQ(place_shards(5, 2), (std::vector<std::size_t>{0, 0, 0, 1, 1}));
  // Homes are monotone and in range even when shards < workers.
  const auto sparse = place_shards(3, 8);
  EXPECT_TRUE(std::is_sorted(sparse.begin(), sparse.end()));
  for (std::size_t h : sparse) EXPECT_LT(h, 8u);
}

// --- pool sizing ------------------------------------------------------------

TEST(FlushPool, EnvironmentSizesDefaultConstructedPool) {
  ASSERT_EQ(setenv("NVC_FLUSH_WORKERS", "3", 1), 0);
  {
    FlushWorker pool;
    EXPECT_EQ(pool.pool_size(), 3u);
  }
  // 0 = auto: one worker per NUMA node.
  ASSERT_EQ(setenv("NVC_FLUSH_WORKERS", "0", 1), 0);
  {
    FlushWorker pool;
    EXPECT_EQ(pool.pool_size(),
              static_cast<std::size_t>(cpu_topology().numa_nodes));
  }
  ASSERT_EQ(unsetenv("NVC_FLUSH_WORKERS"), 0);
  FlushWorker pool;
  EXPECT_EQ(pool.pool_size(), 1u);  // default stays the single worker
}

TEST(FlushPool, ChannelsHomeRoundRobin) {
  FlushWorker pool(3);
  RecordingSink record;
  std::vector<std::shared_ptr<FlushChannel>> channels;
  for (int i = 0; i < 5; ++i) {
    channels.push_back(
        pool.open_channel(std::make_unique<ForwardSink>(&record), 16));
  }
  EXPECT_EQ(channels[0]->home(), 0u);
  EXPECT_EQ(channels[1]->home(), 1u);
  EXPECT_EQ(channels[2]->home(), 2u);
  EXPECT_EQ(channels[3]->home(), 0u);
  EXPECT_EQ(channels[4]->home(), 1u);
  for (auto& ch : channels) ch->close();
}

// --- exactly-once under N producers × M workers ------------------------------

TEST(FlushPool, ProducersTimesWorkersRetireEveryLineExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kLinesEach = 512;
  FlushWorker pool(4);
  RecordingSink record;

  std::vector<std::thread> producers;
  std::vector<std::shared_ptr<FlushChannel>> channels(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    channels[p] = pool.open_channel(std::make_unique<ForwardSink>(&record), 64);
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto& ch = *channels[p];
      for (std::uint64_t i = 0; i < kLinesEach; ++i) {
        const LineAddr tag = (static_cast<LineAddr>(p) << 32) | i;
        while (!ch.try_push(tag)) {
          ch.request_wake();  // ring full: let consumers catch up
          std::this_thread::yield();
        }
        if (ch.depth() >= 32) ch.request_wake();
      }
      ch.wait_drained();
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t p = 0; p < kProducers; ++p) {
    // Release-published stats: pushed == flushed visible from this thread.
    EXPECT_EQ(channels[p]->flushed(), kLinesEach);
    EXPECT_EQ(channels[p]->pushed(), kLinesEach);
    channels[p]->close();
  }
  auto lines = record.snapshot();
  ASSERT_EQ(lines.size(), kProducers * kLinesEach);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end())
      << "a line was flushed twice";
}

// --- work stealing ----------------------------------------------------------

TEST(FlushPool, IdleWorkerStealsWedgedHomesBacklog) {
  FlushWorker pool(2);
  RecordingSink record;
  auto gate_sink = std::make_unique<GateSink>(&record);
  GateSink* gate = gate_sink.get();
  auto wedged = pool.open_channel(std::move(gate_sink), 16);   // home 0
  auto other = pool.open_channel(std::make_unique<ForwardSink>(&record), 16);
  auto victim = pool.open_channel(std::make_unique<ForwardSink>(&record), 16);
  ASSERT_EQ(wedged->home(), 0u);
  ASSERT_EQ(other->home(), 1u);
  ASSERT_EQ(victim->home(), 0u);

  // Wedge a worker inside the gated flush. Usually that is worker 0, which
  // the poke wakes, but worker 1's tick sweep may steal the line first.
  // Either way exactly one worker is wedged; which one is read back from
  // the channel once the gate opens.
  ASSERT_TRUE(wedged->try_push(1));
  wedged->request_wake();
  ASSERT_TRUE(wait_until(
      [&] { return gate->entered.load(std::memory_order_acquire); }))
      << "no worker picked up the gated line";

  // Backlog on a channel homed on each worker; nobody drains them on the
  // producer side, so the wedged worker's share can only be retired by the
  // other worker's steal sweep.
  constexpr std::uint64_t kStolen = 8;
  for (LineAddr l = 100; l < 100 + kStolen; ++l) {
    ASSERT_TRUE(victim->try_push(l));
    ASSERT_TRUE(other->try_push(l + 100));
  }
  victim->request_wake();
  other->request_wake();
  ASSERT_TRUE(wait_until([&] {
    return victim->flushed() == kStolen && other->flushed() == kStolen;
  })) << "idle worker never stole the wedged home's backlog";
  // A sweep publishes its steal count after its whole steal pass, i.e. a
  // little after the last stolen line's flushed count.
  EXPECT_TRUE(wait_until([&] { return pool.steals() >= kStolen; }))
      << "steals: " << pool.steals();

  gate->release.store(true, std::memory_order_release);
  wedged->wait_drained();
  EXPECT_EQ(wedged->flushed(), 1u);
  const std::uint32_t stuck = wedged->last_flush_worker();
  ASSERT_LT(stuck, 2u);
  const auto& stolen_from = stuck == 0 ? victim : other;
  EXPECT_EQ(stolen_from->last_flush_worker(), 1u - stuck);
  for (auto* ch : {&other, &victim}) {
    (*ch)->wait_drained();
    (*ch)->close();
  }
  wedged->close();
}

TEST(FlushPool, SingleWorkerPoolNeverSteals) {
  FlushWorker pool(1);
  RecordingSink record;
  auto a = pool.open_channel(std::make_unique<ForwardSink>(&record), 16);
  auto b = pool.open_channel(std::make_unique<ForwardSink>(&record), 16);
  EXPECT_EQ(a->home(), 0u);
  EXPECT_EQ(b->home(), 0u);  // pool of one: every channel homes there
  for (LineAddr l = 1; l <= 8; ++l) {
    ASSERT_TRUE(a->try_push(l));
    ASSERT_TRUE(b->try_push(l + 100));
  }
  a->wait_drained();
  b->wait_drained();
  EXPECT_EQ(pool.steals(), 0u);
  a->close();
  b->close();
}

// --- idle hook ----------------------------------------------------------------

struct CountingIdleTask final : IdleTask {
  bool idle_step() override {
    steps.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::atomic<std::uint64_t> steps{0};
};

TEST(FlushPool, IdleTaskRunsBetweenSmallUnpokedCommits) {
  // The queue-hardened shape: back-to-back tiny FASEs, each pushing two
  // lines, computing for a couple of microseconds and draining, never
  // reaching the watermark. Without a poke the worker must not spin on the
  // rings (a spinning worker finds those lines on nearly every poll and so
  // never counts as idle); it goes idle after each tick sweep and the idle
  // hook (the scrubber's slot) keeps getting steps.
  FlushWorker pool(1);
  auto task = std::make_shared<CountingIdleTask>();
  pool.register_idle_task(task);
  RecordingSink record;
  auto ch = pool.open_channel(std::make_unique<ForwardSink>(&record), 64);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  LineAddr next = 1;
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(ch->try_push(next++));
    ASSERT_TRUE(ch->try_push(next++));
    const auto compute_until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(2);
    while (std::chrono::steady_clock::now() < compute_until) {
    }
    ch->wait_drained();
  }
  // ~1500 doze ticks fit in the run. An idle-after-tick worker goes idle on
  // most of them; a worker spinning on the unpoked ring only when a 50 us
  // spin window finds nothing, i.e. when the producer is off its CPU.
  EXPECT_GE(task->steps.load(std::memory_order_relaxed), 150u)
      << "the worker rarely went idle while the producer ran";
  EXPECT_EQ(ch->flushed(), next - 1);
  ch->close();
}

TEST(FlushPool, ManualChannelInvisibleToEveryPoolSize) {
  FlushWorker pool(4);
  RecordingSink record;
  auto manual =
      pool.open_manual_channel(std::make_unique<ForwardSink>(&record), 16);
  for (LineAddr l = 1; l <= 4; ++l) ASSERT_TRUE(manual->try_push(l));
  manual->request_wake();  // no-op by contract
  pool.poke();             // even an explicit poke must not reach it
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manual->flushed(), 0u) << "a pool worker swept a manual channel";
  // The deterministic scheduler's pump attributes to a *virtual* worker.
  EXPECT_TRUE(manual->pump_one(2));
  EXPECT_EQ(manual->flushed(), 1u);
  EXPECT_EQ(manual->last_flush_worker(), 2u);
  manual->wait_drained();
  manual->close();
}

// --- analysis pool ----------------------------------------------------------

std::vector<LineAddr> dense_burst(std::size_t length, LineAddr working_set) {
  std::vector<LineAddr> trace(length);
  for (std::size_t i = 0; i < length; ++i) {
    trace[i] = static_cast<LineAddr>(i) % working_set;
  }
  return trace;
}

TEST(AnalysisPool, EnvironmentSizesDefaultConstructedPool) {
  ASSERT_EQ(setenv("NVC_ANALYSIS_WORKERS", "2", 1), 0);
  {
    AnalysisWorker pool;
    EXPECT_EQ(pool.pool_size(), 2u);
  }
  ASSERT_EQ(unsetenv("NVC_ANALYSIS_WORKERS"), 0);
  AnalysisWorker pool;
  EXPECT_EQ(pool.pool_size(), 1u);
}

TEST(AnalysisPool, PooledChannelsCompleteEverySubmission) {
  AnalysisWorker pool(2);
  auto ch0 = pool.open_channel();
  auto ch1 = pool.open_channel();
  EXPECT_EQ(ch0->home(), 0u);
  EXPECT_EQ(ch1->home(), 1u);

  constexpr int kJobs = 6;
  std::thread p0([&] {
    for (int j = 0; j < kJobs; ++j) {
      auto burst = dense_burst(256, 16);
      while (!ch0->submit(std::move(burst), KneeConfig{})) {
        std::this_thread::yield();
      }
    }
    ch0->drain();
  });
  std::thread p1([&] {
    for (int j = 0; j < kJobs; ++j) {
      auto burst = dense_burst(256, 8);
      while (!ch1->submit(std::move(burst), KneeConfig{})) {
        std::this_thread::yield();
      }
    }
    ch1->drain();
  });
  p0.join();
  p1.join();

  EXPECT_TRUE(ch0->idle());
  EXPECT_TRUE(ch1->idle());
  EXPECT_EQ(ch0->completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(ch1->completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_TRUE(ch0->take_result().has_value());
  EXPECT_TRUE(ch1->take_result().has_value());
  EXPECT_EQ(pool.analyses_run(), static_cast<std::uint64_t>(2 * kJobs));
  ch0->close();
  ch1->close();
}

TEST(AnalysisPool, ManualPumpRecordsVirtualWorker) {
  AnalysisWorker pool(4);
  auto manual = pool.open_manual_channel();
  auto burst = dense_burst(128, 8);
  ASSERT_TRUE(manual->submit(std::move(burst), KneeConfig{}));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manual->completed(), 0u) << "a pool worker served a manual channel";
  EXPECT_TRUE(manual->pump_one(3));
  EXPECT_EQ(manual->completed(), 1u);
  EXPECT_EQ(manual->last_analysis_worker(), 3u);
  manual->close();
}

}  // namespace
}  // namespace nvc::core
