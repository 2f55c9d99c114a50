// The flush-behind pipeline: data-line write-backs off the application
// thread (FliT-style persistence delegation; "Writes Hurt"-style batching).
//
// PR 1 moved burst *analysis* off the critical path; this module does the
// same for the data-line *write-backs* themselves. A policy that evicts a
// line mid-FASE no longer stalls for one flush latency — it pushes the line
// address into a per-thread SPSC ring and keeps computing:
//
//   app thread                          flush worker (std::jthread)
//   ----------                          ---------------------------
//   evict line L                        (dozes; wakes on a timer tick or a
//   push L into FlushChannel, O(1) ---> high-watermark poke)
//   keep executing the FASE             pop L, sink->flush_line(L)
//   ...                                 publish completed count (release)
//   FASE end: drain() = wait until
//   completed == pushed, then fence
//
// The worker spin-polls its rings only after a poke, i.e. during an
// eviction storm. Between storms a tick wake sweeps once and goes idle:
// handing a line or two per FASE to another core costs more than the
// producer's own drain writing them back ("Writes Hurt"; FliT's delegation
// caveat), and a worker polling the rings would contend for the consumer
// lock with the producer's drain on every FASE commit.
//
// drain() is a *completion ticket*: the producer snapshots its own push
// count and waits for the worker's completed count to cover it. Crucially
// the waiting producer **helps**: the consumer side of the ring is guarded
// by a tiny spinlock, so whichever side gets there first pops and flushes.
// On a single-core host (or whenever the worker is descheduled) drain()
// degrades gracefully to "the producer writes back its own lines" instead
// of blocking on a context switch — the pipeline is never slower than the
// synchronous path by more than a ring push per line.
//
// Crash-consistency is preserved by construction (DESIGN.md §8): the
// LogOrderedSink decorator wraps *around* AsyncFlushSink, so the undo-log
// sync for a line happens on the application thread at **enqueue** time —
// before the line address ever enters the ring — and Runtime::fase_end
// writes the log commit record only after drain() returned, i.e. after
// every line of the FASE was handed to the backend and fenced.
//
// For the simulated backend the sink also carries a pipelined-device model
// (a write-pending-queue in the ADR sense): each accepted line occupies the
// device for `issue_ns` (bandwidth), durability lags the last issue by
// `latency_ns`. The sync path spins the full latency per line (clflush is
// strongly ordered — back-to-back flushes serialize); the async path only
// pays occupancy, which is what gives flush-behind its overlap win even
// where no second core exists to run the worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spsc_queue.hpp"
#include "common/types.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {

class FlushWorker;

/// One producer's flush-behind ring to the shared FlushWorker. The channel
/// *owns* the sink the worker flushes into, so a producer (and its runtime)
/// can be destroyed while the worker still holds a reference — nothing
/// dangles. Producer-side calls (try_push, wait_drained, pushed) must come
/// from a single thread; consume_one may race between worker and helping
/// producer and is serialized by the consumer lock.
class FlushChannel {
 public:
  /// Producer: hand one line to the pipeline. Wait-free; false when the
  /// ring is full (the caller falls back to a synchronous local flush so
  /// no line is ever dropped and total traffic matches sync mode).
  bool try_push(LineAddr line);

  /// Producer: completion ticket — wait until every line pushed so far has
  /// been written back through the sink. The waiter helps consume, so this
  /// makes progress even if the worker thread never runs. A watchdog
  /// (NVC_FLUSH_DRAIN_TIMEOUT_MS, read when the channel was opened; 0
  /// disables) fires when no line retires for that long — e.g. the worker
  /// wedged mid-flush while holding the consumer lock: it logs one
  /// diagnostic with the queue depth, bumps stall_warnings(), and keeps
  /// helping rather than aborting, so a recovered worker still completes
  /// the drain.
  void wait_drained();

  /// Times the drain watchdog fired (see wait_drained).
  std::uint64_t stall_warnings() const noexcept {
    return stall_warnings_.load(std::memory_order_relaxed);
  }

  /// Lines handed to the pipeline (producer-side count).
  std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }

  /// Lines written back through the channel's sink. Release-published by
  /// whichever thread flushed; safe to read from any thread — this is the
  /// authoritative flush count for stats aggregation (the worker-owned
  /// backend's plain counters are never read concurrently).
  std::uint64_t flushed() const noexcept {
    return flushed_.load(std::memory_order_acquire);
  }

  /// Approximate ring depth (producer-side view is exact).
  std::size_t depth() const noexcept { return queue_.size(); }
  std::size_t capacity() const noexcept { return queue_.capacity(); }

  /// Producer is going away; the worker prunes the channel once drained.
  /// Call only after wait_drained().
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  /// Pop and write back one queued line, if any (true when a line was
  /// flushed). Serialized against the worker and a helping drain by the
  /// consumer lock, so it is safe on any channel — but it exists for
  /// *manual* channels (open_manual_channel), where a deterministic test
  /// scheduler is the only consumer and interleavings replay from a seed.
  /// `worker` is the *virtual* worker identity the scheduler is simulating
  /// (recorded as last_flush_worker(); no pool thread is involved), so a
  /// fuzzer schedule can model an M-worker pool without one.
  bool pump_one(std::size_t worker = 0) {
    return consume_one(static_cast<std::uint32_t>(worker));
  }

  /// True for channels the background worker never sweeps (deterministic
  /// test channels; see FlushWorker::open_manual_channel).
  bool manual() const noexcept { return manual_; }

  /// Producer: wake the worker unless it has already been asked since its
  /// last sweep (high-watermark crossing). Amortizes the poke's mutex
  /// round-trip over a whole eviction burst, and opens the worker's spin
  /// window — the only wake that does.
  void request_wake();

  /// Thread that performed the most recent write-back (test hook: proves
  /// the pipeline can leave the application thread). Read when idle.
  std::thread::id last_flush_thread() const noexcept {
    return last_flush_thread_;
  }

  /// Consumer identity recorded by pump_one / the pool sweep when nothing
  /// pool-threaded did the work (helping producer in wait_drained, or a
  /// steal by a non-home worker reported as the stealing worker's index).
  static constexpr std::uint32_t kHelperConsumer = 0xffffffffu;

  /// Pool-worker index (or kHelperConsumer) that performed the most recent
  /// write-back. Test hook; read when idle.
  std::uint32_t last_flush_worker() const noexcept {
    return last_flush_worker_;
  }

  /// Home pool worker serving this channel (0 for manual channels).
  std::uint32_t home() const noexcept { return home_; }

 private:
  friend class FlushWorker;

  FlushChannel(FlushWorker* worker, std::unique_ptr<FlushSink> sink,
               std::size_t capacity, bool manual);

  /// Pop and flush one line if any is ready. Returns false when the ring
  /// was empty (checked read-only, before touching the consumer lock) or
  /// another thread holds the consumer side right now (it is making
  /// progress on our behalf either way). `consumer` is recorded as
  /// last_flush_worker() on success.
  bool consume_one(std::uint32_t consumer = kHelperConsumer);

  FlushWorker* worker_;
  std::unique_ptr<FlushSink> sink_;  // worker-side write-back target
  SpscQueue<LineAddr> queue_;
  /// Never swept by the worker thread; consumed only by pump_one() and the
  /// helping drain. request_wake() is a no-op so a watermark crossing
  /// cannot put the worker thread into the interleaving.
  const bool manual_ = false;
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> flushed_{0};
  std::atomic<bool> closed_{false};
  /// Drain-watchdog state: timeout captured from the environment at open
  /// time (per-channel, so tests can vary it), warning count relaxed — it
  /// is a diagnostic, not a synchronization point.
  std::uint64_t drain_timeout_ns_ = 0;
  std::atomic<std::uint64_t> stall_warnings_{0};
  /// Set by the producer when it pokes the worker at the high watermark;
  /// cleared by the worker's sweep. Keeps poke() amortized O(1) per burst
  /// of evictions instead of one mutex round-trip per push.
  std::atomic<bool> wake_requested_{false};
  /// Serializes the consumer side (worker sweep, stealing worker, helping
  /// producer). Held only around one pop + one flush_line; uncontended cost
  /// is a single RMW each way.
  std::atomic_flag consume_lock_ = ATOMIC_FLAG_INIT;
  std::thread::id last_flush_thread_{};  // written under consume_lock_
  std::uint32_t last_flush_worker_ = kHelperConsumer;  // under consume_lock_
  /// Index of the pool worker that sweeps this channel (round-robin over
  /// the pool at open time; constant afterwards). Manual channels keep 0
  /// but are never registered with any worker.
  std::uint32_t home_ = 0;
};

/// Background work a pool worker runs when it goes idle: after every tick
/// wake's single sweep, and after a poke's spin window found the home rings
/// empty (the online scrubber piggybacks here, DESIGN.md §14). One bounded
/// slice per call; return true when the step did useful work, false when
/// there is nothing to do.
/// Registered as weak_ptr so a task simply expiring (its owner died) is the
/// deregistration protocol — no unregister call, no dangling task.
class IdleTask {
 public:
  virtual ~IdleTask() = default;
  virtual bool idle_step() = 0;
};

/// The shared background flusher, generalized to a sized pool: N jthreads
/// (NVC_FLUSH_WORKERS, default 1 = the original single-worker behavior),
/// each the *home* of a subset of channels assigned round-robin at open
/// time. Scheduling is doze-based — each worker sleeps in ~200 µs ticks and
/// sweeps its home channels once per wake; producers only pay a
/// condition-variable poke to the home worker when a ring crosses its high
/// watermark (sustained eviction storm), and only that poke makes the worker
/// keep polling its rings for a spin window afterwards. No per-push notify:
/// a futex wake costs more than the flush it would hide, and drain()'s
/// helping consumer already bounds the worst-case latency.
///
/// Work stealing: a worker whose own sweep came up empty helps pop any
/// other channel's ring, and a producer blocked in wait_drained() while the
/// consumer lock is held steals from sibling channels rather than just
/// yielding. Both go through the same per-channel consumer spinlock as the
/// home worker, so exactly-once retirement and per-channel FIFO order are
/// preserved no matter who pops (DESIGN.md §11 for the full argument).
/// Manual channels are invisible to every pool thread, so pool size cannot
/// perturb a deterministic fuzzer schedule.
class FlushWorker {
 public:
  /// Pool size from NVC_FLUSH_WORKERS (default 1; 0 = one per NUMA node;
  /// clamped to [1, kMaxPool]). NVC_PIN=1 pins each worker to its
  /// topology-placed CPU (see core::place_workers).
  FlushWorker();
  /// Fixed pool size (tests / benchmarks); env is ignored except NVC_PIN.
  explicit FlushWorker(std::size_t pool_size);
  ~FlushWorker();

  FlushWorker(const FlushWorker&) = delete;
  FlushWorker& operator=(const FlushWorker&) = delete;

  /// The process-wide pool used by async runtimes (sized from the
  /// environment at first use).
  static FlushWorker& shared();

  /// Open a producer channel homed on the next pool worker (round-robin).
  /// The channel owns `sink`; `capacity` must be a power of two.
  std::shared_ptr<FlushChannel> open_channel(std::unique_ptr<FlushSink> sink,
                                             std::size_t capacity);

  /// Open a channel NO pool worker will ever sweep: write-backs happen only
  /// when the owner calls FlushChannel::pump_one() or a drain helps. The
  /// crash fuzzer uses this to explore worker/application interleavings
  /// deterministically from a seed (a virtual scheduler decides when the
  /// "worker" runs) instead of depending on real thread scheduling.
  std::shared_ptr<FlushChannel> open_manual_channel(
      std::unique_ptr<FlushSink> sink, std::size_t capacity);

  /// Wake every pool worker now (tests, shutdown nudge). Watermark pokes
  /// from producers go to the channel's home worker only.
  void poke();

  /// Register background work for idle workers (see IdleTask). Tasks run on
  /// pool threads only — manual channels and their deterministic schedules
  /// never see them. Expired tasks are pruned lazily.
  void register_idle_task(std::weak_ptr<IdleTask> task);

  /// Idle-task invocations that reported useful work (diagnostic).
  std::uint64_t idle_steps() const noexcept {
    return idle_steps_.load(std::memory_order_relaxed);
  }

  /// Number of pool threads (>= 1).
  std::size_t pool_size() const noexcept { return workers_.size(); }

  /// Write-backs performed by pool threads (home sweeps and steals, not
  /// helping producers; test/diagnostic hook).
  std::uint64_t worker_flushes() const noexcept {
    return worker_flushes_.load(std::memory_order_relaxed);
  }

  /// Lines retired by a consumer other than the channel's home worker: an
  /// idle worker's steal sweep or a drain()-blocked producer helping a
  /// sibling channel. Diagnostic; proves the stealing path engaged.
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kDefaultQueueDepth = 1024;
  static constexpr std::size_t kMaxPool = 64;

 private:
  friend class FlushChannel;

  struct Worker {
    std::condition_variable_any cv;
    bool poked = false;         // guarded by FlushWorker::mutex_
    std::jthread thread;        // started after every Worker exists
  };

  void start();
  void poke_home(std::size_t w);
  /// Run one registered idle task's step (round-robin), pruning expired
  /// registrations. Called off-mutex by a worker whose sweep came up empty;
  /// returns what the task's idle_step returned (false = nothing ran).
  bool run_idle_task();
  /// Steal one line from any registered channel other than `self` (used by
  /// a producer blocked in wait_drained). Returns true when a line was
  /// retired somewhere.
  bool steal_one(const FlushChannel* self);
  void run(std::stop_token st, std::size_t w);
  std::size_t sweep(std::size_t w,
                    const std::vector<std::shared_ptr<FlushChannel>>& channels);

  const bool pin_;
  std::mutex mutex_;  // guards channels_, next_home_ and Worker::poked
  std::vector<std::shared_ptr<FlushChannel>> channels_;
  std::size_t next_home_ = 0;
  std::vector<int> worker_cpu_;  // placement map, fixed at construction
  std::atomic<std::uint64_t> worker_flushes_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::vector<std::weak_ptr<IdleTask>> idle_tasks_;  // guarded by mutex_
  std::size_t idle_cursor_ = 0;                      // guarded by mutex_
  std::atomic<std::uint64_t> idle_steps_{0};
  /// Last member: jthreads stop and join before the rest is destroyed.
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Pipelined-device timing model for AsyncFlushSink, active only for the
/// simulated backend (zeros = model off; real hardware self-times).
/// `issue_ns` is the per-line device occupancy (bandwidth bound),
/// `latency_ns` the full write latency; durability of the last accepted
/// line lags its issue by latency_ns - issue_ns.
struct FlushDeviceModel {
  std::uint32_t latency_ns = 0;
  std::uint32_t issue_ns = 0;
};

/// FlushSink decorator that turns flush_line() into a ring push and drain()
/// into a completion-ticket wait. `local` is the producer-owned synchronous
/// sink used (a) as overflow fallback when the ring is full and (b) for the
/// fence accounting at drain — fences stay on the application thread, so
/// per-thread fence counters never race.
class AsyncFlushSink final : public FlushSink {
 public:
  using DeviceModel = FlushDeviceModel;

  AsyncFlushSink(std::shared_ptr<FlushChannel> channel, FlushSink* local,
                 DeviceModel model = DeviceModel());
  ~AsyncFlushSink() override;

  bool flush_line(LineAddr line) override;
  void drain() override;

  const FlushChannel& channel() const noexcept { return *channel_; }

  /// The write-after-enqueue hazard check (DESIGN.md §8): true when `line`
  /// may still be queued, i.e. a write-back of it — carrying bytes of any
  /// store the caller is about to make — can still happen. A caller pairing
  /// the store with an undo record must make that record durable *before*
  /// writing the data (the ring is FIFO, so "still queued" is exactly
  /// last-push-ticket > lines-flushed; a stale read errs conservatively).
  bool maybe_inflight(LineAddr line) const noexcept;

  /// Lines that overflowed to the synchronous local sink (ring full).
  std::uint64_t overflow_flushes() const noexcept { return overflows_; }

 private:
  std::uint64_t now_ns() const noexcept;

  std::shared_ptr<FlushChannel> channel_;
  FlushSink* local_;
  DeviceModel model_;
  std::size_t watermark_;
  std::uint64_t overflows_ = 0;
  /// FIFO shadow of the ring since the last drain: entry i was push number
  /// pending_base_ + i + 1, so the still-queued suffix starts at index
  /// flushed() - pending_base_. Appending is a vector push_back (the per-
  /// line cost the eviction path pays); the hazard query scans only that
  /// suffix, and the common "nothing pending" case is two counter loads.
  /// Producer-only; cleared at drain(), when every entry is known flushed.
  std::vector<LineAddr> pending_lines_;
  std::uint64_t pending_base_ = 0;
  /// Modeled device timeline: steady-clock ns at which the simulated device
  /// finishes accepting everything issued so far. Producer-only state.
  std::uint64_t device_free_ns_ = 0;
  /// True between the first push after a drain and the next drain. The
  /// clock is read once per burst (at its first push) rather than per line;
  /// a mid-burst pause the model consequently misses only makes drain()
  /// wait longer than strictly needed, never shorter than the device would.
  bool burst_active_ = false;
};

}  // namespace nvc::core
