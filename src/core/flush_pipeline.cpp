#include "core/flush_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/assert.hpp"
#include "common/cpu.hpp"
#include "common/env.hpp"
#include "core/thread_groups.hpp"

namespace nvc::core {

namespace {

inline void cpu_pause() noexcept {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

/// Worker doze tick. Long enough that an idle worker costs nothing
/// measurable (5k wakes/s upper bound), short enough that a ring filled
/// between FASE commits is swept before it backs up.
constexpr auto kDozeTick = std::chrono::microseconds(200);

/// After a watermark poke (an eviction storm), keep polling the home rings
/// this long past the last line found before dozing again — a storm
/// delivers lines faster than cv wakeups can. Tick wakes never spin:
/// between storms a poll would snatch each line as it is pushed, contending
/// for the consumer lock with the producer's drain, which retires a FASE's
/// few lines cheaper than the handoff. Only used when a spare hardware
/// thread exists; on a single-core host spinning would steal the producer's
/// timeslice.
constexpr auto kSpinWindow = std::chrono::microseconds(50);

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pool size from the environment: default 1 (the original single-worker
/// pipeline, bit-for-bit), 0 = auto (one worker per NUMA node — "Writes
/// Hurt" rewards few batched issue streams per device, and one stream per
/// node keeps write-backs node-local), clamped to [1, kMaxPool].
std::size_t pool_size_from_env(const char* name) {
  const std::int64_t requested = env_int(name, 1);
  if (requested <= 0) {
    return static_cast<std::size_t>(std::max(1, cpu_topology().numa_nodes));
  }
  return static_cast<std::size_t>(std::min<std::int64_t>(
      requested, static_cast<std::int64_t>(FlushWorker::kMaxPool)));
}

}  // namespace

// --- FlushChannel -----------------------------------------------------------

FlushChannel::FlushChannel(FlushWorker* worker, std::unique_ptr<FlushSink> sink,
                           std::size_t capacity, bool manual)
    : worker_(worker),
      sink_(std::move(sink)),
      queue_(capacity),
      manual_(manual),
      drain_timeout_ns_(static_cast<std::uint64_t>(std::max<std::int64_t>(
                            0, env_int("NVC_FLUSH_DRAIN_TIMEOUT_MS", 0))) *
                        1000000ULL) {}

bool FlushChannel::try_push(LineAddr line) {
  if (!queue_.try_push(std::move(line))) return false;
  pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  return true;
}

bool FlushChannel::consume_one(std::uint32_t consumer) {
  // Read-only probe first: polling an empty ring takes no lock.
  if (queue_.empty()) return false;
  if (consume_lock_.test_and_set(std::memory_order_acquire)) {
    return false;  // the other side holds the lock and is making progress
  }
  const std::optional<LineAddr> line = queue_.try_pop();
  if (line.has_value()) {
    // flushed_ counts lines *retired from the ring*, success or not: the
    // drain ticket must complete even when the media rejects a line. A
    // false outcome has already been accounted by the fault-tolerant sink
    // below (quarantine + FaultStats), whose release stores this counter's
    // release publish sequences after — a drain()er that sees the count
    // also sees the quarantine.
    sink_->flush_line(*line);
    last_flush_thread_ = std::this_thread::get_id();
    last_flush_worker_ = consumer;
    flushed_.fetch_add(1, std::memory_order_release);
  }
  consume_lock_.clear(std::memory_order_release);
  return line.has_value();
}

void FlushChannel::request_wake() {
  if (manual_) return;  // no worker serves this channel
  if (!wake_requested_.exchange(true, std::memory_order_relaxed)) {
    worker_->poke_home(home_);
  }
}

void FlushChannel::wait_drained() {
  const std::uint64_t target = pushed_.load(std::memory_order_relaxed);
  // Watchdog arm: "progress" is the retired-line counter moving. The only
  // way this loop fails to make progress itself is the consumer lock being
  // held continuously by a wedged worker (e.g. a backend stuck in a
  // latency spike or a debugger) — detect that, diagnose once per timeout
  // period, and keep helping so a recovered worker still completes us.
  std::uint64_t last_flushed = flushed_.load(std::memory_order_acquire);
  std::uint64_t stall_since_ns = 0;
  while (last_flushed < target) {
    // Help: pop and flush on this thread rather than waiting for the worker
    // to be scheduled. The whole backlog drains under one lock hold — one
    // acquire/release and one counter publish per drain, not per line.
    if (!consume_lock_.test_and_set(std::memory_order_acquire)) {
      std::uint64_t done = 0;
      while (std::optional<LineAddr> line = queue_.try_pop()) {
        sink_->flush_line(*line);
        ++done;
      }
      if (done != 0) {
        last_flush_thread_ = std::this_thread::get_id();
        last_flush_worker_ = kHelperConsumer;
        flushed_.fetch_add(done, std::memory_order_release);
      }
      consume_lock_.clear(std::memory_order_release);
      if (done == 0) {
        // Our ring is empty but the ticket is short: a consumer is mid-
        // flush on our last line. In a pool, spend the wait stealing a
        // sibling channel's backlog instead of just yielding (manual
        // channels never steal — a fuzzer schedule must not leak work
        // across channels it did not script).
        if (manual_ || worker_ == nullptr || worker_->pool_size() <= 1 ||
            !worker_->steal_one(this)) {
          std::this_thread::yield();
        }
      }
    } else {
      // A worker holds the consumer side and is mid-flush on our behalf;
      // yield so a descheduled worker (single-core host) gets the timeslice
      // it needs to finish.
      std::this_thread::yield();
    }
    const std::uint64_t now_flushed = flushed_.load(std::memory_order_acquire);
    if (now_flushed != last_flushed) {
      last_flushed = now_flushed;
      stall_since_ns = 0;
      continue;
    }
    if (drain_timeout_ns_ == 0) continue;
    const std::uint64_t now = steady_now_ns();
    if (stall_since_ns == 0) {
      stall_since_ns = now;
    } else if (now - stall_since_ns >= drain_timeout_ns_) {
      stall_warnings_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(
          stderr,
          "[nvc] flush drain watchdog: no write-back progress for %llu ms "
          "(queue depth=%zu pushed=%llu flushed=%llu); continuing as "
          "helping consumer\n",
          static_cast<unsigned long long>(drain_timeout_ns_ / 1000000ULL),
          queue_.size(), static_cast<unsigned long long>(target),
          static_cast<unsigned long long>(now_flushed));
      stall_since_ns = now;  // re-arm: one diagnostic per timeout period
    }
  }
}

// --- FlushWorker ------------------------------------------------------------

FlushWorker::FlushWorker() : FlushWorker(pool_size_from_env("NVC_FLUSH_WORKERS")) {}

FlushWorker::FlushWorker(std::size_t pool_size)
    : pin_(env_int("NVC_PIN", 0) != 0) {
  NVC_REQUIRE(pool_size >= 1 && pool_size <= kMaxPool);
  worker_cpu_ = place_workers(pool_size, cpu_topology()).worker_cpu;
  workers_.reserve(pool_size);
  for (std::size_t w = 0; w < pool_size; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  start();  // threads only start once workers_ is fully built
}

void FlushWorker::start() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread =
        std::jthread([this, w](std::stop_token st) { run(st, w); });
  }
}

FlushWorker::~FlushWorker() {
  // Request every stop before the first join so pool shutdown overlaps
  // instead of paying one doze tick per worker serially.
  for (auto& w : workers_) w->thread.request_stop();
}  // workers_ (last member) joins; the rest is destroyed after

FlushWorker& FlushWorker::shared() {
  static FlushWorker worker;
  return worker;
}

std::shared_ptr<FlushChannel> FlushWorker::open_channel(
    std::unique_ptr<FlushSink> sink, std::size_t capacity) {
  NVC_REQUIRE(sink != nullptr);
  NVC_REQUIRE(is_pow2(capacity), "flush queue depth must be a power of two");
  std::shared_ptr<FlushChannel> channel(
      new FlushChannel(this, std::move(sink), capacity, /*manual=*/false));
  std::lock_guard<std::mutex> lock(mutex_);
  // Round-robin homes: channels arrive dynamically (one per runtime
  // thread), so the static block distribution of place_shards does not
  // apply; round-robin gives the same ±1 balance without knowing the final
  // producer count.
  channel->home_ = static_cast<std::uint32_t>(next_home_);
  next_home_ = (next_home_ + 1) % workers_.size();
  channels_.push_back(channel);
  return channel;
}

std::shared_ptr<FlushChannel> FlushWorker::open_manual_channel(
    std::unique_ptr<FlushSink> sink, std::size_t capacity) {
  NVC_REQUIRE(sink != nullptr);
  NVC_REQUIRE(is_pow2(capacity), "flush queue depth must be a power of two");
  // Deliberately NOT registered in channels_: no pool thread ever sees it,
  // so the only consumers are pump_one() calls and helping drains — both on
  // the owner's thread, both deterministic regardless of pool size.
  return std::shared_ptr<FlushChannel>(
      new FlushChannel(this, std::move(sink), capacity, /*manual=*/true));
}

void FlushWorker::poke() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& w : workers_) w->poked = true;
  }
  for (auto& w : workers_) w->cv.notify_one();
}

void FlushWorker::poke_home(std::size_t w) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    workers_[w]->poked = true;
  }
  workers_[w]->cv.notify_one();
}

void FlushWorker::register_idle_task(std::weak_ptr<IdleTask> task) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_tasks_.push_back(std::move(task));
}

bool FlushWorker::run_idle_task() {
  std::shared_ptr<IdleTask> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (!idle_tasks_.empty() && task == nullptr) {
      idle_cursor_ %= idle_tasks_.size();
      task = idle_tasks_[idle_cursor_].lock();
      if (task != nullptr) {
        ++idle_cursor_;
      } else {
        // Owner died; expiry IS the deregistration protocol.
        idle_tasks_.erase(idle_tasks_.begin() +
                          static_cast<std::ptrdiff_t>(idle_cursor_));
      }
    }
  }
  if (task == nullptr) return false;
  // Off-mutex: the step may do real work (scrubbing a batch of lines) and
  // must not block channel registration or sibling workers.
  const bool worked = task->idle_step();
  if (worked) idle_steps_.fetch_add(1, std::memory_order_relaxed);
  return worked;
}

bool FlushWorker::steal_one(const FlushChannel* self) {
  std::vector<std::shared_ptr<FlushChannel>> channels;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    channels = channels_;
  }
  for (const auto& ch : channels) {
    if (ch.get() == self) continue;
    if (ch->consume_one(FlushChannel::kHelperConsumer)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

std::size_t FlushWorker::sweep(
    std::size_t w, const std::vector<std::shared_ptr<FlushChannel>>& channels) {
  const std::uint32_t me = static_cast<std::uint32_t>(w);
  std::size_t total = 0;
  for (const auto& ch : channels) {
    if (ch->home_ != me) continue;
    ch->wake_requested_.store(false, std::memory_order_relaxed);
    while (ch->consume_one(me)) ++total;
  }
  // Idle worker: help any sibling's backlog. Same per-channel consumer
  // spinlock as the home worker, so retirement stays exactly-once and each
  // ring stays FIFO; the home worker finding its ring already empty is the
  // intended outcome, not a race.
  if (total == 0 && workers_.size() > 1) {
    std::size_t stolen = 0;
    for (const auto& ch : channels) {
      if (ch->home_ == me) continue;
      while (ch->consume_one(me)) ++stolen;
    }
    if (stolen != 0) {
      steals_.fetch_add(stolen, std::memory_order_relaxed);
      total += stolen;
    }
  }
  if (total != 0) worker_flushes_.fetch_add(total, std::memory_order_relaxed);
  return total;
}

void FlushWorker::run(std::stop_token st, std::size_t w) {
  // Placement is a hint: pinning only under NVC_PIN, and failure to pin is
  // silently tolerated (containers often mask CPUs out of the affinity set).
  if (pin_) pin_thread_to_cpu(worker_cpu_[w]);
  // On a single-core host the post-poke spin below would only steal the
  // producer's timeslice; drain()'s helping consumer covers latency there.
  // The topology probe is cached process-wide — no per-decision re-query.
  const bool can_spin = cpu_topology().can_spin();

  Worker& self = *workers_[w];
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Doze: wake on the periodic tick, an explicit poke, or stop. A plain
    // timeout (predicate false) still sweeps — the tick is the default
    // delivery mechanism; pokes only accelerate watermark crossings.
    self.cv.wait_for(lock, st, kDozeTick, [&] { return self.poked; });
    const bool poked = self.poked;
    self.poked = false;
    std::vector<std::shared_ptr<FlushChannel>> channels = channels_;
    lock.unlock();

    // Only a poke (a ring crossed its high watermark) opens the spin
    // window. A tick wake sweeps once and then counts as idle: between
    // storms, polling would only race the producer's own drain for a line
    // or two per FASE and keep the idle hook from ever running.
    bool idle = !poked;
    if (poked && can_spin) {
      auto last_work = std::chrono::steady_clock::now();
      while (!st.stop_requested()) {
        if (sweep(w, channels) != 0) {
          last_work = std::chrono::steady_clock::now();
        } else if (std::chrono::steady_clock::now() - last_work >
                   kSpinWindow) {
          idle = true;
          break;
        } else {
          cpu_pause();
        }
      }
    } else if (sweep(w, channels) == 0) {
      idle = true;
    }
    // Idle worker: one bounded slice of background work (the online
    // scrubber). Flush traffic wins during a storm — after a poke the slice
    // runs only once the spin window found every home ring empty — and the
    // next wake re-checks the rings before another slice runs.
    if (idle && !st.stop_requested()) run_idle_task();

    lock.lock();
    // Prune channels whose producer is gone and whose queue has drained.
    std::erase_if(channels_, [](const std::shared_ptr<FlushChannel>& ch) {
      return ch->closed_.load(std::memory_order_acquire) && ch->queue_.empty();
    });
    if (st.stop_requested()) return;
  }
}

// --- AsyncFlushSink ---------------------------------------------------------

AsyncFlushSink::AsyncFlushSink(std::shared_ptr<FlushChannel> channel,
                               FlushSink* local, DeviceModel model)
    : channel_(std::move(channel)),
      local_(local),
      model_(model),
      watermark_(channel_->capacity() / 2) {
  NVC_REQUIRE(channel_ != nullptr && local_ != nullptr);
}

AsyncFlushSink::~AsyncFlushSink() {
  // Leave no line behind: the producer is going away, so write back
  // anything still queued (helping consumer) and release the channel for
  // pruning. The channel owns its sink, so the worker side stays valid
  // even though this producer (and its runtime) is being torn down.
  channel_->wait_drained();
  channel_->close();
}

std::uint64_t AsyncFlushSink::now_ns() const noexcept {
  return steady_now_ns();
}

bool AsyncFlushSink::maybe_inflight(LineAddr line) const noexcept {
  // pending_lines_[i] was push number pending_base_ + i + 1 and is out of
  // the ring once flushed() covers it, so the still-queued suffix starts at
  // flushed() - pending_base_. A stale flushed() read only widens the scan
  // (errs conservatively). The common case — nothing pending since the last
  // drain — is two counter loads and no scan.
  const std::uint64_t flushed = channel_->flushed();
  if (flushed >= pending_base_ + pending_lines_.size()) return false;
  for (std::size_t i = static_cast<std::size_t>(flushed - pending_base_);
       i < pending_lines_.size(); ++i) {
    if (pending_lines_[i] == line) return true;
  }
  return false;
}

bool AsyncFlushSink::flush_line(LineAddr line) {
  if (!channel_->try_push(line)) {
    // Ring full: absorb backpressure synchronously on this thread. The line
    // is flushed exactly once either way, so total data traffic is
    // identical to sync mode.
    ++overflows_;
    return local_->flush_line(line);
  }
  pending_lines_.push_back(line);
  if (model_.issue_ns != 0) {
    // Pipelined-device model: the line occupies the device for issue_ns
    // starting when the device is free (or now, if it went idle). The clock
    // is read once per burst; later pushes just extend the busy window
    // (over-estimating occupancy across a mid-burst pause is conservative).
    if (!burst_active_) {
      burst_active_ = true;
      device_free_ns_ = std::max(device_free_ns_, now_ns());
    }
    device_free_ns_ += model_.issue_ns;
  }
  if (channel_->depth() >= watermark_) channel_->request_wake();
  // Queued: the worker-side sink decides the line's fate (retry/quarantine
  // happen there); accepted from this producer's point of view.
  return true;
}

void AsyncFlushSink::drain() {
  channel_->wait_drained();
  // Every pending entry is now flushed; reset the shadow (capacity kept).
  pending_base_ += pending_lines_.size();
  pending_lines_.clear();
  burst_active_ = false;
  if (model_.latency_ns > model_.issue_ns) {
    // Everything is issued; durability of the last line lags its issue slot
    // by the device's remaining write latency.
    const std::uint64_t durable_at =
        device_free_ns_ + (model_.latency_ns - model_.issue_ns);
    while (now_ns() < durable_at) cpu_pause();
  }
  local_->drain();  // fence, counted on the application thread's backend
}

}  // namespace nvc::core
