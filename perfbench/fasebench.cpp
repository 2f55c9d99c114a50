// fasebench — the repository's FASE-runtime benchmark program.
//
// Runs one workload through the shipped runtime::Runtime inside this
// process and times the calls into its public API from outside, through
// MeteredApi: a workloads::PersistApi decorator around workloads::RuntimeApi
// covering pm_alloc, fase_begin, fase_end, pwrote and persist_barrier.
// Every workload thread is a closed loop: it starts its next FASE only after
// the previous one has committed.
//
//   fasebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs passes of the workload for <s> seconds with clock reads at
// FASE boundaries only and reports the end-to-end metrics. --trace 1 runs
// half the time the same way (runtime counters) and half with every API call
// timed (per-layer costs), then replays the recorded trace through the core
// policies and times a restart. Every pass is checked from outside the
// runtime against a reference execution of the same inputs on plain memory.
// The last stdout line is the result object; the line before it stamps the
// effective configuration and the host. See README.md in this directory.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/policy.hpp"
#include "core/sampler.hpp"
#include "core/write_cache.hpp"
#include "mdb/btree.hpp"
#include "mdb/mtest.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scrub.hpp"
#include "workloads/api.hpp"
#include "workloads/replay.hpp"
#include "workloads/workload.hpp"

namespace nvc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Mean of the middle half: robust to outliers like a median, but moves
/// smoothly when the sample is a mixture of two modes.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

// ---------------------------------------------------------------------------
// The metered seam.

enum Call : std::size_t {
  kPmAlloc,
  kFaseBegin,
  kFaseEnd,
  kPwrote,
  kPersistBarrier,
  kNumCalls,
};
constexpr std::array<const char*, kNumCalls> kCallNames = {
    "pm_alloc", "fase_begin", "fase_end", "pwrote", "persist_barrier"};

struct alignas(kCacheLineSize) ThreadMeter {
  std::uint32_t depth = 0;
  std::uint64_t fase_start_ns = 0;
  std::uint64_t first_fase_ns = 0;  // 0 until the thread's first FASE
  std::uint64_t fases = 0;          // outermost FASEs that returned
  std::uint64_t stores = 0;         // line-granular, as the policy counts
  void* first_alloc = nullptr;
  std::size_t first_alloc_size = 0;
  std::array<std::uint64_t, kNumCalls> calls{};
  std::array<std::uint64_t, kNumCalls> call_ns{};  // traced only
  std::vector<std::uint64_t> latency_ns;  // outermost begin call .. end return
};

/// PersistApi decorator that counts every call per thread and records each
/// outermost FASE's latency. Untraced, it reads the clock only at outermost
/// FASE boundaries; traced, it also times every call it forwards.
class MeteredApi final : public workloads::PersistApi {
 public:
  MeteredApi(workloads::PersistApi& inner, std::size_t threads, bool traced)
      : inner_(inner), meters_(threads), traced_(traced) {}

  void reserve_fases(std::uint64_t per_thread) {
    for (ThreadMeter& m : meters_) m.latency_ns.reserve(per_thread);
  }

  void* alloc(std::size_t tid, std::size_t size) override {
    ThreadMeter& m = meters_[tid];
    const std::uint64_t t0 = traced_ ? now_ns() : 0;
    void* p = inner_.alloc(tid, size);
    tally(m, kPmAlloc, t0);
    if (m.first_alloc == nullptr) {
      m.first_alloc = p;
      m.first_alloc_size = size;
    }
    return p;
  }

  void fase_begin(std::size_t tid) override {
    ThreadMeter& m = meters_[tid];
    const bool outermost = m.depth++ == 0;
    const std::uint64_t t0 = traced_ || outermost ? now_ns() : 0;
    if (outermost) {
      m.fase_start_ns = t0;
      if (m.first_fase_ns == 0) m.first_fase_ns = t0;
    }
    inner_.fase_begin(tid);
    tally(m, kFaseBegin, t0);
  }

  void fase_end(std::size_t tid) override {
    ThreadMeter& m = meters_[tid];
    const std::uint64_t t0 = traced_ ? now_ns() : 0;
    inner_.fase_end(tid);
    const bool outermost = --m.depth == 0;
    const std::uint64_t t1 = traced_ || outermost ? now_ns() : 0;
    ++m.calls[kFaseEnd];
    if (traced_) m.call_ns[kFaseEnd] += t1 - t0;
    if (outermost) {
      ++m.fases;
      m.latency_ns.push_back(t1 - m.fase_start_ns);
    }
  }

  void wrote(std::size_t tid, const void* addr, std::size_t len) override {
    ThreadMeter& m = meters_[tid];
    const auto a = reinterpret_cast<PmAddr>(addr);
    m.stores += line_of(a + len - 1) - line_of(a) + 1;
    const std::uint64_t t0 = traced_ ? now_ns() : 0;
    inner_.wrote(tid, addr, len);
    tally(m, kPwrote, t0);
  }

  void persist_barrier(std::size_t tid) override {
    ThreadMeter& m = meters_[tid];
    const std::uint64_t t0 = traced_ ? now_ns() : 0;
    inner_.persist_barrier(tid);
    tally(m, kPersistBarrier, t0);
  }

  void read(std::size_t tid, const void* addr, std::size_t len) override {
    inner_.read(tid, addr, len);
  }
  void compute(std::size_t tid, std::uint64_t instr) override {
    inner_.compute(tid, instr);
  }

  std::vector<ThreadMeter>& meters() noexcept { return meters_; }

  std::uint64_t fases() const noexcept {
    std::uint64_t n = 0;
    for (const ThreadMeter& m : meters_) n += m.fases;
    return n;
  }
  std::uint64_t stores() const noexcept {
    std::uint64_t n = 0;
    for (const ThreadMeter& m : meters_) n += m.stores;
    return n;
  }
  /// Earliest outermost fase_begin over all threads (0 = none yet).
  std::uint64_t first_fase_ns() const noexcept {
    std::uint64_t first = 0;
    for (const ThreadMeter& m : meters_) {
      if (m.first_fase_ns != 0 && (first == 0 || m.first_fase_ns < first)) {
        first = m.first_fase_ns;
      }
    }
    return first;
  }

 private:
  void tally(ThreadMeter& m, Call call, std::uint64_t t0) const {
    ++m.calls[call];
    if (traced_) m.call_ns[call] += now_ns() - t0;
  }

  workloads::PersistApi& inner_;
  std::vector<ThreadMeter> meters_;
  const bool traced_;
};

/// Reference substrate: plain zeroed process memory, no persistence. The
/// workload run on it at the same seed gives the expected outputs.
class VolatileApi final : public workloads::PersistApi {
 public:
  void* alloc(std::size_t, std::size_t size) override {
    const std::size_t bytes = align_up(size, kCacheLineSize);
    void* p = std::aligned_alloc(kCacheLineSize, bytes);
    NVC_REQUIRE(p != nullptr, "reference allocation failed");
    std::memset(p, 0, bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    blocks_.emplace_back(p);
    return p;
  }
  void fase_begin(std::size_t) override {}
  void fase_end(std::size_t) override {}
  void wrote(std::size_t, const void*, std::size_t) override {}
  void persist_barrier(std::size_t) override {}

 private:
  struct Free {
    void operator()(void* p) const noexcept { std::free(p); }
  };
  std::mutex mutex_;
  std::vector<std::unique_ptr<void, Free>> blocks_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class OutputCheck {
  kMdbImage,    // durable B+-tree and committed txn id equal the reference
  kQueueWalk,   // queue contents, head to tail, equal the reference
  kFirstAlloc,  // first allocation's bytes equal the reference
};

struct WorkloadSpec {
  const char* name;
  const char* workload;  // registry name; "mdb" is the MDB Mtest adapter
  std::size_t threads;   // application threads
  bool full;             // paper-scale problem size
  std::uint64_t mdb_inserts;
  bool async_flush;
  bool elide;
  bool verify_data;
  bool scrub;
  std::size_t region_mb;
  OutputCheck check;
};

// Admission, wear tracking and fault injection stay at their defaults
// (always-admit, off, off) in every workload.
constexpr WorkloadSpec kSpecs[] = {
    {"mdb-mtest", "mdb", 1, false, 20000, false, false, false, false, 64,
     OutputCheck::kMdbImage},
    {"queue-hardened", "queue", 1, true, 0, true, true, true, true, 32,
     OutputCheck::kQueueWalk},
    {"barnes-async", "barnes", 2, true, 0, true, true, false, false, 64,
     OutputCheck::kFirstAlloc},
};

constexpr std::uint32_t kFlushNs = 250;
constexpr std::size_t kMaxThreads = 4;  // undo-log segments

std::unique_ptr<workloads::Workload> make_workload(const WorkloadSpec& spec) {
  if (std::strcmp(spec.workload, "mdb") == 0) {
    mdb::MtestConfig config;
    config.inserts_quick = spec.mdb_inserts;
    config.inserts_full = spec.mdb_inserts;
    return mdb::make_mdb_workload(config);
  }
  return workloads::make_workload(spec.workload);
}

/// SC with the online sampler, scaled like the bench harness defaults.
core::PolicyConfig policy_config(const WorkloadSpec& spec) {
  core::PolicyConfig config;
  config.atlas_table_size = 8;
  config.cache_size = core::WriteCache::kDefaultCapacity;
  config.sampler.burst_length = spec.full ? (1u << 16) : (1u << 12);
  config.sampler.skip_fases = 1;
  return config;
}

runtime::RuntimeConfig runtime_config(const WorkloadSpec& spec) {
  static int regions = 0;
  runtime::RuntimeConfig config;
  config.region_name = "fasebench." + std::to_string(::getpid()) + "." +
                       std::to_string(regions++);
  config.region_size = spec.region_mb << 20;
  config.policy = core::PolicyKind::kSoftCache;
  config.policy_config = policy_config(spec);
  config.flush = pmem::FlushKind::kSimulated;
  config.simulated_flush_ns = kFlushNs;
  config.async_flush = spec.async_flush;
  config.undo_logging = true;
  config.log_sync = runtime::LogSyncMode::kBatched;
  config.max_threads = kMaxThreads;
  config.elide = spec.elide;
  config.verify_data = spec.verify_data;
  config.scrub = spec.scrub;
  return config;
}

// ---------------------------------------------------------------------------
// Output checks.

// Layout of the queue workload's nodes and anchors (workloads/micro.cpp).
struct QueueNode {
  std::uint64_t value;
  QueueNode* next;
};
struct QueueAnchors {
  alignas(kCacheLineSize) QueueNode* head;
  alignas(kCacheLineSize) QueueNode* tail;
};

/// Values from head to tail; stops after `limit` nodes (a cycle or a lost
/// link then shows as a length mismatch) and flags a tail that is not last.
std::vector<std::uint64_t> walk_queue(const ThreadMeter& m, std::size_t limit,
                                      bool* tail_ok) {
  std::vector<std::uint64_t> values;
  *tail_ok = false;
  if (m.first_alloc_size != sizeof(QueueAnchors)) return values;
  const auto* anchors = static_cast<const QueueAnchors*>(m.first_alloc);
  const QueueNode* last = anchors->head;
  for (const QueueNode* n = last->next; n != nullptr && values.size() <= limit;
       n = n->next) {
    values.push_back(n->value);
    last = n;
  }
  *tail_ok = last == anchors->tail;
  return values;
}

struct Reference {
  std::uint64_t fases = 0;
  std::uint64_t stores = 0;
  std::vector<std::uint64_t> thread_fases;
  mdb::Db::ImageContents image;       // kMdbImage
  std::vector<std::uint64_t> queue;   // kQueueWalk
  std::vector<unsigned char> bytes;   // kFirstAlloc
};

Reference run_reference(const WorkloadSpec& spec,
                        const workloads::WorkloadParams& params) {
  VolatileApi memory;
  MeteredApi api(memory, spec.threads, false);
  make_workload(spec)->run(api, params);
  Reference ref;
  ref.fases = api.fases();
  ref.stores = api.stores();
  for (const ThreadMeter& m : api.meters()) ref.thread_fases.push_back(m.fases);
  const ThreadMeter& m0 = api.meters()[0];
  switch (spec.check) {
    case OutputCheck::kMdbImage:
      ref.image = mdb::Db::read_image(m0.first_alloc, m0.first_alloc_size);
      break;
    case OutputCheck::kQueueWalk: {
      bool tail_ok = false;
      ref.queue = walk_queue(m0, ~std::size_t{0} >> 1, &tail_ok);
      NVC_REQUIRE(tail_ok, "reference queue is malformed");
      break;
    }
    case OutputCheck::kFirstAlloc: {
      const auto* p = static_cast<const unsigned char*>(m0.first_alloc);
      ref.bytes.assign(p, p + m0.first_alloc_size);
      break;
    }
  }
  return ref;
}

/// Empty when the workload's durable output equals the reference.
std::string check_output(const WorkloadSpec& spec, const ThreadMeter& m0,
                         const Reference& ref) {
  switch (spec.check) {
    case OutputCheck::kMdbImage: {
      const mdb::Db::ImageContents image =
          mdb::Db::read_image(m0.first_alloc, m0.first_alloc_size);
      if (image.txn != ref.image.txn) return "mdb committed txn id differs";
      if (image.txn + 1 != ref.fases) return "mdb txn id != write FASEs";
      if (image.pairs != ref.image.pairs) return "mdb durable tree differs";
      return {};
    }
    case OutputCheck::kQueueWalk: {
      bool tail_ok = false;
      if (walk_queue(m0, ref.queue.size(), &tail_ok) != ref.queue) {
        return "queue contents differ";
      }
      return tail_ok ? std::string{} : "queue tail is not the last node";
    }
    case OutputCheck::kFirstAlloc:
      if (m0.first_alloc_size != ref.bytes.size() ||
          std::memcmp(m0.first_alloc, ref.bytes.data(), ref.bytes.size()) !=
              0) {
        return "workload state differs";
      }
      return {};
  }
  return "unknown check";
}

/// Step the scrubber, with the workload quiescent, until it has completed
/// at least one full sweep; empty when that sweep found nothing.
std::string scrub_full_pass(runtime::Runtime& rt) {
  runtime::Scrubber* scrubber = rt.scrubber();
  if (scrubber == nullptr) return "scrubber missing";
  const runtime::ScrubStats before = rt.scrub_stats();
  // The first wrap may end a sweep begun mid-run; the second is whole.
  const std::uint64_t deadline = now_ns() + 60'000'000'000ull;
  while (rt.scrub_stats().passes < before.passes + 2) {
    if (!scrubber->step()) std::this_thread::yield();
    if (now_ns() > deadline) return "scrub pass did not finish";
  }
  const runtime::ScrubStats after = rt.scrub_stats();
  if (after.checksum_mismatches != before.checksum_mismatches) {
    return "scrub found checksum mismatches at rest";
  }
  if (after.media_quarantines != 0) return "scrub quarantined lines";
  return {};
}

std::string check_health(const runtime::Runtime& rt) {
  const runtime::HealthReport h = rt.health();
  if (h.degraded()) return "health report degraded";
  if (h.transient_faults != 0 || h.flush_retries != 0) return "media faults";
  if (h.scrub_media_quarantines != 0) return "scrub quarantined lines";
  return {};
}

// ---------------------------------------------------------------------------
// Passes and phases.

/// FASEs per latency window: 10 samples lie beyond each window's p99.
constexpr std::size_t kWindow = 1000;

/// The q-quantile of `v` (nanoseconds), in microseconds.
double percentile_us(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]) * 1e-3;
}

struct PassResult {
  double setup_s = 0.0;  // Runtime construction .. first FASE
  double run_s = 0.0;    // first FASE .. workload return
  std::uint64_t fases = 0;
  std::string failure;   // empty = every check passed
  runtime::RuntimeStats stats;
  runtime::ScrubStats scrub;
  std::array<std::uint64_t, kNumCalls> calls{};
  std::array<std::uint64_t, kNumCalls> call_ns{};
  // FASE latency percentiles of each window of kWindow consecutive FASEs
  // of one thread, in microseconds.
  std::vector<double> p50_us;
  std::vector<double> p99_us;
};

/// One workload pass on a fresh Runtime, checked afterwards. With
/// `reopen_ms` set, the image is then reopened several times and the open
/// plus needs_recovery() is timed.
PassResult run_pass(const WorkloadSpec& spec,
                    const workloads::WorkloadParams& params,
                    const Reference& ref, bool traced,
                    std::vector<double>* reopen_ms = nullptr) {
  PassResult r;
  runtime::RuntimeConfig config = runtime_config(spec);
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<runtime::Runtime>(config);
  workloads::RuntimeApi inner(*rt);
  MeteredApi api(inner, spec.threads, traced);
  api.reserve_fases(*std::max_element(ref.thread_fases.begin(),
                                      ref.thread_fases.end()));
  make_workload(spec)->run(api, params);
  const std::uint64_t t_end = now_ns();
  const std::uint64_t t_first = api.first_fase_ns();
  r.setup_s = static_cast<double>(t_first - t0) * 1e-9;
  r.run_s = static_cast<double>(t_end - t_first) * 1e-9;

  r.stats = rt->stats();
  r.fases = api.fases();
  for (ThreadMeter& m : api.meters()) {
    for (std::size_t c = 0; c < kNumCalls; ++c) {
      r.calls[c] += m.calls[c];
      r.call_ns[c] += m.call_ns[c];
    }
    for (std::size_t w = 0; w + kWindow <= m.latency_ns.size(); w += kWindow) {
      std::vector<std::uint64_t> window(
          m.latency_ns.begin() + static_cast<std::ptrdiff_t>(w),
          m.latency_ns.begin() + static_cast<std::ptrdiff_t>(w + kWindow));
      r.p50_us.push_back(percentile_us(window, 0.50));
      r.p99_us.push_back(percentile_us(window, 0.99));
    }
  }

  // Checks, all from outside the runtime.
  auto fail = [&r](std::string why) {
    if (r.failure.empty() && !why.empty()) r.failure = std::move(why);
  };
  if (r.fases != ref.fases || r.stats.fases != ref.fases) {
    fail("FASE count differs from the reference");
  }
  if (api.stores() != ref.stores || r.stats.stores != ref.stores) {
    fail("store count differs from the reference");
  }
  if (rt->needs_recovery()) fail("needs_recovery() after a clean run");
  fail(check_health(*rt));
  fail(check_output(spec, api.meters()[0], ref));
  r.scrub = rt->scrub_stats();  // counters of the online (mid-run) scrubbing
  if (spec.scrub) fail(scrub_full_pass(*rt));

  if (reopen_ms != nullptr) {
    rt.reset();  // clean shutdown seals the image
    config.fresh = false;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t r0 = now_ns();
      rt = std::make_unique<runtime::Runtime>(config);
      const bool dirty = rt->needs_recovery();
      reopen_ms->push_back(static_cast<double>(now_ns() - r0) * 1e-6);
      if (dirty) fail("needs_recovery() after reopening a sealed image");
      if (i < 4) rt.reset();
    }
  }
  rt->destroy_storage();
  return r;
}

struct Phase {
  std::vector<PassResult> passes;
  std::uint64_t failed_fases = 0;
  std::string failure;

  void add(PassResult pass) {
    if (!pass.failure.empty()) {
      failed_fases += pass.fases;
      if (failure.empty()) failure = pass.failure;
    }
    passes.push_back(std::move(pass));
  }
  std::uint64_t fases() const {
    std::uint64_t n = 0;
    for (const PassResult& p : passes) n += p.fases;
    return n;
  }
  double run_s() const {
    double s = 0;
    for (const PassResult& p : passes) s += p.run_s;
    return s;
  }
  double fase_per_s() const {
    return static_cast<double>(fases()) / run_s();
  }
  std::uint64_t stat_sum(std::uint64_t runtime::RuntimeStats::*field) const {
    std::uint64_t n = 0;
    for (const PassResult& p : passes) n += p.stats.*field;
    return n;
  }
  /// Per-pass mean of a runtime counter.
  double per_pass(std::uint64_t runtime::RuntimeStats::*field) const {
    return static_cast<double>(stat_sum(field)) /
           static_cast<double>(passes.size());
  }
};

/// Rotates the calling thread's CPU set from pass to pass, so that a run
/// samples every CPU alike instead of whichever ones the scheduler picked:
/// on a shared host, CPUs run at different speeds from minute to minute.
/// Threads a workload spawns inherit the set; the runtime's worker pools,
/// started during the unpinned warm-up pass, keep the full set.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~Placement() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof all_, &all_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  /// Pin to `width` consecutive CPUs starting at the next rotation slot.
  void next(std::size_t width) {
    if (cpus_.size() <= width) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t j = 0; j < width; ++j) {
      CPU_SET(cpus_[(slot_ + j) % cpus_.size()], &set);
    }
    slot_ = (slot_ + 1) % cpus_.size();
    ::sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t slot_ = 0;
};

/// Passes back to back until `seconds` have elapsed (at least one), each
/// on the next CPU set of the rotation.
Phase run_phase(const WorkloadSpec& spec,
                const workloads::WorkloadParams& params, const Reference& ref,
                bool traced, double seconds) {
  Phase phase;
  Placement placement;
  const std::uint64_t start = now_ns();
  do {
    placement.next(spec.threads);
    phase.add(run_pass(spec, params, ref, traced));
  } while (seconds_since(start) < seconds);
  return phase;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Effective configuration and host fingerprint: results are comparable
/// only between identical stamps.
std::string stamp(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                  std::uint64_t fase_samples) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  std::string s = "{\"stamp\": {";
  s += "\"workload\": " + quote(spec.name);
  s += ", \"app\": " + quote(spec.workload);
  s += ", \"scale\": " + quote(spec.full ? "full" : "quick");
  if (spec.mdb_inserts != 0) {
    s += ", \"inserts\": " + std::to_string(spec.mdb_inserts);
  }
  s += ", \"seed\": " + std::to_string(seed);
  s += ", \"trace\": " + std::string(flag(traced));
  s += ", \"policy\": \"SC\", \"log\": \"batched\", \"flush\": \"sim\"";
  s += ", \"flush_ns\": " + std::to_string(kFlushNs);
  s += ", \"threads\": " + std::to_string(spec.threads);
  s += ", \"async\": " + std::string(flag(spec.async_flush));
  s += ", \"elide\": " + std::string(flag(spec.elide));
  s += ", \"verify\": " + std::string(flag(spec.verify_data));
  s += ", \"scrub\": " + std::string(flag(spec.scrub));
  s += ", \"admission\": \"always\", \"wear\": false, \"faults\": false";
  s += ", \"region_mb\": " + std::to_string(spec.region_mb);
  s += ", \"placement\": \"rotate-per-pass\"";
  s += ", \"fase_samples\": " + std::to_string(fase_samples);
  s += "}, \"host\": {\"nproc\": " + std::to_string(nproc());
  s += ", \"cpu\": " + quote(cpu_model()) + "}}";
  return s;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) s += ", ";
    s += quote(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
         ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

// ---------------------------------------------------------------------------
// The two modes.

/// Every end-to-end metric but durable_fase_frac, which needs all passes.
std::vector<Metric> end_to_end(const Phase& phase) {
  // Latency percentiles per window, averaged over the middle half of the
  // windows; set-up time per pass, median over passes.
  std::vector<double> p50, p99, setup;
  for (const PassResult& p : phase.passes) {
    p50.insert(p50.end(), p.p50_us.begin(), p.p50_us.end());
    p99.insert(p99.end(), p.p99_us.begin(), p.p99_us.end());
    setup.push_back(p.setup_s);
  }
  const double flushes = static_cast<double>(
      phase.stat_sum(&runtime::RuntimeStats::flushes));
  const double stores =
      static_cast<double>(phase.stat_sum(&runtime::RuntimeStats::stores));
  return {
      {"fase_per_s", phase.fase_per_s(), "1/s"},
      {"fase_p50_us", interquartile_mean(p50), "us"},
      {"fase_p99_us", interquartile_mean(p99), "us"},
      {"flush_ratio", flushes / stores, "ratio"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

/// Replay timing of a core policy over the recorded trace (counting sink:
/// no flush, no log), in ns per store; median of `reps`.
double replay_ns_per_store(const workloads::TraceApi& trace,
                           core::PolicyKind kind,
                           const core::PolicyConfig& config, int reps) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    const workloads::FlushCountResult r =
        workloads::replay_flush_count_all(trace, kind, config);
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(r.stores));
  }
  return median(ns);
}

/// BurstSampler::analyze_offline over thread 0's first burst, in ms.
double analyzer_burst_ms(const workloads::TraceApi& trace,
                         const core::PolicyConfig& config, int reps) {
  std::vector<LineAddr> stores;
  std::vector<std::size_t> boundaries;
  trace.trace(0).store_trace(&stores, &boundaries);
  const std::size_t burst = std::min<std::size_t>(
      stores.size(), config.sampler.burst_length);
  stores.resize(burst);
  boundaries.erase(std::remove_if(boundaries.begin(), boundaries.end(),
                                  [burst](std::size_t b) { return b > burst; }),
                   boundaries.end());
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    const core::KneeResult knee = core::BurstSampler::analyze_offline(
        stores, boundaries, config.sampler.knee, nullptr);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    NVC_REQUIRE(knee.chosen_size > 0);
  }
  return median(ms);
}

std::vector<Metric> per_layer(const WorkloadSpec& spec,
                              const workloads::WorkloadParams& params,
                              const Phase& plain, const Phase& traced,
                              const Reference& ref,
                              const std::vector<double>& reopen_ms,
                              std::string* failure) {
  std::vector<Metric> out;
  using S = runtime::RuntimeStats;

  // Runtime call timings at the PersistApi seam (traced phase).
  std::array<std::uint64_t, kNumCalls> calls{};
  std::array<std::uint64_t, kNumCalls> call_ns{};
  for (const PassResult& p : traced.passes) {
    for (std::size_t c = 0; c < kNumCalls; ++c) {
      calls[c] += p.calls[c];
      call_ns[c] += p.call_ns[c];
    }
  }
  const double passes = static_cast<double>(traced.passes.size());
  out.push_back({"runtime.pwrote.calls",
                 static_cast<double>(calls[kPwrote]) / passes, "count/pass"});
  std::uint64_t runtime_ns = 0;
  for (std::size_t c = 0; c < kNumCalls; ++c) {
    runtime_ns += call_ns[c];
    out.push_back({std::string("runtime.") + kCallNames[c] + ".ns_per_call",
                   calls[c] == 0 ? 0.0
                                 : static_cast<double>(call_ns[c]) /
                                       static_cast<double>(calls[c]),
                   "ns"});
  }
  const double thread_s =
      traced.run_s() * static_cast<double>(spec.threads);
  out.push_back({"workload.self_s",
                 (thread_s - static_cast<double>(runtime_ns) * 1e-9) / passes,
                 "s/pass"});
  out.push_back({"tracing.overhead_frac",
                 plain.fase_per_s() / traced.fase_per_s() - 1.0, "ratio"});

  // Runtime counters (untraced phase), per pass.
  const double stores = plain.per_pass(&S::stores);
  out.push_back({"core.cache.hit_ratio", plain.per_pass(&S::combined) / stores,
                 "ratio"});
  const runtime::RuntimeStats& last = plain.passes.back().stats;
  for (std::size_t t = 0; t < 2; ++t) {
    out.push_back({"core.sampler.cache_size.t" + std::to_string(t),
                   t < last.cache_sizes.size()
                       ? static_cast<double>(last.cache_sizes[t])
                       : 0.0,
                   "lines"});
  }
  out.push_back({"pmem.data_flushes", plain.per_pass(&S::flushes), "count/pass"});
  out.push_back({"pmem.log_flushes", plain.per_pass(&S::log_flushes),
                 "count/pass"});
  out.push_back({"pmem.fences", plain.per_pass(&S::fences), "count/pass"});
  out.push_back({"pmem.log_fences", plain.per_pass(&S::log_fences),
                 "count/pass"});
  out.push_back({"runtime.log.records", plain.per_pass(&S::log_records),
                 "count/pass"});
  out.push_back({"runtime.log.bytes_per_store",
                 plain.per_pass(&S::log_bytes) / stores, "B"});
  out.push_back({"runtime.log.syncs", plain.per_pass(&S::log_syncs),
                 "count/pass"});
  const double elided = plain.per_pass(&S::elided_flushes);
  const double flushed = plain.per_pass(&S::flushes);
  out.push_back({"core.elision.elided_frac",
                 elided + flushed == 0 ? 0.0 : elided / (elided + flushed),
                 "ratio"});
  out.push_back({"core.elision.reflushes", plain.per_pass(&S::elision_reflushes),
                 "count/pass"});
  double scanned = 0, scrub_passes = 0, mismatches = 0;
  for (const PassResult& p : plain.passes) {
    scanned += static_cast<double>(p.scrub.lines_scanned);
    scrub_passes += static_cast<double>(p.scrub.passes);
    mismatches += static_cast<double>(p.scrub.checksum_mismatches);
  }
  const double plain_passes = static_cast<double>(plain.passes.size());
  out.push_back({"runtime.scrub.lines_scanned", scanned / plain_passes,
                 "count/pass"});
  out.push_back({"runtime.scrub.passes", scrub_passes / plain_passes,
                 "count/pass"});
  out.push_back({"runtime.scrub.checksum_mismatches",
                 mismatches / plain_passes, "count/pass"});

  // Core replay of the same seed's recorded trace.
  workloads::TraceApi trace(spec.threads, spec.region_mb << 20);
  make_workload(spec)->run(trace, params);
  if (trace.total_stores() != ref.stores) {
    *failure = "recorded trace store count differs from the reference";
  }
  const core::PolicyConfig config = policy_config(spec);
  out.push_back({"core.policy.sc.ns_per_store",
                 replay_ns_per_store(trace, core::PolicyKind::kSoftCache,
                                     config, 3),
                 "ns"});
  out.push_back({"core.policy.at.ns_per_store",
                 replay_ns_per_store(trace, core::PolicyKind::kAtlas, config,
                                     3),
                 "ns"});
  out.push_back({"core.analyzer.burst_ms", analyzer_burst_ms(trace, config, 5),
                 "ms"});
  out.push_back({"runtime.reopen_ms", median(reopen_ms), "ms"});
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fasebench: %s\nusage: fasebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const WorkloadSpec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

int run(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadSpec& s : kSpecs) {
        if (std::strcmp(s.name, value) == 0) spec = &s;
      }
      if (spec == nullptr) usage("unknown workload");
      continue;
    }
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0) usage("bad number");
    if (key == "--seed") {
      seed = static_cast<std::uint64_t>(v);
    } else if (key == "--seconds") {
      seconds = v;
    } else if (key == "--trace") {
      trace = static_cast<int>(v);
    } else {
      usage("unknown argument");
    }
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      argc % 2 != 1) {
    usage("missing or invalid arguments");
  }

  workloads::WorkloadParams params;
  params.threads = spec->threads;
  params.seed = seed;
  params.full = spec->full;

  const Reference ref = run_reference(*spec, params);
  // One warm-up pass, checked but not timed: the first pass in a process
  // runs slow.
  Phase warmup;
  warmup.add(run_pass(*spec, params, ref, false));

  std::vector<Metric> metrics;
  std::vector<Phase> timed;
  std::string failure;
  if (trace == 0) {
    timed.push_back(run_phase(*spec, params, ref, false, seconds));
    metrics = end_to_end(timed[0]);
  } else {
    timed.push_back(run_phase(*spec, params, ref, false, seconds / 2));
    timed.push_back(run_phase(*spec, params, ref, true, seconds / 2));
    std::vector<double> reopen_ms;
    timed[1].add(run_pass(*spec, params, ref, true, &reopen_ms));
    metrics = per_layer(*spec, params, timed[0], timed[1], ref, reopen_ms,
                        &failure);
  }

  std::uint64_t attempted = warmup.fases();
  std::uint64_t failed = warmup.failed_fases;
  std::uint64_t samples = 0;
  std::uint64_t online_mismatches = 0;
  if (failure.empty()) failure = warmup.failure;
  for (const Phase& phase : timed) {
    attempted += phase.fases();
    failed += phase.failed_fases;
    samples += phase.fases();
    if (failure.empty()) failure = phase.failure;
    for (const PassResult& p : phase.passes) {
      online_mismatches += p.scrub.checksum_mismatches;
    }
  }
  if (trace == 0) {
    metrics.push_back({"durable_fase_frac",
                       1.0 - static_cast<double>(failed) /
                                 static_cast<double>(attempted),
                       "ratio"});
  }
  if (online_mismatches != 0) {
    std::fprintf(stderr,
                 "fasebench: note: the online scrubber counted %llu checksum "
                 "mismatches while FASEs ran; none at rest (README.md)\n",
                 static_cast<unsigned long long>(online_mismatches));
  }

  const bool correct = failure.empty() && failed == 0;
  if (!correct) {
    std::fprintf(stderr, "fasebench: check failed: %s\n", failure.c_str());
  }
  std::printf("%s\n", stamp(*spec, seed, trace == 1, samples).c_str());
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nvc::perfbench

int main(int argc, char** argv) { return nvc::perfbench::run(argc, argv); }
