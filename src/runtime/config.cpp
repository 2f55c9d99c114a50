// RuntimeConfig::from_env: the one reader of the runtime's NVC_* knobs
// (README knob table). Set knobs override the caller's defaults; malformed
// outside input is refused instead of running some other configuration.
#include <bit>
#include <optional>
#include <string_view>

#include "common/knob.hpp"
#include "core/thread_groups.hpp"
#include "runtime/runtime.hpp"

namespace nvc::runtime {

namespace {

using knob::kSwitch;
using knob::parse_number;
using knob::parse_switch;
using knob::read;
using knob::read_uint;

/// A probability or ratio.
std::optional<double> parse_unit(std::string_view v) {
  const auto x = parse_number<double>(v);
  return x && *x >= 0.0 && *x <= 1.0 ? x : std::nullopt;
}

std::optional<std::size_t> parse_power_of_two(std::string_view v) {
  const auto n = parse_number<std::size_t>(v);
  return n && std::has_single_bit(*n) ? n : std::nullopt;
}

constexpr const char* kUnit = "a number in [0, 1]";

}  // namespace

RuntimeConfig RuntimeConfig::from_env(RuntimeConfig c) {
  read("NVC_FLUSH", c.flush, pmem::parse_flush_kind,
       "clflush|clflushopt|clwb|sim|count");
  read_uint("NVC_FLUSH_NS", c.simulated_flush_ns);
  read("NVC_FLUSH_ASYNC", c.async_flush, parse_switch, kSwitch);
  read("NVC_FLUSH_QUEUE", c.flush_queue_depth, parse_power_of_two,
       "a power of two");
  read("NVC_LOG", c.undo_logging, parse_switch, kSwitch);
  read("NVC_LOG_SYNC", c.log_sync, parse_log_sync_mode, "strict|batched");
  read("NVC_WEAR", c.wear_tracking, parse_switch, kSwitch);
  read("NVC_ELIDE", c.elide, parse_switch, kSwitch);
  read("NVC_VERIFY_DATA", c.verify_data, parse_switch, kSwitch);
  read("NVC_SCRUB", c.scrub, parse_switch, kSwitch);
  read_uint("NVC_SCRUB_BATCH", c.scrub_batch_lines);

  core::PolicyConfig& p = c.policy_config;
  read_uint("NVC_BURST", p.sampler.burst_length);
  read_uint("NVC_SKIP_FASES", p.sampler.skip_fases);
  read("NVC_ASYNC", p.sampler.async_analysis, parse_switch, kSwitch);
  read("NVC_ADMIT", p.admission.mode, core::parse_admit_mode,
       "always|write-once|reuse");
  read_uint("NVC_ADMIT_WINDOW", p.admission.window);
  read("NVC_ADMIT_THRESHOLD", p.admission.reuse_threshold, parse_unit, kUnit);

  pmem::FaultConfig& f = c.fault;
  read("NVC_FAULT_RATE", f.rate, parse_unit, kUnit);
  read("NVC_FAULT_BAD_LINES", f.bad_line_rate, parse_unit, kUnit);
  read("NVC_FAULT_TORN", f.torn_rate, parse_unit, kUnit);
  read_uint("NVC_FAULT_RETRIES", f.max_retries);
  read_uint("NVC_FAULT_BACKOFF_NS", f.backoff_ns);
  read_uint("NVC_FAULT_BACKOFF_CAP_NS", f.backoff_cap_ns);
  read_uint("NVC_FAULT_DEGRADE_AFTER", f.degrade_after);
  read_uint("NVC_SEED", f.seed);  // NVC_FAULT_SEED, read next, wins
  read_uint("NVC_FAULT_SEED", f.seed);
  read("NVC_FAULT_ATTACH", f.attach, parse_switch, kSwitch);

  // The worker-pool knobs live outside RuntimeConfig (the pools are
  // process-wide), but a malformed one is refused here too, before any
  // worker starts.
  (void)core::pool_settings_from_env();
  return c;
}

}  // namespace nvc::runtime
