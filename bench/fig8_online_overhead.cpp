// Figure 8 — the cost of online cache-size selection: run SC once with the
// best size preset (no sampling) and once with online sampling + adaptation,
// and report the time difference, for 1 and 8 threads.
// Paper: overhead is a near-fixed absolute cost (avg 0.52 s on their
// machine), 1%..10% of execution time, avg 6.78%.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Figure 8: online cache-size-selection overhead",
               "Fig. 8 — overhead 1%..10% of execution time, avg 6.78%");

  const int repeats = static_cast<int>(bench_knob("NVC_REPEATS", 3));
  TablePrinter table({"Program", "Threads", "preset (s)", "online (s)",
                      "overhead"});
  std::vector<double> overheads;

  for (const auto& name : splash_workloads()) {
    const auto knee = offline_knee(record_trace(name, params_from_env(1)));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto params = params_from_env(threads);
      auto preset_config = default_policy_config();
      preset_config.cache_size = knee.chosen_size;
      const auto preset = run_live_repeated(
          name, core::PolicyKind::kSoftCacheOffline, params, preset_config,
          repeats);
      const auto online = run_live_repeated(
          name, core::PolicyKind::kSoftCache, params,
          default_policy_config(), repeats);
      const double overhead =
          (online.seconds - preset.seconds) / online.seconds;
      overheads.push_back(overhead);
      table.add_row({name, TablePrinter::fmt_count(threads),
                     TablePrinter::fmt(preset.seconds, 3),
                     TablePrinter::fmt(online.seconds, 3),
                     TablePrinter::fmt_percent(overhead)});
    }
  }
  table.print();
  std::printf("\naverage overhead: %s (paper: 6.78%%)\n",
              TablePrinter::fmt_percent(
                  summarize_means(overheads).arithmetic)
                  .c_str());
  return 0;
}
