// Figure 5 — parallel performance of SC and SC-offline relative to AT for
// thread counts 1..64, on the deterministic hwsim cost model (the paper ran
// a 60-core Xeon; see DESIGN.md substitutions). NVC_THREADS caps the sweep.
// Paper: SC beats AT in 36/42 configurations; greatest speedup 4.13x
// (water-nsquared, 4 threads); the gap narrows or inverts at 16-32 threads
// for fmm and water-spatial.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Figure 5: SC and SC-offline speedup over AT vs threads",
               "Fig. 5 — SC > AT in 36/42 tests; max 4.13x; inversions at "
               "high thread counts for cache-contention-bound programs");

  const std::size_t max_threads = bench_knob("NVC_THREADS", 64);
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  int sc_wins = 0;
  int total = 0;
  TablePrinter table({"Program", "Threads", "AT (Mcycles)", "SC/AT",
                      "SC-offline/AT"});
  for (const auto& name : splash_workloads()) {
    // Offline size from the single-thread profile (as SC-offline does).
    const auto knee = offline_knee(record_trace(name, params_from_env(1)));

    for (const std::size_t threads : thread_counts) {
      const auto traces = record_trace(name, params_from_env(threads));
      auto pc = default_policy_config();
      const auto sim = sim_config_for_threads(threads, pc);

      const double at = workloads::simulate_run(
          traces, core::PolicyKind::kAtlas, sim).makespan_cycles();
      const double sc = workloads::simulate_run(
          traces, core::PolicyKind::kSoftCache, sim).makespan_cycles();
      auto sim_off = sim;
      sim_off.policy.cache_size = knee.chosen_size;
      const double sco = workloads::simulate_run(
          traces, core::PolicyKind::kSoftCacheOffline, sim_off)
                             .makespan_cycles();

      ++total;
      if (sc < at) ++sc_wins;
      table.add_row({name, TablePrinter::fmt_count(threads),
                     TablePrinter::fmt(at / 1e6, 2),
                     TablePrinter::fmt_ratio(at / sc),
                     TablePrinter::fmt_ratio(at / sco)});
    }
  }
  table.print();
  std::printf("\nSC faster than AT in %d/%d configurations (paper: 36/42)\n",
              sc_wins, total);
  return 0;
}
