// Figure 6 — the instruction overhead of adaptive caching, measured as the
// slowdown of SC over BEST across thread counts (hwsim cost model).
// Paper: ocean starts near 11x and falls to ~3x; the other programs sit
// between 1x and 2x, roughly flat across thread counts.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Figure 6: slowdown of SC over BEST vs threads",
               "Fig. 6 — ocean 11x -> 3x; others flat between 1x and 2x");

  const std::size_t max_threads = bench_knob("NVC_THREADS", 32);
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"Program", "Threads", "BEST (Mcycles)", "SC (Mcycles)",
                      "SC/BEST"});
  for (const auto& name : splash_workloads()) {
    for (const std::size_t threads : thread_counts) {
      const auto traces = record_trace(name, params_from_env(threads));
      const auto sim =
          sim_config_for_threads(threads, default_policy_config());
      const double best = workloads::simulate_run(
          traces, core::PolicyKind::kBest, sim).makespan_cycles();
      const double sc = workloads::simulate_run(
          traces, core::PolicyKind::kSoftCache, sim).makespan_cycles();
      table.add_row({name, TablePrinter::fmt_count(threads),
                     TablePrinter::fmt(best / 1e6, 2),
                     TablePrinter::fmt(sc / 1e6, 2),
                     TablePrinter::fmt_ratio(sc / best)});
    }
  }
  table.print();
  return 0;
}
