// Ablation — flush-instruction choice. Atlas uses clflush (strongly
// ordered, invalidating); clflushopt is weakly ordered; clwb writes back
// without invalidating (the paper notes Atlas avoids it for staleness
// visibility, but it removes the indirect re-miss cost). This bench times
// the SC policy under each available backend plus the calibrated simulated
// one.
#include <cstdio>

#include "common/cpu.hpp"
#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Ablation: flush instruction (clflush / clflushopt / clwb / sim)",
               "Section II-A discussion — clflush invalidates (indirect "
               "miss cost); clwb does not");

  const auto& features = cpu_features();
  std::printf("cpu support: clflush=%d clflushopt=%d clwb=%d\n\n",
              features.clflush, features.clflushopt, features.clwb);

  const int repeats = static_cast<int>(bench_knob("NVC_REPEATS", 3));
  const auto params = params_from_env(1);

  TablePrinter table({"Workload", "Backend", "SC time (s)", "ER time (s)"});
  for (const char* workload : {"persistent-array", "water-nsquared"}) {
    for (const char* backend : {"clflush", "clflushopt", "clwb", "sim"}) {
      ::setenv("NVC_FLUSH", backend, 1);
      const auto sc =
          run_live_repeated(workload, core::PolicyKind::kSoftCache, params,
                            default_policy_config(), repeats);
      const auto er =
          run_live_repeated(workload, core::PolicyKind::kEager, params,
                            default_policy_config(), repeats);
      table.add_row({workload, backend, TablePrinter::fmt(sc.seconds, 4),
                     TablePrinter::fmt(er.seconds, 4)});
    }
  }
  ::unsetenv("NVC_FLUSH");
  table.print();

  // Model-side ablation: the share of flush cost that is *indirect*
  // (invalidation => re-miss). clwb keeps the line resident; the paper
  // notes Atlas still uses clflush for cross-thread visibility.
  std::printf("\ncost-model view (simulated cycles, ER policy — every store\n"
              "flushed, so invalidation hits every line revisit):\n");
  TablePrinter model({"Workload", "clflush semantics", "clwb semantics",
                      "indirect share"});
  for (const char* workload : {"barnes", "water-nsquared", "raytrace"}) {
    const auto traces = record_trace(workload, params_from_env(1));
    auto sim = sim_config_for_threads(1, default_policy_config());
    sim.cost.invalidate_on_flush = true;
    const double clflush_cycles = workloads::simulate_run(
        traces, core::PolicyKind::kEager, sim).makespan_cycles();
    sim.cost.invalidate_on_flush = false;
    const double clwb_cycles = workloads::simulate_run(
        traces, core::PolicyKind::kEager, sim).makespan_cycles();
    model.add_row({workload, TablePrinter::fmt(clflush_cycles / 1e6, 2),
                   TablePrinter::fmt(clwb_cycles / 1e6, 2),
                   TablePrinter::fmt_percent(
                       (clflush_cycles - clwb_cycles) / clflush_cycles)});
  }
  model.print();
  return 0;
}
