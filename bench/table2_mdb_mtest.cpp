// Table II — execution times of the Mtest workload on MDB under the five
// timed techniques, with speedups normalized to ER.
// Paper (1M inserts, 8 threads): ER 24.58s, AT 2.94x, SC 5.07x,
// SC-offline 5.60x, BEST 6.94x.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Table II: Mtest on MDB",
               "Table II — speedups over ER: AT 2.94x, SC 5.07x, "
               "SC-offline 5.60x, BEST 6.94x");

  const std::size_t threads = bench_knob("NVC_THREADS", 8);
  const auto params = params_from_env(threads);
  const int repeats = static_cast<int>(bench_knob("NVC_REPEATS", 3));

  // SC-offline profiles a run first (trace mode) and fixes the knee size.
  auto profile_params = params;
  profile_params.threads = 1;
  const auto traces = record_trace("mdb", profile_params);
  const auto knee = offline_knee(traces);
  std::printf("offline-profiled cache size: %zu (paper: 20)\n\n",
              knee.chosen_size);

  struct Technique {
    const char* label;
    core::PolicyKind kind;
    std::size_t cache_size;  // 0 = policy default
  };
  const Technique techniques[] = {
      {"ER", core::PolicyKind::kEager, 0},
      {"AT", core::PolicyKind::kAtlas, 0},
      {"SC", core::PolicyKind::kSoftCache, 8},
      {"SC-o", core::PolicyKind::kSoftCacheOffline, knee.chosen_size},
      {"BEST", core::PolicyKind::kBest, 0},
  };

  TablePrinter table({"Method", "Time(sec)", "Speedup", "Flush ratio"});
  double er_seconds = 0.0;
  for (const Technique& t : techniques) {
    auto config = default_policy_config();
    if (t.cache_size != 0) config.cache_size = t.cache_size;
    const auto result =
        run_live_repeated("mdb", t.kind, params, config, repeats);
    if (t.kind == core::PolicyKind::kEager) er_seconds = result.seconds;
    table.add_row({t.label, TablePrinter::fmt(result.seconds, 3),
                   TablePrinter::fmt_ratio(er_seconds / result.seconds),
                   TablePrinter::fmt(result.stats.flush_ratio(), 5)});
  }
  table.print();
  return 0;
}
