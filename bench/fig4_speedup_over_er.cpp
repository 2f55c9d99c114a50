// Figure 4 — end-to-end performance of AT, SC, SC-offline and BEST as
// speedups over ER (wall clock, real flush instructions; single thread
// except mdb, which uses 8 as in the paper).
// Paper: SC 1.4x..34.2x over ER (avg 9.6x); AT avg 4.5x; SC/AT avg 2.1x.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Figure 4: speedups over ER",
               "Fig. 4 — SC avg 9.6x over ER; AT avg 4.5x; SC over AT 2.1x; "
               "BEST avg 16.1x");

  const int repeats = static_cast<int>(bench_knob("NVC_REPEATS", 3));
  TablePrinter table(
      {"Program", "ER(s)", "AT", "SC", "SC-offline", "BEST", "SC/AT"});
  std::vector<double> sc_over_at;

  for (const auto& name : all_workloads()) {
    const std::size_t threads = name == "mdb" ? 8 : 1;
    const auto params = params_from_env(threads);

    auto profile_params = params;
    profile_params.threads = 1;
    const auto knee = offline_knee(record_trace(name, profile_params));

    auto config = default_policy_config();
    const auto er = run_live_repeated(name, core::PolicyKind::kEager, params,
                                      config, repeats);
    const auto at = run_live_repeated(name, core::PolicyKind::kAtlas, params,
                                      config, repeats);
    const auto sc = run_live_repeated(name, core::PolicyKind::kSoftCache,
                                      params, config, repeats);
    auto offline_config = config;
    offline_config.cache_size = knee.chosen_size;
    const auto sco = run_live_repeated(
        name, core::PolicyKind::kSoftCacheOffline, params, offline_config,
        repeats);
    const auto best = run_live_repeated(name, core::PolicyKind::kBest,
                                        params, config, repeats);

    sc_over_at.push_back(at.seconds / sc.seconds);
    table.add_row({name, TablePrinter::fmt(er.seconds, 3),
                   TablePrinter::fmt_ratio(er.seconds / at.seconds),
                   TablePrinter::fmt_ratio(er.seconds / sc.seconds),
                   TablePrinter::fmt_ratio(er.seconds / sco.seconds),
                   TablePrinter::fmt_ratio(er.seconds / best.seconds),
                   TablePrinter::fmt_ratio(at.seconds / sc.seconds)});
  }
  table.add_row({"average", "-", "-", "-", "-", "-",
                 TablePrinter::fmt_ratio(summarize_means(sc_over_at).arithmetic)});
  table.print();
  return 0;
}
