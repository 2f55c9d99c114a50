// Table I — the cost of eager data persistence on the SPLASH2 programs:
// slowdown of ER (clflush after every persistent store) relative to running
// with no persistence overhead (BEST). Paper: 6x..33x, average 22x.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Table I: eager-persistence slowdown on SPLASH2",
               "Table I — barnes 22x, fmm 24x, ocean 17x, raytrace 6x, "
               "volrend 26x, water-nsquared 24x, water-spatial 33x; avg 22x");

  const auto params = params_from_env(1);
  const int repeats = static_cast<int>(bench_knob("NVC_REPEATS", 3));
  const auto config = default_policy_config();

  TablePrinter table({"Program", "BEST (s)", "ER (s)", "Slowdown"});
  std::vector<double> slowdowns;
  for (const auto& name : splash_workloads()) {
    const auto best = run_live_repeated(name, core::PolicyKind::kBest,
                                        params, config, repeats);
    const auto er = run_live_repeated(name, core::PolicyKind::kEager, params,
                                      config, repeats);
    const double slowdown = er.seconds / best.seconds;
    slowdowns.push_back(slowdown);
    table.add_row({name, TablePrinter::fmt(best.seconds, 3),
                   TablePrinter::fmt(er.seconds, 3),
                   TablePrinter::fmt_ratio(slowdown)});
  }
  table.add_row({"average", "-", "-",
                 TablePrinter::fmt_ratio(summarize_means(slowdowns).arithmetic)});
  table.print();
  return 0;
}
