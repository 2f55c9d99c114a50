// Table III — benchmark statistics and data flush ratios of the techniques
// on all 12 applications. ER is 1 by construction; LA is the lower bound;
// the paper's headline is the AT/SC column (avg ~12x excluding the cases
// the text calls out) and SC/LA (avg 1.43x).
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner(
      "Table III: data flush ratios of ER / LA / AT / SC",
      "Table III — e.g. barnes AT 0.082 vs SC 0.0039 (20.99x); "
      "water-spatial AT 0.071 vs SC 0.0016 (45.4x); avg AT/SC 11.9x");

  const auto params = params_from_env(1);
  auto base_config = default_policy_config();

  TablePrinter table({"Benchmark", "Size", "FASEs", "Stores", "ER", "LA",
                      "AT", "SC", "AT/SC", "SC/LA", "knee"});
  std::vector<double> at_over_sc;
  std::vector<double> sc_over_la;

  for (const auto& name : all_workloads()) {
    const auto traces = record_trace(name, params);
    const auto knee = offline_knee(traces);

    const auto er =
        workloads::replay_flush_count_all(traces, core::PolicyKind::kEager);
    const auto la =
        workloads::replay_flush_count_all(traces, core::PolicyKind::kLazy);
    const auto at = workloads::replay_flush_count_all(
        traces, core::PolicyKind::kAtlas, base_config);
    // SC: online policy starting at the default size with bursty sampling.
    auto online_config = base_config;
    const auto sc = workloads::replay_flush_count_all(
        traces, core::PolicyKind::kSoftCache, online_config);

    const double at_sc = sc.flushes > 0 ? static_cast<double>(at.flushes) /
                                              static_cast<double>(sc.flushes)
                                        : 1.0;
    const double sc_la = la.flushes > 0 ? static_cast<double>(sc.flushes) /
                                              static_cast<double>(la.flushes)
                                        : 1.0;
    at_over_sc.push_back(at_sc);
    sc_over_la.push_back(sc_la);

    std::uint64_t fases = 0;
    for (std::size_t t = 0; t < traces.threads(); ++t) {
      fases += traces.trace(t).fase_count;
    }

    auto workload = make_any_workload(name);
    table.add_row({name, workload->problem_size(params),
                   TablePrinter::fmt_count(fases),
                   TablePrinter::fmt_count(er.stores),
                   TablePrinter::fmt(er.flush_ratio(), 5),
                   TablePrinter::fmt(la.flush_ratio(), 5),
                   TablePrinter::fmt(at.flush_ratio(), 5),
                   TablePrinter::fmt(sc.flush_ratio(), 5),
                   TablePrinter::fmt_ratio(at_sc),
                   TablePrinter::fmt_ratio(sc_la),
                   TablePrinter::fmt_count(knee.chosen_size)});
  }
  table.add_row({"average", "-", "-", "-", "1.00000", "-", "-", "-",
                 TablePrinter::fmt_ratio(summarize_means(at_over_sc).arithmetic),
                 TablePrinter::fmt_ratio(summarize_means(sc_over_la).arithmetic),
                 "-"});
  table.print();
  std::printf("\nknee column: the size SC's offline analysis selects "
              "(paper Section IV-G: 15, 10, 2, 8, 3, 28, 23, 20 for the "
              "SPLASH2 programs and mdb)\n");
  return 0;
}
