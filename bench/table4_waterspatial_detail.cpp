// Table IV — detailed performance analysis of water-spatial across thread
// counts for AT, SC and BEST: executed instructions, software flush ratio,
// and L1 data-cache miss ratio (hwsim cost model; the paper used Linux perf
// on a 60-core Xeon — see DESIGN.md substitutions).
// Paper shapes: SC flush ratio 6-10x below AT, both rising with threads;
// SC executes ~8% more instructions than AT; L1 miss ratios SC < AT, both
// converging toward BEST's (contention) floor as threads grow.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner(
      "Table IV: water-spatial detail (instructions / flush ratio / L1 mr)",
      "Table IV — e.g. 1 thread: AT flush 2.61% vs SC 0.43%; L1 mr AT "
      "58.2% vs SC 30.8% vs BEST 20.3%; BEST L1 mr rises 20%->71% with "
      "threads");

  const std::size_t max_threads = bench_knob("NVC_THREADS", 32);
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  struct Technique {
    const char* label;
    core::PolicyKind kind;
  };
  const Technique techniques[] = {
      {"AT", core::PolicyKind::kAtlas},
      {"SC", core::PolicyKind::kSoftCache},
      {"BE", core::PolicyKind::kBest},
  };

  TablePrinter table({"Metric", "Tech", "1", "2", "4", "8", "16", "32"});
  std::vector<std::vector<std::string>> rows(9);
  std::map<std::size_t, std::map<std::string, workloads::SimRunResult>> runs;

  for (const std::size_t threads : thread_counts) {
    const auto traces = record_trace("water-spatial",
                                     params_from_env(threads));
    const auto sim = sim_config_for_threads(threads, default_policy_config());
    for (const Technique& t : techniques) {
      runs[threads][t.label] =
          workloads::simulate_run(traces, t.kind, sim);
    }
  }

  for (std::size_t ti = 0; ti < 3; ++ti) {
    const Technique& t = techniques[ti];
    std::vector<std::string> instr{"inst. (M)", t.label};
    std::vector<std::string> flush{"flush ratio", t.label};
    std::vector<std::string> l1{"hw L1 mr", t.label};
    for (const std::size_t threads : thread_counts) {
      const auto& run = runs[threads][t.label];
      instr.push_back(TablePrinter::fmt(
          static_cast<double>(run.total_instructions()) / 1e6, 2));
      flush.push_back(TablePrinter::fmt_percent(run.flush_ratio()));
      l1.push_back(TablePrinter::fmt_percent(run.l1_miss_ratio()));
    }
    // Pad when max_threads < 32.
    while (instr.size() < 8) {
      instr.push_back("-");
      flush.push_back("-");
      l1.push_back("-");
    }
    table.add_row(std::move(instr));
    table.add_row(std::move(flush));
    table.add_row(std::move(l1));
  }
  table.print();
  return 0;
}
