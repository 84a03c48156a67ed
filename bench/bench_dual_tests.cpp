// Extra experiment E3 (beyond the paper): schedulability-test strength on
// dual-criticality workloads -- the Eq. (4) utilization bound, the Eq. (7)
// EDF-VD test (via FFD), CA-TPA, and the far costlier DBF-based partitioner
// in the spirit of Gu et al. [20].  Probe counts show the complexity gap.
#include <iostream>

#include "mcs/mcs.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"trials", "task sets per data point (default 200; the DBF probes "
                  "dominate the cost)"},
       {"seed", "base RNG seed (default 1)"},
       {"threads", "worker threads (default: hardware concurrency)"},
       {"csv", "also write results to this CSV file"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("bench_dual_tests");
    return 0;
  }

  exp::RunOptions options;
  options.trials = cli.get_or("trials", std::uint64_t{200});
  options.seed = cli.get_or("seed", std::uint64_t{1});
  options.threads =
      static_cast<std::size_t>(cli.get_or("threads", std::uint64_t{0}));

  exp::Sweep sweep;
  sweep.name = "dual_tests";
  sweep.x_label = "NSU";
  for (double nsu : exp::kNsuRange) {
    gen::GenParams p = exp::default_gen_params();
    p.num_levels = 2;
    p.nsu = nsu;
    // Short periods keep the DBF busy-period bounds (and thus its cost)
    // manageable; all schemes see the same workloads.
    p.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
    p.num_tasks = 40;
    sweep.points.push_back(exp::SweepPoint{
        .x = nsu, .params = p, .make_schemes = [] {
          partition::PartitionerList out;
          out.push_back(std::make_unique<partition::ClassicPartitioner>(
              partition::FitRule::kFirst, partition::TestStrength::kBasicOnly));
          out.push_back(std::make_unique<partition::ClassicPartitioner>(
              partition::FitRule::kFirst));
          out.push_back(std::make_unique<partition::CaTpaPartitioner>());
          out.push_back(std::make_unique<partition::DemandFfdPartitioner>(
              analysis::DemandTest::kDbf));
          return out;
        }});
  }

  const exp::SweepResult result =
      run_sweep(sweep, options, [](std::size_t done, std::size_t total) {
        std::cerr << "[dual_tests] point " << done << "/" << total << " done\n";
      });
  print_figure(std::cout, result,
               "E3 - dual-criticality schedulability-test strength");
  if (const auto csv = cli.get("csv")) {
    write_csv(*csv, result);
  }
  return 0;
}
