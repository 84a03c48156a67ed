// Single-point experiment driver: evaluate the paper's scheme line-up on
// one custom generator configuration without writing code.  Whole sweeps
// (the figures, ablations and head-to-heads) run through tools/mcs_exp.
//
//   $ ./examples/sweep_cli --point --nsu 0.7 --cores 16 --levels 3
//   $ ./examples/sweep_cli --point --trials 50000 --jobs 4
#include <iostream>

#include "mcs/mcs.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"point", "run a single point (the only mode; kept for old scripts)"},
       {"trials", "task sets (default 2000; paper: 50000)"},
       {"seed", "base RNG seed (default 1)"},
       {"jobs",
        "workers (default: hardware concurrency; clamped to it; results "
        "are bit-identical for any N)"},
       {"cores", "M (default 8)"},
       {"levels", "K (default 4)"},
       {"nsu", "NSU (default 0.6)"},
       {"ifc", "IFC (default 0.4)"},
       {"alpha", "CA-TPA imbalance threshold (default 0.7)"},
       {"tasks", "fixed N (default: N ~ U{40..200})"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("sweep_cli");
    return 0;
  }

  exp::RunOptions options;
  gen::GenParams params = exp::default_gen_params();
  double alpha = exp::kDefaultAlpha;
  try {
    options.trials = cli.get_or("trials", exp::kDefaultTrials);
    options.seed = cli.get_or("seed", std::uint64_t{1});
    options.threads = svc::resolve_jobs(
        cli.get_or("jobs", std::uint64_t{util::default_thread_count()}));
    alpha = cli.get_or("alpha", exp::kDefaultAlpha);
    params.num_cores =
        static_cast<std::size_t>(cli.get_or("cores", std::uint64_t{8}));
    params.num_levels =
        static_cast<Level>(cli.get_or("levels", std::uint64_t{4}));
    params.nsu = cli.get_or("nsu", exp::kDefaultNsu);
    params.ifc = cli.get_or("ifc", exp::kDefaultIfc);
    params.num_tasks =
        static_cast<std::size_t>(cli.get_or("tasks", std::uint64_t{0}));
  } catch (const std::invalid_argument& e) {
    std::cerr << "sweep_cli: " << e.what() << '\n';
    return 1;
  }

  const auto schemes = partition::paper_schemes(alpha);
  const exp::PointResult pt = run_point(params, schemes, options, params.nsu);
  util::Table table({"scheme", "ratio", "U_sys", "U_avg", "Lambda", "probes"});
  for (const exp::SchemeAggregate& agg : pt.schemes) {
    table.begin_row();
    table.add_cell(agg.scheme);
    table.add_cell(agg.ratio(), 4);
    table.add_cell(agg.u_sys.mean(), 4);
    table.add_cell(agg.u_avg.mean(), 4);
    table.add_cell(agg.imbalance.mean(), 4);
    table.add_cell(agg.probes.mean(), 1);
  }
  table.print(std::cout);
  return 0;
}
