// Swiss-army CLI around the task-set file format: generate workloads to a
// file, analyze them, partition them with any scheme, and simulate the
// result — all without writing code.
//
//   $ ./examples/taskset_tool --mode gen --out workload.mcs --tasks 20
//   $ ./examples/taskset_tool --mode analyze --in workload.mcs
//   $ ./examples/taskset_tool --mode partition --in workload.mcs
//         ... --scheme CA-TPA --cores 4 --out mapping.part
//   $ ./examples/taskset_tool --mode simulate --in workload.mcs
//         ... --scheme CA-TPA --cores 4 --escalation 0.3
#include <algorithm>
#include <fstream>
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

using namespace mcs;

int do_gen(const util::Cli& cli) {
  gen::GenParams params = exp::default_gen_params();
  params.num_cores =
      static_cast<std::size_t>(cli.get_or("cores", std::uint64_t{8}));
  params.num_levels =
      static_cast<Level>(cli.get_or("levels", std::uint64_t{4}));
  params.nsu = cli.get_or("nsu", exp::kDefaultNsu);
  params.ifc = cli.get_or("ifc", exp::kDefaultIfc);
  params.num_tasks =
      static_cast<std::size_t>(cli.get_or("tasks", std::uint64_t{0}));
  gen::Rng rng(cli.get_or("seed", std::uint64_t{1}));
  const TaskSet ts = generate(params, rng);
  const std::string out = cli.get_or("out", std::string{});
  if (out.empty()) {
    io::write_taskset(std::cout, ts);
  } else {
    io::save_taskset(out, ts);
    std::cout << "wrote " << ts.size() << " tasks to " << out << '\n';
  }
  return 0;
}

int do_analyze(const util::Cli& cli) {
  const TaskSet ts = io::load_taskset(cli.get_or("in", std::string{}));
  std::cout << ts.size() << " tasks, K = " << ts.num_levels() << '\n';
  const UtilMatrix& u = ts.utils();
  for (Level k = 1; k <= ts.num_levels(); ++k) {
    std::cout << "  U(" << k << ") = "
              << util::format_double(ts.total_util(k), 4) << '\n';
  }
  std::cout << "  own-level sum (Eq. 4 LHS) = "
            << util::format_double(u.own_level_sum(), 4) << '\n';
  const analysis::Theorem1Result r = analysis::improved_test(u);
  std::cout << "  single-core EDF-VD (Theorem 1): "
            << (r.schedulable ? "schedulable" : "NOT schedulable");
  if (r.schedulable) std::cout << " (k* = " << r.best_k << ")";
  std::cout << '\n';
  if (ts.num_levels() == 2) {
    std::cout << "  single-core AMC-rtb (fixed priority): "
              << (analysis::amc_rtb_test(ts).schedulable ? "schedulable"
                                                         : "NOT schedulable")
              << '\n';
    // The DBF test scales every HI task by one x (LO tasks keep 1).
    const analysis::DemandResult dbf = analysis::dbf_dual_test(ts);
    double scale = 1.0;
    for (const double x : dbf.scales) scale = std::min(scale, x);
    std::cout << "  single-core DBF test: "
              << (dbf.schedulable ? "schedulable (scale " +
                                        util::format_double(scale, 3) + ")"
                                  : "NOT schedulable")
              << '\n';
  }
  return 0;
}

int do_partition(const util::Cli& cli, bool simulate_after) {
  const TaskSet ts = io::load_taskset(cli.get_or("in", std::string{}));
  const auto cores =
      static_cast<std::size_t>(cli.get_or("cores", std::uint64_t{4}));
  const auto scheme = partition::make_scheme(
      cli.get_or("scheme", std::string{"CA-TPA"}), cli.get_or("alpha", 0.7));
  const partition::PartitionResult r = scheme->run(ts, cores);
  if (!r.success) {
    std::cout << scheme->name() << ": FAILED (task id "
              << ts[*r.failed_task].id() << " unplaceable)\n";
    return 1;
  }
  const analysis::PartitionMetrics m = analysis::partition_metrics(r.partition);
  std::cout << scheme->name() << ": success; U_sys = "
            << util::format_double(m.u_sys, 4)
            << ", U_avg = " << util::format_double(m.u_avg, 4)
            << ", Lambda = " << util::format_double(m.imbalance, 4) << '\n';

  const std::string out = cli.get_or("out", std::string{});
  if (!out.empty()) {
    std::ofstream os(out);
    io::write_partition(os, r.partition);
    std::cout << "partition written to " << out << '\n';
  }

  if (simulate_after) {
    const sim::RandomScenario scenario(cli.get_or("seed", std::uint64_t{1}),
                                       cli.get_or("escalation", 0.3));
    const sim::SimResult run = simulate(r.partition, scenario);
    std::cout << "simulated to t=" << run.horizon << ": "
              << run.total(&sim::CoreStats::mode_switches)
              << " mode switches, "
              << run.total(&sim::CoreStats::jobs_completed) << " completed, "
              << run.total(&sim::CoreStats::jobs_dropped) << " dropped, "
              << run.misses.size() << " misses\n";
    return run.missed_deadline() ? 1 : 0;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(
      argc, argv,
      {{"mode", "gen | analyze | partition | simulate"},
       {"in", "input task-set file"},
       {"out", "output file (task set for gen, partition for partition)"},
       {"scheme", "WFD | FFD | BFD | Hybrid | CA-TPA (default CA-TPA)"},
       {"cores", "number of cores (default 4; gen default 8)"},
       {"levels", "K for gen (default 4)"},
       {"nsu", "NSU for gen (default 0.6)"},
       {"ifc", "IFC for gen (default 0.4)"},
       {"tasks", "fixed N for gen (default: N ~ U{40..200})"},
       {"alpha", "CA-TPA imbalance threshold (default 0.7)"},
       {"escalation", "per-level overrun probability for simulate (0.3)"},
       {"seed", "RNG seed (default 1)"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("taskset_tool");
    return 0;
  }
  try {
    const std::string mode = cli.get_or("mode", std::string{"analyze"});
    if (mode == "gen") return do_gen(cli);
    if (mode == "analyze") return do_analyze(cli);
    if (mode == "partition") return do_partition(cli, false);
    if (mode == "simulate") return do_partition(cli, true);
    std::cerr << "unknown --mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
