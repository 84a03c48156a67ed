#include "mcs/verify/oracle.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "mcs/analysis/demand.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/verify/scenarios.hpp"

namespace mcs::verify {

namespace {

/// The task indices the targeted per-task families aim at: everything when
/// the set is small, a seeded sample otherwise (determinism over coverage).
std::vector<std::size_t> targeted_tasks(const Partition& partition,
                                        const OracleOptions& opts) {
  const std::size_t n = partition.taskset().size();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (partition.core_of(i) != kUnassigned) out.push_back(i);
  }
  if (out.size() <= opts.max_targeted_tasks) return out;
  gen::Rng rng(gen::derive_seed(opts.seed, 0x7a26ULL));
  for (std::size_t i = 0; i < opts.max_targeted_tasks; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(0, out.size() - 1 - i));
    std::swap(out[i], out[j]);
  }
  out.resize(opts.max_targeted_tasks);
  return out;
}

}  // namespace

SoundnessOracle::SoundnessOracle(OracleOptions options)
    : options_(std::move(options)) {}

OracleVerdict SoundnessOracle::check(const Partition& partition) const {
  OracleVerdict verdict;
  const TaskSet& ts = partition.taskset();
  const Level K = ts.num_levels();

  sim::SimConfig base;
  if (options_.runtime == RuntimeKind::kFixedPriority) {
    base.scheduler = sim::SchedulerKind::kFixedPriority;
  }
  base.dual_scales = options_.dual_scales;

  const auto probe = [&](const sim::ExecutionScenario& scenario,
                         const sim::SimConfig& config,
                         const std::string& label) -> bool {
    if (!verdict.sound && options_.stop_at_first) return true;
    ++verdict.scenarios_run;
    const sim::SimResult r = sim::simulate(partition, scenario, config);
    if (r.missed_deadline()) {
      verdict.sound = false;
      verdict.counterexamples.push_back(
          CounterExample{label, r.misses.front()});
      if (options_.stop_at_first) return true;
    }
    return false;
  };

  // Whether the exact-hyperperiod re-run is worthwhile: the set has a true
  // hyperperiod, it is affordable, and it actually differs from the default
  // window.
  const std::optional<double> hp = sim::integral_hyperperiod(ts);
  const bool run_exact = options_.exact_hyperperiod && hp.has_value() &&
                         *hp <= options_.max_exact_horizon &&
                         *hp > sim::default_horizon(ts);
  sim::SimConfig exact = base;
  exact.use_hyperperiod_horizon = true;

  if (options_.fixed_level_sweep) {
    for (Level k = 1; k <= K; ++k) {
      const sim::FixedLevelScenario scenario(k);
      std::ostringstream label;
      label << "fixed-level k=" << k;
      if (probe(scenario, base, label.str())) return verdict;
      if (run_exact &&
          probe(scenario, exact, label.str() + " hyperperiod")) {
        return verdict;
      }
    }
  }

  const std::vector<std::size_t> targets = targeted_tasks(partition, options_);

  if (options_.single_task_escalations) {
    for (const std::size_t t : targets) {
      if (ts[t].level() < 2) continue;  // a level-1 task cannot escalate
      const SingleTaskEscalationScenario scenario(ts[t].id());
      std::ostringstream label;
      label << "single-task-escalation id=" << ts[t].id();
      if (probe(scenario, base, label.str())) return verdict;
    }
  }

  if (options_.threshold_overruns) {
    for (const std::size_t t : targets) {
      for (Level k = 1; k < ts[t].level(); ++k) {
        const ThresholdOverrunScenario scenario(ts[t].id(), k);
        std::ostringstream label;
        label << "threshold-overrun id=" << ts[t].id() << " k=" << k;
        if (probe(scenario, base, label.str())) return verdict;
      }
    }
  }

  const double probs[] = {0.1, 0.3, 0.5, 0.9};
  for (std::size_t batch = 0; batch < options_.random_batches; ++batch) {
    for (const double p : probs) {
      const std::uint64_t seed = gen::derive_seed(
          options_.seed, batch * 16 + static_cast<std::uint64_t>(p * 10));
      const sim::RandomScenario scenario(seed, p);
      std::ostringstream label;
      label << "random p=" << p << " seed=" << seed;
      if (probe(scenario, base, label.str())) return verdict;
      if (run_exact && batch == 0 &&
          probe(scenario, exact, label.str() + " hyperperiod")) {
        return verdict;
      }
      for (const double jitter : options_.jitter_sweep) {
        sim::SimConfig cfg = base;
        cfg.sporadic_jitter = jitter;
        cfg.arrival_seed = gen::derive_seed(seed, 0x51);
        std::ostringstream jlabel;
        jlabel << label.str() << " jitter=" << jitter;
        if (probe(scenario, cfg, jlabel.str())) return verdict;
      }
    }
  }

  return verdict;
}

OracleOptions options_for_scheme(const std::string& scheme,
                                 const Partition& partition,
                                 std::uint64_t seed) {
  OracleOptions opts;
  opts.seed = seed;
  if (scheme == "FP-AMC") opts.runtime = RuntimeKind::kFixedPriority;
  std::optional<analysis::DemandTest> demand;
  if (scheme == "DBF-FFD") demand = analysis::DemandTest::kDbf;
  if (scheme == "GE-FFD" || scheme == "UD-TPA/ge") {
    demand = analysis::DemandTest::kGe;
  }
  if (demand) {
    // A demand-gated acceptance is tied to the deadline scales it chose;
    // re-derive them per core (the test is deterministic, so this matches
    // what the partitioner's final accept of each core chose).
    const TaskSet& ts = partition.taskset();
    opts.dual_scales.assign(ts.size(), 1.0);
    for (std::size_t m = 0; m < partition.num_cores(); ++m) {
      const auto& members = partition.tasks_on(m);
      if (members.empty()) continue;
      const analysis::DemandResult r =
          analysis::demand_dual_test(*demand, ts, members);
      if (!r.schedulable) continue;  // the claims checker flags this case
      for (const std::size_t t : members) {
        if (ts[t].level() == 2) opts.dual_scales[t] = r.scales[t];
      }
    }
  }
  return opts;
}

std::string OracleVerdict::describe() const {
  std::ostringstream os;
  if (sound) {
    os << "sound (" << scenarios_run << " scenarios)";
  } else {
    const CounterExample& ce = counterexamples.front();
    os << "UNSOUND after " << scenarios_run << " scenarios: [" << ce.scenario
       << "] task " << ce.miss.task << " job " << ce.miss.job
       << " missed deadline " << ce.miss.deadline << " at t="
       << ce.miss.detected_at << " (core " << ce.miss.core << ", mode "
       << static_cast<int>(ce.miss.mode) << ")";
  }
  return os.str();
}

}  // namespace mcs::verify
