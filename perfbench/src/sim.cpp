// sim-validate: CA-TPA-accepted K = 2 and K = 4 task sets executed by
// sim::simulate under a seeded overrun scenario.
//
// Set-up generates the sets and partitions them (the sim engine's inputs);
// the timed loop simulates the pool round after round, its sets handed out
// one at a time to nproc threads, so that a round's speed does not hang on
// the one CPU a single thread lands on.  Every simulation is checked: a
// deadline miss on a partition the analysis accepted is forbidden under
// AMC, and each round must reproduce the first round's per-set job counts
// exactly.
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "mcs/mcs.hpp"

namespace perfbench {

namespace {

using namespace mcs;

struct SimInput {
  Level levels = 0;
  std::uint64_t trial = 0;
  std::unique_ptr<TaskSet> taskset;
  std::unique_ptr<Partition> partition;
  std::unique_ptr<sim::RandomScenario> scenario;
};

/// Sets per criticality configuration in the pool, and their sizes: the
/// pool is large and the sizes fixed so that the pool's cost varies little
/// from seed to seed.
constexpr std::size_t kSetsPerConfig = 48;
constexpr std::size_t kTasksK2 = 48;
constexpr std::size_t kTasksK4 = 100;
/// Probability that a job escalates past each budget level.
constexpr double kEscalation = 0.05;

gen::GenParams params_for(Level levels) {
  gen::GenParams params = exp::default_gen_params();
  params.num_levels = levels;
  params.num_cores = levels == 2 ? 4 : 8;
  params.num_tasks = levels == 2 ? kTasksK2 : kTasksK4;
  return params;
}

/// Draws trials until CA-TPA accepts kSetsPerConfig sets of each K;
/// `probes` accumulates CA-TPA's feasibility probes.
std::vector<SimInput> make_pool(std::uint64_t seed, SpanRecorder& rec,
                                std::uint64_t& probes) {
  const auto catpa = partition::make_scheme("CA-TPA");
  std::vector<SimInput> pool;
  for (const Level levels : {Level{2}, Level{4}}) {
    const gen::GenParams params = params_for(levels);
    const std::uint64_t stream = gen::derive_seed(seed, levels);
    std::size_t accepted = 0;
    for (std::uint64_t trial = 0; accepted < kSetsPerConfig; ++trial) {
      if (trial > 50 * kSetsPerConfig) {
        throw std::runtime_error("CA-TPA accepted too few generated sets");
      }
      std::unique_ptr<TaskSet> ts;
      {
        const ScopedSpan span(rec, "gen");
        ts = std::make_unique<TaskSet>(gen::generate_trial(params, stream, trial));
      }
      std::optional<partition::PartitionResult> placed;
      {
        const ScopedSpan span(rec, "partition.CA-TPA");
        placed.emplace(catpa->run(*ts, params.num_cores));
      }
      probes += placed->probes;
      if (!placed->success) continue;
      ++accepted;
      SimInput input;
      input.levels = levels;
      input.trial = trial;
      // The partition refers to its task set, which therefore lives on the
      // heap at a fixed address.
      input.partition = std::make_unique<Partition>(std::move(placed->partition));
      input.taskset = std::move(ts);
      input.scenario = std::make_unique<sim::RandomScenario>(
          gen::derive_seed(stream, 1000 + trial), kEscalation);
      pool.push_back(std::move(input));
    }
  }
  return pool;
}

struct RoundTotals {
  std::vector<std::uint64_t> released, switches, dropped;
};

/// Simulates every pool entry once on `threads` threads, then checks each
/// simulation in pool order.  The recorder is only touched by one thread:
/// the traced replay passes threads = 1.
RoundTotals simulate_round(const std::vector<SimInput>& pool, std::size_t threads,
                           SpanRecorder& rec, Result& result) {
  std::vector<sim::SimResult> results(pool.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < pool.size();) {
      const ScopedSpan span(rec, "sim.simulate");
      results[i] = sim::simulate(*pool[i].partition, *pool[i].scenario);
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(worker);
    worker();
  }
  RoundTotals totals;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const sim::SimResult& sim_result = results[i];
    totals.released.push_back(sim_result.total(&sim::CoreStats::jobs_released));
    totals.switches.push_back(sim_result.total(&sim::CoreStats::mode_switches));
    totals.dropped.push_back(sim_result.total(&sim::CoreStats::jobs_dropped));
    std::string what = "K=" + std::to_string(pool[i].levels) + " trial " +
                       std::to_string(pool[i].trial) + ": ";
    if (!sim_result.misses.empty()) {
      const sim::DeadlineMiss& miss = sim_result.misses.front();
      what += std::to_string(sim_result.misses.size()) +
              " deadline miss(es) on an accepted partition, first: task " +
              std::to_string(miss.task) + " job " + std::to_string(miss.job) +
              " core " + std::to_string(miss.core);
    }
    result.check(sim_result.misses.empty(), what);
  }
  return totals;
}

}  // namespace

void run_sim_workload(const Options& options, Result& result) {
  SpanRecorder off(false);
  std::uint64_t probes = 0;
  const std::vector<SimInput> pool = make_pool(options.seed, off, probes);
  result.info["sim_sets"] = std::to_string(pool.size());
  result.ready_ns = to_ns(Clock::now());
  result.ready_cpu_ns = process_cpu_ns();
  if (options.setup_only) return;

  if (!options.trace) {
    std::vector<double> round_ms, round_rate;
    RoundTotals first;
    std::uint64_t jobs = 0;
    const auto start = Clock::now();
    for (std::size_t round = 0;; ++round) {
      const auto t0 = Clock::now();
      const RoundTotals totals = simulate_round(pool, options.threads, off, result);
      const double round_s = seconds_between(t0, Clock::now());
      std::uint64_t released = 0;
      for (const std::uint64_t r : totals.released) released += r;
      jobs += released;
      round_rate.push_back(static_cast<double>(released) / round_s);
      round_ms.push_back(round_s * 1e3);
      if (round == 0) {
        first = totals;
      } else {
        result.check(totals.released == first.released &&
                         totals.switches == first.switches &&
                         totals.dropped == first.dropped,
                     "round " + std::to_string(round) +
                         " differs from round 0 on the same inputs");
      }
      if (seconds_between(start, Clock::now()) + round_s > options.seconds) break;
    }
    result.samples["throughput_per_s"] = round_rate;
    result.samples["latency_p50_ms"] = round_ms;
    const double throughput = summarize(round_rate).median;
    result.set("throughput_per_s", throughput, "1/s");
    result.set("latency_p50_ms", summarize(round_ms).median, "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("sim-validate: %zu rounds over %zu sets on %zu threads, %llu jobs "
                "released, median %.0f jobs/s\n",
                round_rate.size(), pool.size(), options.threads,
                static_cast<unsigned long long>(jobs), throughput);
    return;
  }

  // Traced replay: the same set-up and one round, with spans.  The obs
  // counters stay on for all three replays, and the untraced replay runs
  // before and after the traced one to cancel drift.
  const obs::MetricsEnabledGuard metrics_on(true);
  const auto untraced = [&] {
    Result scratch;
    std::uint64_t unused_probes = 0;
    const auto t0 = Clock::now();
    const std::vector<SimInput> again = make_pool(options.seed, off, unused_probes);
    (void)simulate_round(again, 1, off, scratch);
    return seconds_between(t0, Clock::now());
  };
  const double untraced_before = untraced();
  SpanRecorder rec(true);
  RoundTotals totals;
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  const auto t0 = Clock::now();
  {
    const ScopedSpan root(rec, "replay");
    std::uint64_t traced_probes = 0;
    const std::vector<SimInput> traced_pool = make_pool(options.seed, rec, traced_probes);
    totals = simulate_round(traced_pool, 1, rec, result);
  }
  const double traced_s = seconds_between(t0, Clock::now());
  const auto deltas = obs::counter_deltas(before, obs::registry().snapshot());
  const double untraced_s = (untraced_before + untraced()) / 2.0;

  std::uint64_t switches = 0, dropped = 0;
  for (std::size_t i = 0; i < totals.switches.size(); ++i) {
    switches += totals.switches[i];
    dropped += totals.dropped[i];
  }
  const std::vector<double> sim_us = rec.durations_us("sim.simulate");
  const std::vector<double> part_us = rec.durations_us("partition.CA-TPA");
  result.set("sim.us_per_hyperperiod", percentile(sim_us, 50), "us");
  result.set("sim.mode_switches", static_cast<double>(switches), "count");
  result.set("sim.jobs_dropped", static_cast<double>(dropped), "count");
  result.set("gen.calls", static_cast<double>(rec.durations_us("gen").size()), "count");
  result.set("gen.us_per_trial_p50", percentile(rec.durations_us("gen"), 50), "us");
  result.set("partition.CA-TPA.us_p50", percentile(part_us, 50), "us");
  result.set("partition.CA-TPA.us_p99", percentile(part_us, 99), "us");
  result.set("partition.CA-TPA.accept_ratio",
             static_cast<double>(pool.size()) / static_cast<double>(part_us.size()),
             "ratio");
  result.set("partition.CA-TPA.probes_per_run",
             static_cast<double>(probes) / static_cast<double>(part_us.size()), "count");
  const auto counter = [&](const char* name) {
    const auto it = deltas.find(name);
    return it == deltas.end() ? 0.0 : static_cast<double>(it->second);
  };
  result.set("analysis.probes", counter("placement.probes"), "count");
  result.set("analysis.commits", counter("placement.commits"), "count");
  if (counter("placement.probes") > 0) {
    result.set("analysis.probe_accept_ratio",
               1.0 - counter("placement.probes_infeasible") / counter("placement.probes"),
               "ratio");
  }
  result.set("bench.replay_s", traced_s, "s");
  result.set("bench.trace_overhead_s", traced_s - untraced_s, "s");
  print_layer_table(rec, traced_s);
  const std::string span_path = options.out_dir + "/spans-sim-validate.json";
  rec.write(span_path);
  std::printf("spans written to %s\n", span_path.c_str());
}

}  // namespace perfbench
