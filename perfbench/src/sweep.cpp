// sweep-util and sweep-demand: builtin sweep specs through the entry points
// `mcs_exp` uses, plus the benchmark's own replay of the same trials.
//
// Untraced runs repeat the whole sweep until the time is up and report
// task sets evaluated per second.  The trials are then replayed from the
// benchmark's own loop and every (spec, point, scheme) schedulable count
// must match the entry point's bit for bit.  The traced run replays the
// inputs single-threaded under spans around each layer's public function.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "mcs/mcs.hpp"

namespace perfbench {

namespace {

using namespace mcs;

struct SweepConfig {
  std::vector<std::string> specs;
  /// Task sets per point.  sweep-util runs its points one after another
  /// with the trials spread over the threads in chunks of 64, so 512 trials
  /// give each of up to 8 threads whole chunks.  sweep-demand runs its
  /// points concurrently (one per worker), so its trial count only sets
  /// the length of one sweep.
  std::uint64_t trials = 0;
  bool parallel_points = false;
  /// Copies of each spec's axis values in one sweep.  h2 has six points of
  /// very unequal cost; run on four workers, a sweep's wall time would be
  /// that of the one worker left with the costliest point, and so hang on
  /// the speed of one CPU.  Eight copies (48 points, each drawing its own
  /// task sets) let work stealing keep every worker busy to the end.
  std::size_t copies = 1;
};

SweepConfig config_for(const std::string& workload) {
  if (workload == "sweep-util") return {{"fig1", "fig4", "fig5"}, 512, false, 1};
  return {{"h2"}, 8, true, 8};
}

/// counts[spec][point][scheme]: schedulable task sets.
using Counts = std::vector<std::vector<std::vector<std::uint64_t>>>;

enum class DemandGate { kNone, kGe, kDbf };

DemandGate gate_of(const std::string& scheme) {
  if (scheme == "GE-FFD" || scheme == "UD-TPA/ge") return DemandGate::kGe;
  if (scheme == "DBF-FFD") return DemandGate::kDbf;
  return DemandGate::kNone;
}

struct Spec {
  exp::SweepSpec spec;
  exp::Sweep sweep;
};

std::vector<Spec> resolve(const SweepConfig& config) {
  std::vector<Spec> out;
  for (const std::string& name : config.specs) {
    const exp::SweepSpec* builtin = exp::find_spec(name);
    if (builtin == nullptr) throw std::runtime_error("unknown spec " + name);
    exp::SweepSpec spec = *builtin;
    for (std::size_t c = 1; c < config.copies; ++c) {
      spec.values.insert(spec.values.end(), builtin->values.begin(), builtin->values.end());
    }
    exp::Sweep sweep = exp::to_sweep(spec, exp::kDefaultAlpha);
    out.push_back(Spec{std::move(spec), std::move(sweep)});
  }
  return out;
}

exp::SpecRunOptions entry_options(const SweepConfig& config,
                                  const Options& options, std::uint64_t seed) {
  exp::SpecRunOptions run;
  run.trials = config.trials;
  run.seed = seed;
  run.threads = options.threads;
  run.alpha = exp::kDefaultAlpha;
  run.artifacts_dir = options.out_dir + "/artifacts";
  run.resume = false;
  return run;
}

/// One sweep through the entry point a user calls (mcs_exp --jobs N for
/// sweep-demand, mcs_exp with trial threads for sweep-util).
Counts run_entry(const std::vector<Spec>& specs, const SweepConfig& config,
                 const Options& options, std::uint64_t seed) {
  Counts counts;
  for (const Spec& s : specs) {
    const exp::SpecRunOptions run = entry_options(config, options, seed);
    const exp::SpecRunResult result =
        config.parallel_points
            ? svc::run_spec_parallel(s.spec, run, options.threads)
            : exp::run_spec(s.spec, run);
    if (!result.complete) throw std::runtime_error("sweep did not complete");
    auto& per_point = counts.emplace_back();
    for (const exp::PointResult& point : result.result.points) {
      auto& row = per_point.emplace_back();
      for (const exp::SchemeAggregate& agg : point.schemes) {
        row.push_back(agg.schedulable);
      }
    }
  }
  return counts;
}

/// What the replay measures besides the spans.
struct LayerCounts {
  std::map<std::string, std::uint64_t> runs, accepts, probes;
  std::uint64_t gen_calls = 0;
  std::uint64_t demand_calls[2] = {0, 0};    ///< ge, dbf
  std::uint64_t demand_accepts[2] = {0, 0};  ///< ge, dbf
  std::uint64_t checkpoint_appends = 0;
  std::uint64_t checkpoint_bytes = 0;
};

void demand_test(DemandGate gate, const TaskSet& ts,
                 std::span<const std::size_t> members, SpanRecorder& rec,
                 LayerCounts& layers) {
  const int which = gate == DemandGate::kGe ? 0 : 1;
  bool ok = false;
  {
    const ScopedSpan span(rec, which == 0 ? "analysis.demand.ge"
                                          : "analysis.demand.dbf");
    ok = which == 0 ? analysis::ge_dual_test(ts, members).schedulable
                    : analysis::dbf_dual_test(ts, members).schedulable;
  }
  ++layers.demand_calls[which];
  if (ok) ++layers.demand_accepts[which];
}

/// Replays trials [begin, end) of point `index`: the per-trial work
/// exp::run_point does (generate, reset + run_on per scheme, metrics on
/// success), from the benchmark's own loop.  With `layer_calls` it also
/// calls the layers the partitioners use internally, so they can be timed
/// on their own: CA-TPA's task ordering, and for the demand-gated schemes
/// the GE/DBF test on every core's final member set (the accept path) and
/// on each core plus the task that failed (the reject path).
void replay_trials(const exp::Sweep& sweep, std::size_t index,
                   std::uint64_t seed, std::uint64_t begin, std::uint64_t end,
                   bool layer_calls, SpanRecorder& rec,
                   std::vector<exp::SchemeAggregate>& aggs,
                   LayerCounts& layers) {
  const exp::SweepPoint& pt = sweep.points[index];
  const partition::PartitionerList schemes = pt.make_schemes();
  std::vector<std::string> span_names;
  std::vector<DemandGate> gates;
  for (const auto& scheme : schemes) {
    span_names.push_back("partition." + metric_component(scheme->name()));
    gates.push_back(gate_of(scheme->name()));
  }
  aggs.resize(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) aggs[s].scheme = schemes[s]->name();
  const std::uint64_t point_seed =
      sweep.share_workloads_across_points ? seed : gen::derive_seed(seed, index);

  analysis::PlacementEngine engine;
  gen::TrialArena arena;
  std::vector<std::size_t> members;
  for (std::uint64_t trial = begin; trial < end; ++trial) {
    const TaskSet* ts = nullptr;
    {
      const ScopedSpan span(rec, "gen");
      ts = &arena.generate_trial(pt.params, point_seed, trial);
    }
    ++layers.gen_calls;
    if (layer_calls) {
      const ScopedSpan span(rec, "core.order");
      const std::vector<std::size_t> order = order_by_contribution(*ts);
      if (order.size() != ts->size()) throw std::logic_error("order size");
    }
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      exp::SchemeAggregate& agg = aggs[s];
      ++agg.trials;
      partition::PlacementOutcome outcome;
      {
        const ScopedSpan span(rec, span_names[s]);
        engine.reset(*ts, pt.params.num_cores);
        outcome = schemes[s]->run_on(engine);
      }
      const std::string& key = span_names[s];
      ++layers.runs[key];
      layers.probes[key] += engine.probes();
      agg.probes.add(static_cast<double>(engine.probes()));
      if (layer_calls && gates[s] != DemandGate::kNone) {
        const Partition& part = engine.partition();
        for (std::size_t m = 0; m < pt.params.num_cores; ++m) {
          const std::vector<std::size_t>& on = part.tasks_on(m);
          if (!on.empty()) demand_test(gates[s], *ts, on, rec, layers);
          if (outcome.failed_task) {
            members = on;
            members.push_back(*outcome.failed_task);
            demand_test(gates[s], *ts, members, rec, layers);
          }
        }
      }
      if (!outcome.success) continue;
      ++layers.accepts[key];
      ++agg.schedulable;
      analysis::PartitionMetrics metrics;
      {
        const ScopedSpan span(rec, "analysis.metrics");
        metrics = analysis::partition_metrics(engine.partition());
      }
      agg.u_sys.add(metrics.u_sys);
      agg.u_avg.add(metrics.u_avg);
      agg.imbalance.add(metrics.imbalance);
    }
  }
}

/// The check replay of a whole sweep, spread over `threads` threads in
/// chunks of trials; returns the schedulable counts.
Counts replay_counts(const std::vector<Spec>& specs, std::uint64_t trials,
                     std::uint64_t seed, std::size_t threads) {
  struct Item {
    std::size_t spec, point;
    std::uint64_t begin, end;
    std::vector<exp::SchemeAggregate> aggs;
  };
  constexpr std::uint64_t kChunk = 8;
  std::vector<Item> items;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::size_t p = 0; p < specs[s].sweep.points.size(); ++p) {
      for (std::uint64_t b = 0; b < trials; b += kChunk) {
        items.push_back(Item{s, p, b, std::min(trials, b + kChunk), {}});
      }
    }
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::string error;
  std::mutex error_mutex;
  const auto worker = [&] {
    SpanRecorder off(false);
    LayerCounts layers;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= items.size() || failed.load()) return;
      Item& item = items[i];
      try {
        replay_trials(specs[item.spec].sweep, item.point, seed, item.begin,
                      item.end, false, off, item.aggs, layers);
      } catch (const std::exception& e) {
        const std::lock_guard lock(error_mutex);
        error = e.what();
        failed.store(true);
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  if (failed.load()) throw std::runtime_error("replay failed: " + error);

  Counts counts(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    counts[s].resize(specs[s].sweep.points.size());
  }
  for (const Item& item : items) {
    auto& row = counts[item.spec][item.point];
    row.resize(item.aggs.size(), 0);
    for (std::size_t k = 0; k < item.aggs.size(); ++k) {
      row[k] += item.aggs[k].schedulable;
    }
  }
  return counts;
}

/// The single-threaded replay of the traced run (also run untraced for the
/// overhead): every point under an exp.point span, its checkpoint appended
/// through exp::CheckpointWriter.
Counts replay_sweep(const std::vector<Spec>& specs, const SweepConfig& config,
                    const Options& options, SpanRecorder& rec,
                    LayerCounts& layers) {
  Counts counts;
  const ScopedSpan root(rec, "replay");
  for (const Spec& s : specs) {
    const std::string path = options.out_dir + "/replay-" + s.spec.name +
                             ".checkpoint.jsonl";
    const std::string fingerprint = exp::spec_fingerprint(
        s.spec, config.trials, options.seed, exp::kDefaultAlpha);
    exp::CheckpointWriter writer(path, s.spec.name, fingerprint,
                                 s.sweep.points.size(), false);
    auto& per_point = counts.emplace_back();
    for (std::size_t p = 0; p < s.sweep.points.size(); ++p) {
      const ScopedSpan point_span(rec, "exp.point");
      exp::PointCheckpoint checkpoint;
      checkpoint.index = p;
      checkpoint.result.x = s.sweep.points[p].x;
      replay_trials(s.sweep, p, options.seed, 0, config.trials, true, rec,
                    checkpoint.result.schemes, layers);
      const auto before = std::filesystem::file_size(path);
      {
        const ScopedSpan span(rec, "exp.checkpoint.append");
        writer.append(checkpoint);
      }
      ++layers.checkpoint_appends;
      layers.checkpoint_bytes += std::filesystem::file_size(path) - before;
      auto& row = per_point.emplace_back();
      for (const exp::SchemeAggregate& agg : checkpoint.result.schemes) {
        row.push_back(agg.schedulable);
      }
    }
  }
  return counts;
}

std::string where(const std::vector<Spec>& specs, std::size_t s, std::size_t p,
                  std::size_t k) {
  const auto& pt = specs[s].sweep.points[p];
  std::ostringstream out;
  out << specs[s].spec.name << " point " << p << " (x=" << pt.x << ") scheme "
      << pt.make_schemes()[k]->name();
  return out.str();
}

/// Compares two count tables entry by entry; every entry is one check.
void compare(const std::vector<Spec>& specs, const Counts& got,
             const Counts& want, const std::string& what, Result& result) {
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::size_t p = 0; p < specs[s].sweep.points.size(); ++p) {
      const std::size_t n = specs[s].sweep.points[p].make_schemes().size();
      for (std::size_t k = 0; k < n; ++k) {
        const bool present = s < got.size() && p < got[s].size() &&
                             k < got[s][p].size() && s < want.size() &&
                             p < want[s].size() && k < want[s][p].size();
        const bool ok = present && got[s][p][k] == want[s][p][k];
        std::string detail = what + ": " + where(specs, s, p, k);
        if (present && !ok) {
          detail += " got " + std::to_string(got[s][p][k]) + " want " +
                    std::to_string(want[s][p][k]);
        }
        result.check(ok, detail);
      }
    }
  }
}

std::string counts_json(const std::vector<Spec>& specs, const Counts& counts,
                        const SweepConfig& config) {
  std::ostringstream out;
  out << "{\"format\":\"perfbench-expected/1\",\"seed\":" << kReferenceSeed
      << ",\"trials\":" << config.trials << ",\"specs\":[";
  for (std::size_t s = 0; s < specs.size(); ++s) {
    out << (s ? "," : "") << "\n {\"spec\":\"" << specs[s].spec.name
        << "\",\"schemes\":[";
    const auto schemes = specs[s].sweep.points[0].make_schemes();
    for (std::size_t k = 0; k < schemes.size(); ++k) {
      out << (k ? "," : "") << '"' << schemes[k]->name() << '"';
    }
    out << "],\"schedulable\":[";
    for (std::size_t p = 0; p < counts[s].size(); ++p) {
      out << (p ? "," : "") << '[';
      for (std::size_t k = 0; k < counts[s][p].size(); ++k) {
        out << (k ? "," : "") << counts[s][p][k];
      }
      out << ']';
    }
    out << "]}";
  }
  out << "\n]}\n";
  return out.str();
}

Counts load_expected(const std::string& path, const std::vector<Spec>& specs,
                     const SweepConfig& config) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse(text.str());
  if (doc.at("trials").as_u64() != config.trials) {
    throw std::runtime_error(path + ": trial count differs from the workload");
  }
  Counts counts;
  const auto& items = doc.at("specs").items();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    auto& per_point = counts.emplace_back();
    if (s >= items.size() || items[s].at("spec").as_string() != specs[s].spec.name) {
      continue;
    }
    for (const util::Json& row : items[s].at("schedulable").items()) {
      auto& out = per_point.emplace_back();
      for (const util::Json& v : row.items()) out.push_back(v.as_u64());
    }
  }
  return counts;
}

void per_layer_metrics(const SpanRecorder& rec, const LayerCounts& layers,
                       const std::map<std::string, std::uint64_t>& obs_deltas,
                       Result& result) {
  const auto p = [&](const char* name, double pct) {
    return percentile(rec.durations_us(name), pct);
  };
  result.set("gen.calls", static_cast<double>(layers.gen_calls), "count");
  result.set("gen.us_per_trial_p50", p("gen", 50), "us");
  result.set("core.order.us_p50", p("core.order", 50), "us");
  for (const auto& [key, runs] : layers.runs) {
    const std::vector<double> us = rec.durations_us(key);
    result.set(key + ".us_p50", percentile(us, 50), "us");
    result.set(key + ".us_p99", percentile(us, 99), "us");
    const auto acc = layers.accepts.find(key);
    result.set(key + ".accept_ratio",
               static_cast<double>(acc == layers.accepts.end() ? 0 : acc->second) /
                   static_cast<double>(runs),
               "ratio");
    result.set(key + ".probes_per_run",
               static_cast<double>(layers.probes.at(key)) / static_cast<double>(runs),
               "count");
  }
  const auto counter = [&](const char* name) -> double {
    const auto it = obs_deltas.find(name);
    return it == obs_deltas.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double probes = counter("placement.probes");
  result.set("analysis.probes", probes, "count");
  result.set("analysis.commits", counter("placement.commits"), "count");
  result.set("analysis.probe_accept_ratio",
             probes > 0 ? 1.0 - counter("placement.probes_infeasible") / probes : 0.0,
             "ratio");
  const char* demand[2] = {"analysis.demand.ge", "analysis.demand.dbf"};
  for (int d = 0; d < 2; ++d) {
    const std::string base = demand[d];
    const std::vector<double> us = rec.durations_us(base);
    result.set(base + ".calls", static_cast<double>(layers.demand_calls[d]), "count");
    result.set(base + ".us_p50", percentile(us, 50), "us");
    result.set(base + ".us_p99", percentile(us, 99), "us");
    result.set(base + ".accept_ratio",
               layers.demand_calls[d] == 0
                   ? 0.0
                   : static_cast<double>(layers.demand_accepts[d]) /
                         static_cast<double>(layers.demand_calls[d]),
               "ratio");
  }
  result.set("analysis.metrics.us_p50", p("analysis.metrics", 50), "us");
  result.set("exp.point_ms", p("exp.point", 50) / 1e3, "ms");
  result.set("exp.checkpoint.append_us", p("exp.checkpoint.append", 50), "us");
  result.set("exp.checkpoint.bytes",
             static_cast<double>(layers.checkpoint_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(1, layers.checkpoint_appends)),
             "bytes");
  for (const auto& row : rec.layer_table()) {
    if (row.name == "exp.point") {
      result.set("exp.overhead_frac", row.total_s > 0 ? row.self_s / row.total_s : 0.0,
                 "frac");
    }
  }
}

}  // namespace

void run_sweep_workload(const Options& options, Result& result) {
  const SweepConfig config = config_for(options.workload);
  const std::vector<Spec> specs = resolve(config);
  std::filesystem::create_directories(options.out_dir + "/artifacts");
  std::uint64_t trials_per_sweep = 0;
  for (const Spec& s : specs) trials_per_sweep += s.sweep.points.size() * config.trials;
  result.info["trials_per_point"] = std::to_string(config.trials);
  result.info["entry_point"] = config.parallel_points
                                   ? "svc::run_spec_parallel(jobs=threads)"
                                   : "exp::run_spec(threads)";
  result.ready_ns = to_ns(Clock::now());
  result.ready_cpu_ns = process_cpu_ns();
  if (options.setup_only) return;

  if (!options.write_expected.empty()) {
    const Counts counts = run_entry(specs, config, options, options.seed);
    std::ofstream(options.write_expected) << counts_json(specs, counts, config);
    return;
  }

  Counts replayed;
  if (!options.trace) {
    // Whole sweeps until the time is up; a new one starts only when the
    // median sweep so far still fits.  Sweep r draws its task sets from
    // seed r of the run's seed sequence (sweep 0 from --seed itself), so a
    // run averages over many inputs instead of repeating one sample of
    // them.  Sweep 0 is the one the checks replay.
    const auto start = Clock::now();
    std::vector<double> sweep_ms;
    Counts first;
    for (std::uint64_t r = 0;; ++r) {
      const std::uint64_t seed = r == 0 ? options.seed : gen::derive_seed(options.seed, r);
      const auto t0 = Clock::now();
      Counts counts = run_entry(specs, config, options, seed);
      sweep_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (r == 0) first = std::move(counts);
      const double elapsed = seconds_between(start, Clock::now());
      if (elapsed + summarize(sweep_ms).median / 1e3 > options.seconds) break;
    }
    const double rss = peak_rss_mb();
    std::vector<double> rate;
    for (const double ms : sweep_ms) {
      rate.push_back(static_cast<double>(trials_per_sweep) / (ms / 1e3));
    }
    // Medians over the sweeps: a sweep's cost depends on its task sets, and
    // the demand-gated schemes' cost per task set is heavy-tailed.
    result.samples["throughput_per_s"] = rate;
    result.samples["latency_p50_ms"] = sweep_ms;
    result.set("throughput_per_s", summarize(rate).median, "1/s");
    result.set("latency_p50_ms", summarize(sweep_ms).median, "ms");
    result.set("peak_rss_mb", rss, "MB");
    std::printf("%s: %zu sweeps of %llu task sets, median %.1f task sets/s\n",
                options.workload.c_str(), sweep_ms.size(),
                static_cast<unsigned long long>(trials_per_sweep), summarize(rate).median);
    replayed = replay_counts(specs, config.trials, options.seed, options.threads);
    compare(specs, first, replayed, "entry point vs replay", result);
  } else {
    const Counts entry = run_entry(specs, config, options, options.seed);
    // The obs counters stay on for all three replays, so the overhead is
    // that of the spans alone; the untraced replay runs before and after
    // the traced one to cancel drift.
    const obs::MetricsEnabledGuard metrics_on(true);
    const auto untraced = [&] {
      SpanRecorder off(false);
      LayerCounts unused;
      const auto t0 = Clock::now();
      (void)replay_sweep(specs, config, options, off, unused);
      return seconds_between(t0, Clock::now());
    };
    const double untraced_before = untraced();
    SpanRecorder rec(true);
    LayerCounts layers;
    const obs::MetricsSnapshot before = obs::registry().snapshot();
    const auto t0 = Clock::now();
    const Counts traced = replay_sweep(specs, config, options, rec, layers);
    const double traced_s = seconds_between(t0, Clock::now());
    const auto deltas = obs::counter_deltas(before, obs::registry().snapshot());
    const double untraced_s = (untraced_before + untraced()) / 2.0;
    result.set("bench.replay_s", traced_s, "s");
    result.set("bench.trace_overhead_s", traced_s - untraced_s, "s");
    per_layer_metrics(rec, layers, deltas, result);
    print_layer_table(rec, traced_s);
    const std::string span_path =
        options.out_dir + "/spans-" + options.workload + ".json";
    rec.write(span_path);
    std::printf("spans written to %s\n", span_path.c_str());
    compare(specs, entry, traced, "entry point vs traced replay", result);
    replayed = traced;
  }

  if (options.seed == kReferenceSeed) {
    compare(specs, replayed, load_expected(options.expected_path, specs, config),
            "reference counts", result);
  }
}

}  // namespace perfbench
