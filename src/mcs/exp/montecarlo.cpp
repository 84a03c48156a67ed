#include "mcs/exp/montecarlo.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "mcs/analysis/placement.hpp"
#include "mcs/exp/sweep.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::exp {

namespace {

constexpr std::uint64_t kChunk = 64;

constexpr obs::TraceSite kChunkSite{"exp.chunk", "index", "chunk"};
constexpr obs::TraceSite kPointSite{"exp.point", "index", "fingerprint"};

}  // namespace

void run_points(const Sweep& sweep, std::span<const std::size_t> indices,
                const RunOptions& options, bool collect_metrics,
                std::uint64_t span_arg,
                const std::function<void(PointCheckpoint)>& finish,
                const partition::PartitionerList* schemes) {
  // A point with zero trials still runs one (empty) chunk so it finishes.
  const std::uint64_t chunks = std::max<std::uint64_t>(
      1, options.trials / kChunk + (options.trials % kChunk != 0));
  const std::size_t items = indices.size() * static_cast<std::size_t>(chunks);

  // Each chunk writes its partial aggregates into its own slot and the
  // point's finisher merges them in chunk index order.  Welford::merge is
  // not order-insensitive at the bit level, so merging in completion order
  // would make results depend on thread scheduling; slot-then-ordered-merge
  // makes every point a pure function of (params, schemes, trials, seed)
  // for any worker count, which checkpoint resume relies on.
  struct PointState {
    partition::PartitionerList own_schemes;
    const partition::PartitionerList* schemes = nullptr;
    std::uint64_t seed = 0;
    std::vector<std::vector<SchemeAggregate>> partials;
    obs::MetricsCapture capture;
    std::atomic<std::uint64_t> chunks_left{0};
  };
  std::vector<PointState> states(indices.size());
  for (std::size_t p = 0; p < indices.size(); ++p) {
    const SweepPoint& pt = sweep.points[indices[p]];
    PointState& state = states[p];
    if (schemes == nullptr) {
      state.own_schemes = pt.make_schemes
                              ? pt.make_schemes()
                              : partition::paper_schemes(kDefaultAlpha);
    }
    state.schemes = schemes != nullptr ? schemes : &state.own_schemes;
    state.seed = sweep.share_workloads_across_points
                     ? options.seed
                     : gen::derive_seed(options.seed, indices[p]);
    state.partials.resize(static_cast<std::size_t>(chunks));
    state.chunks_left.store(chunks, std::memory_order_relaxed);
  }

  std::mutex lock;  // guards capture folds, `finish` and `first_error`
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;

  const auto finish_point = [&](std::size_t p) {
    const obs::ScopedSpan span(kPointSite, indices[p], span_arg);
    PointState& state = states[p];
    PointCheckpoint done;
    done.index = indices[p];
    done.result.x = sweep.points[indices[p]].x;
    done.result.schemes.resize(state.schemes->size());
    for (std::size_t s = 0; s < state.schemes->size(); ++s) {
      SchemeAggregate& agg = done.result.schemes[s];
      agg.scheme = (*state.schemes)[s]->name();
      for (const std::vector<SchemeAggregate>& local : state.partials) {
        agg.trials += local[s].trials;
        agg.schedulable += local[s].schedulable;
        agg.u_sys.merge(local[s].u_sys);
        agg.u_avg.merge(local[s].u_avg);
        agg.imbalance.merge(local[s].imbalance);
        agg.probes.merge(local[s].probes);
      }
    }
    state.partials = {};
    if (collect_metrics) {
      done.counters = obs::registry().resolve_counter_deltas(state.capture);
      done.counters.merge(
          obs::registry().resolve_histogram_percentiles(state.capture));
    }
    const std::lock_guard guard(lock);
    finish(std::move(done));
  };

  const auto worker = [&] {
    analysis::PlacementEngine engine;
    gen::TrialArena arena;
    for (;;) {
      const std::size_t item = next.fetch_add(1, std::memory_order_relaxed);
      if (item >= items) return;
      const std::size_t p = item / chunks;
      const std::uint64_t chunk = item % chunks;
      PointState& state = states[p];
      const gen::GenParams& params = sweep.points[indices[p]].params;
      const partition::PartitionerList& line_up = *state.schemes;
      try {
        {
          const obs::ScopedSpan span(kChunkSite, indices[p], chunk);
          std::optional<obs::ThreadMetricsSink> sink;
          if (collect_metrics) sink.emplace();
          std::vector<SchemeAggregate>& local =
              state.partials[static_cast<std::size_t>(chunk)];
          local.resize(line_up.size());
          const std::uint64_t end =
              std::min(chunk * kChunk + kChunk, options.trials);
          for (std::uint64_t trial = chunk * kChunk; trial < end; ++trial) {
            const TaskSet& ts =
                arena.generate_trial(params, state.seed, trial);
            for (std::size_t s = 0; s < line_up.size(); ++s) {
              SchemeAggregate& agg = local[s];
              ++agg.trials;
              engine.reset(ts, params.num_cores);
              const partition::PlacementOutcome outcome =
                  line_up[s]->run_on(engine);
              agg.probes.add(static_cast<double>(engine.probes()));
              if (!outcome.success) continue;
              ++agg.schedulable;
              const analysis::PartitionMetrics m =
                  analysis::partition_metrics(engine.partition());
              agg.u_sys.add(m.u_sys);
              agg.u_avg.add(m.u_avg);
              agg.imbalance.add(m.imbalance);
            }
          }
          if (sink) {
            const std::lock_guard guard(lock);
            state.capture.merge(*sink);
          }
        }
        if (state.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          finish_point(p);
        }
      } catch (...) {
        const std::lock_guard guard(lock);
        if (!first_error) first_error = std::current_exception();
        next.store(items, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t threads =
      options.threads == 0 ? util::default_thread_count() : options.threads;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < std::min(threads, items); ++t) {
      pool.emplace_back(worker);
    }
    worker();  // the calling thread joins the work
  }
  if (first_error) std::rethrow_exception(first_error);
}

PointResult run_point(const gen::GenParams& params,
                      const partition::PartitionerList& schemes,
                      const RunOptions& options, double x_value) {
  // Shared workloads: the point draws from options.seed itself.
  Sweep sweep;
  sweep.points.push_back(
      SweepPoint{.x = x_value, .params = params, .make_schemes = {}});
  sweep.share_workloads_across_points = true;
  const std::size_t index = 0;
  PointResult result;
  run_points(
      sweep, {&index, 1}, options, false, 0,
      [&](PointCheckpoint point) { result = std::move(point.result); },
      &schemes);
  return result;
}

}  // namespace mcs::exp
