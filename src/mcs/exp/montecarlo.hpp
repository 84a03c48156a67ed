// Monte-Carlo evaluation of partitioning schemes (paper Sec. IV).
//
// For one experiment point (a GenParams configuration), `run_point` draws
// `trials` independent task sets and runs every scheme on each, aggregating:
//   * schedulability ratio  -- fraction of sets the scheme partitioned,
//   * U_sys, U_avg, Lambda  -- averaged over the sets the scheme scheduled
//                              (matching the paper: quality metrics consider
//                              only schedulable task sets).
// Every sweep runs through one scheduler, `run_points`: the unit of work is
// a (point, 64-trial chunk) pair, pulled by worker threads from one queue.
// Every trial re-derives its RNG stream from (point seed, trial) and a
// point's per-chunk partial aggregates are merged in chunk index order, so
// results are *bit-identical* for any thread count (pinned by
// MonteCarloTest.DeterministicAcrossThreadCounts).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mcs/analysis/metrics.hpp"
#include "mcs/exp/paper_params.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/util/stats.hpp"

namespace mcs::exp {

/// Aggregated outcome of one scheme at one experiment point.
struct SchemeAggregate {
  std::string scheme;
  std::uint64_t trials = 0;
  std::uint64_t schedulable = 0;
  util::Welford u_sys;
  util::Welford u_avg;
  util::Welford imbalance;
  util::Welford probes;

  [[nodiscard]] double ratio() const noexcept {
    return trials == 0
               ? 0.0
               : static_cast<double>(schedulable) / static_cast<double>(trials);
  }
};

/// One experiment point: an x-axis value plus per-scheme aggregates.
struct PointResult {
  double x = 0.0;
  std::vector<SchemeAggregate> schemes;
};

/// One completed experiment point: its aggregates plus the deterministic
/// observability counter deltas recorded while it ran.
struct PointCheckpoint {
  std::size_t index = 0;
  PointResult result;
  std::map<std::string, std::uint64_t> counters;
};

struct RunOptions {
  std::uint64_t trials = kDefaultTrials;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
};

/// Evaluates `schemes` on `trials` task sets drawn from `params`: a
/// one-point sweep through run_points.
[[nodiscard]] PointResult run_point(const gen::GenParams& params,
                                    const partition::PartitionerList& schemes,
                                    const RunOptions& options, double x_value);

struct Sweep;

/// The sweep scheduler: runs points `indices` of `sweep` on
/// `options.threads` workers (0 = hardware concurrency).  A point draws
/// from derive_seed(options.seed, index) unless the sweep shares workloads
/// across points, and runs its make_schemes() line-up (the paper line-up at
/// the default alpha when empty) or, when set, `schemes`.
///
/// The unit of work is a (point, 64-trial chunk) pair, pulled in
/// point-major order; a worker keeps one PlacementEngine and one
/// TrialArena, and runs each chunk under an exp.chunk span.  With
/// `collect_metrics` each chunk records into its own
/// obs::ThreadMetricsSink, folded into the point's capture (the caller
/// keeps the registry enabled).  The worker that finishes a point's last
/// chunk merges the partials in chunk order under an exp.point span (args:
/// index, `span_arg`), resolves the counter deltas and histogram
/// percentiles, and hands the point to `finish` under the scheduler lock,
/// in completion order.  Rethrows the first worker exception after the
/// join.
void run_points(const Sweep& sweep, std::span<const std::size_t> indices,
                const RunOptions& options, bool collect_metrics,
                std::uint64_t span_arg,
                const std::function<void(PointCheckpoint)>& finish,
                const partition::PartitionerList* schemes = nullptr);

}  // namespace mcs::exp
