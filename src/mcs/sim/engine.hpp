// Event-driven runtime engine: partitioned EDF-VD with AMC mode switching.
//
// Each core runs independently (partitioned scheduling has no migration):
//  * jobs are released periodically from time 0; while a core operates at
//    mode l, releases of tasks with criticality < l are suppressed;
//  * the ready job with the earliest (virtual) absolute deadline runs;
//  * when a job of a task with level > l executes beyond its level-l WCET
//    without completing, the core switches to mode l+1 (cascading if the
//    job is already beyond higher budgets): ready jobs of criticality <= l
//    are dropped and remaining deadlines are re-derived from the
//    DeadlinePolicy for the new mode;
//  * a core that becomes idle resets to mode 1 (paper Sec. I / II-A);
//  * a job whose deadline passes before completion is a deadline miss.
//
// Virtual deadlines follow analysis::DeadlinePolicy (paper Sec. II-B); plain
// EDF (no shrinking) can be forced for baselines and property tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mcs/analysis/vdeadlines.hpp"
#include "mcs/core/partition.hpp"
#include "mcs/sim/scenario.hpp"
#include "mcs/sim/trace.hpp"

namespace mcs::sim {

/// Per-core scheduling policy.
enum class SchedulerKind {
  kEdfVd,          ///< EDF with virtual deadlines (paper default)
  kFixedPriority,  ///< deadline-monotonic fixed priorities + AMC
};

/// Which simulation kernel executes the per-core event loop.  Both engines
/// are required to produce bit-identical SimResults and trace streams for
/// every configuration (enforced by verify::check_engine_parity and the
/// engine-parity fuzz target).
enum class EngineKind {
  /// Indexed-heap kernel: O(log n) per event via sim::ReadyQueue (dispatch
  /// + deadline heaps over a pooled job arena) and sim::ArrivalCalendar.
  kEventCalendar,
  /// The original O(n)-scan loop, kept as the differential-testing baseline
  /// and performance reference.
  kReference,
};

struct SimConfig {
  /// Simulation end time; 0 selects 20x the longest period in the set
  /// (default_horizon), or the exact hyperperiod when
  /// use_hyperperiod_horizon is set and one exists.
  double horizon = 0.0;
  /// When horizon == 0, prefer the exact hyperperiod of the set's periods
  /// over the 20x default.  Only takes effect when every period is integral
  /// and the LCM fits without overflow (see integral_hyperperiod); otherwise
  /// the 20x default is used.  The verify oracle's exact small-set mode
  /// relies on this for synchronous-release coverage of a full period-LCM
  /// window.
  bool use_hyperperiod_horizon = false;
  /// Per-core scheduler.  Fixed-priority mode ignores virtual deadlines
  /// (jobs keep their real deadlines; priority = deadline-monotonic rank).
  SchedulerKind scheduler = SchedulerKind::kEdfVd;
  /// Simulation kernel.  kEventCalendar is the production default; the
  /// reference engine exists for differential testing and benchmarking.
  EngineKind engine = EngineKind::kEventCalendar;
  /// Use EDF-VD virtual deadlines (false forces plain EDF).
  bool use_virtual_deadlines = true;
  /// Dual-criticality only: force this HI virtual-deadline scale factor in
  /// LO mode instead of the Theorem-1-derived policy (used to execute the
  /// scale chosen by the DBF analysis).  Ignored unless 0 < value <= 1 and
  /// the task set has exactly two levels.
  double dual_scale_override = 0.0;
  /// Dual-criticality only: per-task LO-mode virtual-deadline scales
  /// indexed by task index (e.g. from analysis::ge_dual_test).
  /// Entries outside (0, 1] and LO tasks are ignored.  Takes precedence
  /// over dual_scale_override when non-empty.
  std::vector<double> dual_scales;
  /// Sporadic arrivals: each inter-arrival time is the period plus a
  /// uniform delay in [0, sporadic_jitter * period].  0 keeps strictly
  /// periodic releases.  All schedulability analyses in this library are
  /// sporadic-task analyses, so accepted partitions must tolerate any
  /// jitter; relative deadlines stay equal to the period.
  double sporadic_jitter = 0.0;
  /// Seed for the deterministic sporadic-delay stream.
  std::uint64_t arrival_seed = 0x5e0a11aULL;
  /// Fixed-priority mode: explicit per-task priority ranks indexed by task
  /// index (lower = higher priority), e.g. from an Audsley assignment.
  /// Empty selects deadline-monotonic ranks.
  std::vector<std::size_t> fp_priorities;
  /// Elastic degraded service (after Su & Zhu's E-MC model, the paper's
  /// reference [31]): while a core is above mode 1, tasks below the mode
  /// are not suppressed outright — they release with period and deadline
  /// stretched by this factor (> 1), i.e. they keep running at reduced
  /// rate.  Values <= 1 keep the classical AMC drop-and-suppress protocol.
  /// Jobs pending at a switch are still dropped.
  double degraded_period_stretch = 0.0;
  /// When false, a core that becomes idle does NOT return to mode 1 (the
  /// paper's protocol resets at idle instants; many deployed systems stay
  /// latched in the elevated mode until an explicit operator action).
  /// Degraded service matters most in this sticky regime — see
  /// bench_elastic.
  bool idle_reset = true;
  /// Stop a core's simulation at its first deadline miss (faster property
  /// tests); when false, the miss's job is abandoned and the run continues.
  bool stop_core_on_miss = true;
  /// Absolute slack added to deadlines before declaring a miss, absorbing
  /// floating-point accumulation over long traces.
  double miss_tolerance = 1e-6;
};

struct DeadlineMiss {
  std::size_t core = 0;
  std::size_t task = 0;      ///< task index within the TaskSet
  std::uint64_t job = 0;
  double deadline = 0.0;
  double detected_at = 0.0;
  Level mode = 1;            ///< core mode at detection
};

struct CoreStats {
  Level max_mode = 1;
  std::uint64_t mode_switches = 0;
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_degraded = 0;  ///< releases admitted at stretched rate
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_dropped = 0;
  std::uint64_t releases_suppressed = 0;
  std::uint64_t idle_resets = 0;
  std::uint64_t preemptions = 0;
  /// Simulated time spent at each mode (index = mode - 1); sums to the
  /// core's simulated span.
  std::vector<double> mode_residency;
};

/// Per-task runtime statistics, aggregated across the whole partition.
struct TaskSimStats {
  std::uint64_t released = 0;
  std::uint64_t degraded = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t missed = 0;
  double max_response = 0.0;  ///< max completion - release over completed jobs
  double sum_response = 0.0;

  [[nodiscard]] double mean_response() const noexcept {
    return completed > 0 ? sum_response / static_cast<double>(completed) : 0.0;
  }
};

struct SimResult {
  std::vector<DeadlineMiss> misses;
  std::vector<CoreStats> cores;
  /// Indexed by task index within the TaskSet (zeros for unassigned tasks).
  std::vector<TaskSimStats> tasks;
  double horizon = 0.0;

  [[nodiscard]] bool missed_deadline() const noexcept {
    return !misses.empty();
  }
  [[nodiscard]] std::uint64_t total(std::uint64_t CoreStats::* field) const {
    std::uint64_t sum = 0;
    for (const CoreStats& c : cores) sum += c.*field;
    return sum;
  }
};

/// The engine's default horizon: 20x the longest period in the set.
[[nodiscard]] double default_horizon(const TaskSet& ts);

/// Exact hyperperiod (LCM of the periods) when every period is integral
/// (within 1e-9 relative tolerance) and the LCM is exactly representable as
/// a double (< 2^53; the running LCM is overflow-checked in 64-bit integer
/// arithmetic).  Returns nullopt otherwise.  Deterministic: depends only on
/// the multiset of periods.
[[nodiscard]] std::optional<double> integral_hyperperiod(const TaskSet& ts);

/// integral_hyperperiod when it exists, else default_horizon (the 20x
/// fallback) — the horizon simulate() uses under use_hyperperiod_horizon.
[[nodiscard]] double hyperperiod_horizon(const TaskSet& ts);

/// Simulates the complete partition.  Unassigned tasks are ignored (callers
/// normally pass complete partitions).  `sink` receives events when non-null.
[[nodiscard]] SimResult simulate(const Partition& partition,
                                 const ExecutionScenario& scenario,
                                 const SimConfig& config = {},
                                 TraceSink* sink = nullptr);

/// Simulates a single core of the partition (used by per-core tests).
[[nodiscard]] SimResult simulate_core(const Partition& partition,
                                      std::size_t core,
                                      const ExecutionScenario& scenario,
                                      const SimConfig& config = {},
                                      TraceSink* sink = nullptr);

}  // namespace mcs::sim
