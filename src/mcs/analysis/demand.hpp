// Demand-bound schedulability tests for dual-criticality EDF-VD: one
// demand-curve engine behind two HI-mode curves.
//
// High-criticality tasks run against a virtual deadline v = x * T while the
// core is in LO mode and are restored at the mode switch.  For per-task
// scales x the core is schedulable if, for every interval length t up to a
// busy-period bound:
//
//   LO mode:  sum_i dbf_lo(tau_i, t, x_i) <= t
//   HI mode:  sum_{i : HI} dbf_hi(tau_i, t, x_i) <= t
//
// Every curve is one Curve {d0, period, cost, credit}:
//
//   demand(t) = n * cost - max(0, credit - max(0, r))
//     n = (floor((t - d0)/T) + 1)^+       jobs with deadline in the window
//     r = (t - d0) - (n - 1) * T          slack of the carry-over job
//
// The LO curve of a task has d0 = v (HI tasks) or T (LO tasks), cost C(LO)
// and no credit.  The HI curve of a HI task has d0 = T - v and cost C(HI);
// its credit selects the test:
//
//   * kDbf (in the spirit of Ekberg & Yi, ECRTS'12, and the DBF-based
//     partitioned scheme of Gu, Guan, Deng & Yi, DATE'14 — the paper's
//     reference [20]): credit 0.  Every HI job whose deadline falls in the
//     window counts its full HI budget, a sound simplification of the
//     exact curve (see DESIGN.md).
//   * kGe (in the spirit of Gu & Easwaran, arXiv 2003.05160): credit C(LO),
//     the exact Ekberg-Yi carry-over credit.  A carry-over job at the switch
//     has a virtual deadline at most r after the switch; LO-mode
//     schedulability guarantees it completes C(LO) by then, and at most r
//     units can run after the switch on one core, so at least C(LO) - r
//     units were done before the switch and never reappear as HI demand.  A
//     job whose virtual deadline precedes the switch cannot still be
//     incomplete (an unmet virtual deadline is itself the switch trigger),
//     so the credit never double-counts.
//
// A zero-credit curve is the plain step curve n * cost, bit for bit.  The
// inner max(0, r) stops a breakpoint accumulated slightly below its step
// (r < 0 by rounding) from crediting more than C(LO) — errs toward
// rejection.  Since the credit only subtracts, a kGe curve never exceeds
// the kDbf curve at the same scale.
//
// sum(demand) - t is piecewise linear with slope changes only at deadline
// steps (jump up) and credit kinks (ramp ends, d0 + credit + kT), so the
// scan evaluates exactly those breakpoints — no dense time grid.
//
// Search strategy (cheap first; the first passing candidate wins):
//   1. uniform scales: x = 1, 1 - U_2(2), the EDF-VD factor and a 20-step
//      grid.  Both tests try the same list, and the kGe curves lower-bound
//      the kDbf curves pointwise, so every kDbf acceptance is also a kGe
//      acceptance (dominance by construction, checked in tests and the
//      differential fuzzer);
//   2. kGe only: greedy per-task tuning from a mid-grid start — grow the
//      worst LO-mode offender's scale on an LO violation, shrink the worst
//      HI-mode offender's on a HI violation, accept only when both demand
//      tests pass (sound by construction).  Each iteration is a full
//      two-mode scan, so 48 iterations cap the cost of a rejecting call.
//
// A busy-period bound above 100000 time units conservatively rejects.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis {

/// Which HI-mode demand curve the test uses (see the file comment).
enum class DemandTest {
  kDbf,  ///< uncredited HI curve, uniform scales only (DBF-FFD)
  kGe,   ///< credited HI curve, uniform then greedy per-task scales (GE-FFD)
};

/// Jobs with deadlines d0 + k*period, each worth `cost`, minus a carry-over
/// credit that ramps away over the first `credit` units after each deadline
/// step (credit == 0 gives plain steps).
struct Curve {
  double d0 = 0.0;
  double period = 1.0;
  double cost = 0.0;
  double credit = 0.0;
};

/// The demand of one curve over an interval of length t.
[[nodiscard]] double curve_demand(const Curve& c, double t);

/// LO-mode curve of a task whose HI virtual deadline is scaled by x.
[[nodiscard]] Curve lo_curve(const McTask& task, double x);

/// HI-mode curve of a HI task under `test` (a LO task has none).
[[nodiscard]] Curve hi_curve(DemandTest test, const McTask& task, double x);

/// Demand of one task in LO mode over an interval of length t, with HI
/// virtual deadlines scaled by x.
[[nodiscard]] inline double dbf_lo(const McTask& task, double t, double x) {
  return curve_demand(lo_curve(task, x), t);
}

/// Uncredited HI-mode demand of one task (0 for LO tasks, which are dropped
/// at the switch).
[[nodiscard]] inline double dbf_hi(const McTask& task, double t, double x) {
  return task.level() < 2
             ? 0.0
             : curve_demand(hi_curve(DemandTest::kDbf, task, x), t);
}

/// Credited (Ekberg-Yi) HI-mode demand of one task (0 for LO tasks).
[[nodiscard]] inline double ge_dbf_hi(const McTask& task, double t,
                                      double x) {
  return task.level() < 2
             ? 0.0
             : curve_demand(hi_curve(DemandTest::kGe, task, x), t);
}

struct DemandResult {
  bool schedulable = false;
  /// Virtual-deadline scale per task index of the TaskSet (1.0 for LO tasks
  /// and for tasks outside the analyzed subset); filled only when
  /// schedulable.
  std::vector<double> scales;
};

/// Runs `test` on the subset `members` of `ts`.  Requires
/// ts.num_levels() == 2; throws std::invalid_argument otherwise.
[[nodiscard]] DemandResult demand_dual_test(
    DemandTest test, const TaskSet& ts, std::span<const std::size_t> members);

/// Convenience: the whole set on one core.
[[nodiscard]] DemandResult demand_dual_test(DemandTest test,
                                            const TaskSet& ts);

[[nodiscard]] inline DemandResult dbf_dual_test(
    const TaskSet& ts, std::span<const std::size_t> members) {
  return demand_dual_test(DemandTest::kDbf, ts, members);
}
[[nodiscard]] inline DemandResult dbf_dual_test(const TaskSet& ts) {
  return demand_dual_test(DemandTest::kDbf, ts);
}
[[nodiscard]] inline DemandResult ge_dual_test(
    const TaskSet& ts, std::span<const std::size_t> members) {
  return demand_dual_test(DemandTest::kGe, ts, members);
}
[[nodiscard]] inline DemandResult ge_dual_test(const TaskSet& ts) {
  return demand_dual_test(DemandTest::kGe, ts);
}

}  // namespace mcs::analysis
