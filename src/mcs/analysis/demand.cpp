#include "mcs/analysis/demand.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mcs/analysis/edfvd.hpp"

namespace mcs::analysis {

namespace {

/// Analysis horizon cap: a busy-period bound above it conservatively fails
/// (soundness over completeness).
constexpr double kHorizonCap = 100000.0;
/// Uniformly spaced scale candidates in (0, 1]; also the greedy step count.
constexpr std::size_t kScaleGrid = 20;
/// Greedy-tier iteration cap (kGe only); exhausting it rejects.
constexpr std::size_t kGreedyIterCap = 48;

/// Busy-period-style bound: demand(t) <= slope*t + intercept (the credit
/// only lowers demand, so ignoring it keeps the envelope an upper bound),
/// so beyond intercept/(1 - slope) the test always passes.  Returns nullopt
/// when the demand slope reaches 1 (unschedulable unless demand is
/// identically 0).
std::optional<double> analysis_bound(const std::vector<Curve>& curves) {
  double slope = 0.0;
  double intercept = 0.0;
  for (const Curve& c : curves) {
    slope += c.cost / c.period;
    intercept += c.cost * std::max(0.0, 1.0 - c.d0 / c.period);
  }
  if (slope >= 1.0 - 1e-12) {
    return intercept <= 1e-12 && slope <= 1.0 + 1e-12
               ? std::optional<double>(0.0)
               : std::nullopt;
  }
  return intercept / (1.0 - slope);
}

/// Scans the summed demand against t at every breakpoint up to `bound` —
/// deadline steps d0 + kT, plus credit kinks d0 + credit + kT for credited
/// curves — and returns the first violating t, or nullopt.
///
/// Breakpoints stream in ascending order through a min-heap with one lane
/// per step or kink family instead of being materialized and sorted: the
/// scan stops at the first violation, which makes rejecting candidates —
/// the common case inside the placement gates — cheap.
std::optional<double> first_violation(const std::vector<Curve>& curves,
                                      double bound) {
  struct Lane {
    double next;        ///< next breakpoint of this lane
    std::size_t curve;  ///< index into `curves`
  };
  const auto later = [](const Lane& a, const Lane& b) {
    return a.next > b.next;
  };
  std::vector<Lane> heap;
  heap.reserve(curves.size() * 2);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const Curve& c = curves[i];
    if (c.cost <= 0.0) continue;
    if (c.d0 <= bound + 1e-9) heap.push_back({c.d0, i});
    if (c.credit > 0.0 && c.d0 + c.credit <= bound + 1e-9) {
      heap.push_back({c.d0 + c.credit, i});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);
  double last = -1.0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Lane lane = heap.back();
    heap.pop_back();
    const double t = lane.next;
    lane.next += curves[lane.curve].period;
    if (lane.next <= bound + 1e-9) {
      heap.push_back(lane);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    if (t == last) continue;  // duplicate breakpoint across lanes
    last = t;
    double demand = 0.0;
    for (const Curve& c : curves) demand += curve_demand(c, t);
    if (demand > t + 1e-9) return t;
  }
  return std::nullopt;
}

/// Evaluates both demand tests with per-member scales.  On failure returns
/// (mode, t): mode 0 = LO-test violation, 1 = HI-test violation.
std::optional<std::pair<int, double>> violation(
    DemandTest test, const TaskSet& ts, std::span<const std::size_t> members,
    std::span<const double> scales) {
  std::vector<Curve> lo_curves;
  std::vector<Curve> hi_curves;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const McTask& task = ts[members[m]];
    lo_curves.push_back(lo_curve(task, scales[m]));
    if (task.level() == 2) {
      hi_curves.push_back(hi_curve(test, task, scales[m]));
    }
  }
  int mode = 0;
  for (const auto* curves : {&lo_curves, &hi_curves}) {
    const std::optional<double> bound = analysis_bound(*curves);
    if (!bound || *bound > kHorizonCap) {
      return std::make_pair(mode, 0.0);  // conservative
    }
    if (*bound > 0.0) {
      if (const auto t = first_violation(*curves, *bound)) {
        return std::make_pair(mode, *t);
      }
    }
    ++mode;
  }
  return std::nullopt;
}

DemandResult accept(const TaskSet& ts, std::span<const std::size_t> members,
                    std::span<const double> scales) {
  DemandResult result{.schedulable = true,
                      .scales = std::vector<double>(ts.size(), 1.0)};
  for (std::size_t m = 0; m < members.size(); ++m) {
    result.scales[members[m]] = scales[m];
  }
  return result;
}

}  // namespace

double curve_demand(const Curve& c, double t) {
  if (t < c.d0 - 1e-9) return 0.0;
  const double jobs = std::floor((t - c.d0) / c.period + 1e-9) + 1.0;
  // With zero credit the formula below is exactly jobs * cost; the LO and
  // the DBF HI curves skip the carry-over arithmetic.
  if (c.credit == 0.0) return jobs * c.cost;
  const double r = (t - c.d0) - (jobs - 1.0) * c.period;
  return jobs * c.cost - std::max(0.0, c.credit - std::max(0.0, r));
}

Curve lo_curve(const McTask& task, double x) {
  const double period = task.period();
  const double d0 = task.level() >= 2 ? x * period : period;
  return Curve{d0, period, task.wcet(1), 0.0};
}

Curve hi_curve(DemandTest test, const McTask& task, double x) {
  const double period = task.period();
  const double credit = test == DemandTest::kGe ? task.wcet(1) : 0.0;
  return Curve{period - x * period, period, task.wcet(2), credit};
}

DemandResult demand_dual_test(DemandTest test, const TaskSet& ts,
                              std::span<const std::size_t> members) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "demand_dual_test: requires a dual-criticality task set");
  }
  std::vector<double> scales(members.size(), 1.0);
  if (members.empty()) return accept(ts, members, scales);

  // Tier 1: uniform scales over x = 1 (plain EDF), the EDF-VD analytical
  // factors and a uniform grid.
  UtilMatrix u(2);
  for (std::size_t i : members) u.add(ts[i]);
  std::vector<double> candidates{1.0};
  const double u22 = u.level_util(2, 2);
  if (u22 > 0.0 && u22 < 1.0) candidates.push_back(1.0 - u22);
  candidates.push_back(dual_scaling_factor(u));
  for (std::size_t g = 1; g <= kScaleGrid; ++g) {
    candidates.push_back(static_cast<double>(g) /
                         static_cast<double>(kScaleGrid));
  }
  for (double x : candidates) {
    if (x <= 0.0 || x > 1.0) continue;
    for (std::size_t m = 0; m < members.size(); ++m) {
      scales[m] = ts[members[m]].level() == 2 ? x : 1.0;
    }
    if (!violation(test, ts, members, scales)) {
      return accept(ts, members, scales);
    }
  }

  // Tier 2 (kGe only; pure-LO sets are settled by tier 1): greedy per-task
  // tuning from a mid-grid start.
  const bool any_hi = std::any_of(
      members.begin(), members.end(),
      [&](std::size_t i) { return ts[i].level() == 2; });
  if (test != DemandTest::kGe || !any_hi) return {};
  for (std::size_t m = 0; m < members.size(); ++m) {
    scales[m] = ts[members[m]].level() == 2 ? 0.5 : 1.0;
  }
  constexpr double step = 1.0 / static_cast<double>(kScaleGrid);
  for (std::size_t iter = 0; iter < kGreedyIterCap; ++iter) {
    const auto found = violation(test, ts, members, scales);
    if (!found) return accept(ts, members, scales);
    const auto [mode, t] = *found;
    // Pick the HI member contributing the most demand at the violation
    // point whose scale can still move in the helpful direction.
    std::size_t best = members.size();
    double best_demand = 0.0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const McTask& task = ts[members[m]];
      if (task.level() != 2) continue;
      const bool movable = mode == 0 ? scales[m] <= 1.0 - step * 0.5
                                     : scales[m] >= 2.0 * step - step * 0.5;
      const double demand =
          curve_demand(mode == 0 ? lo_curve(task, scales[m])
                                 : hi_curve(test, task, scales[m]),
                       t);
      if (movable && demand > best_demand) {
        best_demand = demand;
        best = m;
      }
    }
    if (best == members.size() || best_demand <= 0.0) return {};  // stuck
    scales[best] += mode == 0 ? step : -step;
  }
  return {};  // iteration cap: conservatively reject
}

DemandResult demand_dual_test(DemandTest test, const TaskSet& ts) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return demand_dual_test(test, ts, all);
}

}  // namespace mcs::analysis
