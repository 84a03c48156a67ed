#include "mcs/partition/demand_ffd.hpp"

#include <algorithm>
#include <stdexcept>

#include "mcs/core/contributions.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::partition {

namespace {
constexpr obs::TraceSite kDbfPlaceSite{"dbf_ffd.place", "tasks", "cores"};
constexpr obs::TraceSite kGePlaceSite{"ge_ffd.place", "tasks", "cores"};
}  // namespace

PlacementOutcome DemandFfdPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const TaskSet& ts = engine.taskset();
  const obs::ScopedSpan span(
      test_ == analysis::DemandTest::kGe ? kGePlaceSite : kDbfPlaceSite,
      ts.size(), engine.num_cores());
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "DemandFfdPartitioner: requires a dual-criticality task set");
  }
  const std::vector<std::size_t> order = order_by_max_utilization(ts);
  std::vector<std::size_t> members;  // reused across probes
  PlacementOutcome outcome;
  // The demand tests work off member lists, not the utilization planes, so
  // the fill loops cores with the scalar test (count_probe per core
  // attempted) and early-exits at the first feasible core — the batched
  // engine-level M-probe accounting applies only to true plane-backed
  // batched probes.
  outcome.failed_task = place_in_order_batched(
      order, engine.num_cores(), SelectionRule::kFirstFeasible, 0.0,
      [&](std::size_t t, std::span<Candidate> /*candidates*/,
          std::span<unsigned char> feasible) {
        std::fill(feasible.begin(), feasible.end(),
                  static_cast<unsigned char>(0));
        for (std::size_t m = 0; m < feasible.size(); ++m) {
          engine.count_probe();
          members = engine.partition().tasks_on(m);
          members.push_back(t);
          if (!analysis::demand_dual_test(test_, ts, members).schedulable) {
            continue;
          }
          feasible[m] = 1;
          break;  // first feasible wins; later cores are never probed
        }
      },
      [&](std::size_t t, const CoreChoice& choice) {
        engine.commit(t, choice.core);
      });
  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

}  // namespace mcs::partition
