// Demand-gated first-fit partitioners for dual-criticality systems:
// classical max-utilization FFD ordering, but a core accepts a task iff the
// demand-bound test of analysis/demand.hpp still passes on its members.
//   * DBF-FFD — the uncredited test, modeling the higher-complexity
//     partitioned scheme of Gu, Guan, Deng & Yi (DATE'14, the paper's
//     reference [20]);
//   * GE-FFD — the credited, per-task-tuned test (in the spirit of Gu &
//     Easwaran, arXiv 2003.05160): the head-to-head counterpart with the
//     strictly tighter per-core gate.
#pragma once

#include "mcs/analysis/demand.hpp"
#include "mcs/partition/partitioner.hpp"

namespace mcs::partition {

class DemandFfdPartitioner final : public Partitioner {
 public:
  explicit DemandFfdPartitioner(analysis::DemandTest test) : test_(test) {}

  /// Requires ts.num_levels() == 2; throws std::invalid_argument otherwise.
  [[nodiscard]] PlacementOutcome run_on(
      analysis::PlacementEngine& engine) const override;
  [[nodiscard]] std::string name() const override {
    return test_ == analysis::DemandTest::kGe ? "GE-FFD" : "DBF-FFD";
  }

  /// The accepted per-task deadline scales of the last successful run are
  /// not stored (the partitioner is stateless); re-derive them with
  /// analysis::demand_dual_test on each core's subset.
 private:
  analysis::DemandTest test_;
};

}  // namespace mcs::partition
