// UD-TPA: utilization-difference-based task partitioning (in the spirit of
// Ramanathan & Easwaran, arXiv 2003.05445).
//
// The driving observation: what strains a mixed-criticality core is not a
// task's own-level utilization but the *spread* between its levels — a task
// whose HI budget dwarfs its LO budget inflates the high-level terms of
// every Eq. (8)/(9) condition on its core.  UD-TPA therefore splits
// placement into two phases:
//
//   1. multi-level tasks (level >= 2), ordered by decreasing utilization
//      difference diff_i = u_i(l_i) - u_i(1) (ties: decreasing u_i(l_i),
//      then index), each placed on the feasible core with the smallest
//      accumulated difference load — worst-fit on the spread, so no core
//      concentrates the mode-switch overload;
//   2. single-level tasks, ordered by decreasing u_i(1), worst-fit on the
//      classical Eq. (4) load — they only fill LO-mode capacity.
//
// Both phases ride the shared place_in_order_batched skeleton.  The
// acceptance gate is selectable (the scheme-grammar forms in brackets):
//   * kTheorem1 ["UD-TPA"]     — Eq. (4) fast path, Theorem 1 fallback,
//                                via the batched SoA probe_fits_all;
//   * kEq4     ["UD-TPA/eq4"]  — Eq. (4) only, batched;
//   * kGe      ["UD-TPA/ge"]   — the credited demand-bound test of
//                                analysis/demand.hpp (dual-criticality
//                                only; scalar per-core probes).
#pragma once

#include "mcs/partition/partitioner.hpp"

namespace mcs::partition {

enum class UdGate {
  kTheorem1,  ///< Eq. (4) then Theorem 1 (the repo's default gate)
  kEq4,       ///< Eq. (4) only (test-strength ablation)
  kGe,        ///< analysis::ge_dual_test (dual-criticality only)
};

class UdTpaPartitioner final : public Partitioner {
 public:
  explicit UdTpaPartitioner(UdGate gate = UdGate::kTheorem1)
      : gate_(gate) {}

  /// The kGe gate requires ts.num_levels() == 2; throws
  /// std::invalid_argument otherwise.  kTheorem1/kEq4 accept any K.
  [[nodiscard]] PlacementOutcome run_on(
      analysis::PlacementEngine& engine) const override;

  [[nodiscard]] std::string name() const override {
    switch (gate_) {
      case UdGate::kEq4:
        return "UD-TPA/eq4";
      case UdGate::kGe:
        return "UD-TPA/ge";
      case UdGate::kTheorem1:
        break;
    }
    return "UD-TPA";
  }

 private:
  UdGate gate_;
};

}  // namespace mcs::partition
