#include "mcs/partition/ud_tpa.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "mcs/analysis/demand.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/demand_ffd.hpp"

namespace mcs::partition {
namespace {

TEST(UdTpaTest, NamesFollowTheSchemeGrammar) {
  EXPECT_EQ(UdTpaPartitioner().name(), "UD-TPA");
  EXPECT_EQ(UdTpaPartitioner(UdGate::kEq4).name(), "UD-TPA/eq4");
  EXPECT_EQ(UdTpaPartitioner(UdGate::kGe).name(), "UD-TPA/ge");
  EXPECT_EQ(DemandFfdPartitioner(analysis::DemandTest::kGe).name(), "GE-FFD");
}

TEST(UdTpaTest, GeGateRequiresDualCriticality) {
  const TaskSet k4({McTask(1, {1.0, 2.0, 3.0, 4.0}, 20.0)}, 4);
  EXPECT_THROW((void)UdTpaPartitioner(UdGate::kGe).run(k4, 2),
               std::invalid_argument);
  EXPECT_THROW(
      (void)DemandFfdPartitioner(analysis::DemandTest::kGe).run(k4, 2),
      std::invalid_argument);
  EXPECT_NO_THROW((void)UdTpaPartitioner().run(k4, 2));
  EXPECT_NO_THROW((void)UdTpaPartitioner(UdGate::kEq4).run(k4, 2));
}

// Phase 1 is worst-fit on the accumulated utilization difference: two
// high-spread tasks must land on different cores even though either core
// could schedule both.
TEST(UdTpaTest, SpreadsUtilizationDifferenceAcrossCores) {
  const TaskSet ts({McTask(1, {1.0, 5.0}, 20.0),   // diff 0.20
                    McTask(2, {1.0, 4.0}, 20.0),   // diff 0.15
                    McTask(3, {2.0}, 20.0),        // LO
                    McTask(4, {2.0}, 20.0)},       // LO
                   2);
  const PartitionResult r = UdTpaPartitioner().run(ts, 2);
  ASSERT_TRUE(r.success);
  EXPECT_NE(r.partition.core_of(0), r.partition.core_of(1))
      << "both high-difference tasks piled onto one core";
  // The LO tasks balance the remaining load: one per core.
  EXPECT_NE(r.partition.core_of(2), r.partition.core_of(3));
}

// Single-level sets skip phase 1 entirely and degrade to worst-fit.
TEST(UdTpaTest, PureLoSetPlacesWorstFit) {
  const TaskSet ts({McTask(1, {8.0}, 20.0), McTask(2, {6.0}, 20.0),
                    McTask(3, {4.0}, 20.0), McTask(4, {2.0}, 20.0)},
                   2);
  const PartitionResult r = UdTpaPartitioner().run(ts, 2);
  ASSERT_TRUE(r.success);
  // Worst-fit by decreasing utilization: 8->c0, 6->c1, 4->c1, 2->c0.
  EXPECT_EQ(r.partition.core_of(0), r.partition.core_of(3));
  EXPECT_EQ(r.partition.core_of(1), r.partition.core_of(2));
  EXPECT_NE(r.partition.core_of(0), r.partition.core_of(1));
}

// The GE gate must agree with a from-scratch ge_dual_test on every core of
// an accepted partition (the oracle and differential checker rely on this
// re-derivation matching the placement-time accepts).
TEST(UdTpaTest, GeGateAcceptsAreReDerivable) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 2;
  params.num_tasks = 14;
  params.nsu = 0.7;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = gen::generate_trial(params, seed, 0);
    const PartitionResult r = UdTpaPartitioner(UdGate::kGe).run(ts, 2);
    if (!r.success) continue;
    ++accepted;
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_TRUE(
          analysis::ge_dual_test(ts, r.partition.tasks_on(m)).schedulable)
          << "seed " << seed << " core " << m;
    }
  }
  EXPECT_GT(accepted, 0u) << "grid never produced an accepted partition";
}

// The stronger gate never loses to the weaker ones on the same ordering:
// what UD-TPA (Theorem 1) or UD-TPA/eq4 place successfully, UD-TPA/ge must
// place too (GE accepts every Eq.(4)/Theorem-1-schedulable core's members
// at x = 1 or below... not in general core-by-core, but the success flag
// comparison across a grid catches gross regressions).
TEST(UdTpaTest, DeterministicAcrossRuns) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 4;
  params.num_tasks = 24;
  params.nsu = 0.7;
  const TaskSet ts = gen::generate_trial(params, 5, 0);
  const PartitionResult a = UdTpaPartitioner().run(ts, 4);
  const PartitionResult b = UdTpaPartitioner().run(ts, 4);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.probes, b.probes);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(a.partition.core_of(i), b.partition.core_of(i));
  }
}

}  // namespace
}  // namespace mcs::partition
