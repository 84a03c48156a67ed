#include "mcs/analysis/demand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "mcs/analysis/edfvd.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/sim/engine.hpp"

namespace mcs::analysis {
namespace {

TaskSet dual(std::vector<McTask> tasks) { return TaskSet(std::move(tasks), 2); }

/// The short period classes keep busy-period bounds (and scan cost) small.
gen::GenParams short_period_params(double nsu, std::size_t num_tasks) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 1;
  params.nsu = nsu;
  params.num_tasks = num_tasks;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  return params;
}

/// Plain step demand, (floor((t - d)/T) + 1)^+ * c: the uncredited curve
/// restated independently of the engine.
double step_demand(double t, double d, double period, double c) {
  if (t < d - 1e-9) return 0.0;
  return (std::floor((t - d) / period + 1e-9) + 1.0) * c;
}

TEST(DbfCurveTest, LoTaskStepsAtitsDeadlines) {
  const McTask lo(0, {3.0}, 10.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 9.9, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 10.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 19.9, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 20.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 45.0, 1.0), 12.0);
}

TEST(DbfCurveTest, HiTaskUsesScaledDeadlineInLoMode) {
  const McTask hi(0, {2.0, 6.0}, 10.0);
  // x = 0.5 -> virtual deadline 5.
  EXPECT_DOUBLE_EQ(dbf_lo(hi, 4.9, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(dbf_lo(hi, 5.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(dbf_lo(hi, 15.0, 0.5), 4.0);
}

TEST(DbfCurveTest, HiModeUsesComplementaryDeadline) {
  const McTask hi(0, {2.0, 6.0}, 10.0);
  // x = 0.4 -> effective HI deadline 10 - 4 = 6, cost C(HI) = 6.
  EXPECT_DOUBLE_EQ(dbf_hi(hi, 5.9, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(dbf_hi(hi, 6.0, 0.4), 6.0);
  EXPECT_DOUBLE_EQ(dbf_hi(hi, 16.0, 0.4), 12.0);
}

TEST(DbfCurveTest, LoTaskContributesNothingInHiMode) {
  const McTask lo(0, {3.0}, 10.0);
  EXPECT_DOUBLE_EQ(dbf_hi(lo, 100.0, 0.5), 0.0);
}

TEST(DbfTest, LoOnlyWorkloadNeedsNoScaling) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{4.0}, 20.0);
  const TaskSet ts(std::move(tasks), 2);
  const DemandResult r = dbf_dual_test(ts);
  ASSERT_TRUE(r.schedulable);
  EXPECT_EQ(r.scales, std::vector<double>(2, 1.0));
}

TEST(DbfTest, AcceptsLightMixedWorkloadWithScaling) {
  // With HI tasks present, x = 1 can never pass the HI-mode test (a
  // carry-over job would have zero slack), so a scaled deadline is chosen.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{1.0, 3.0}, 10.0);
  const TaskSet ts(std::move(tasks), 2);
  const DemandResult r = dbf_dual_test(ts);
  ASSERT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.scales[0], 1.0);  // LO task untouched
  EXPECT_GT(r.scales[1], 0.0);
  EXPECT_LT(r.scales[1], 1.0);
}

TEST(DbfTest, RejectsOverload) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{6.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{3.0, 8.0}, 10.0);
  const TaskSet ts(std::move(tasks), 2);
  EXPECT_FALSE(dbf_dual_test(ts).schedulable);
}

TEST(DbfTest, NeedsDeadlineScalingForHeavyHiTasks) {
  // U_1(1) = 0.32, U_2(1) = 0.2, U_2(2) = 0.7: plain EDF misses in LO mode
  // after a switch-free... (x = 1 fails the HI test: effective deadline 0);
  // the test must find an intermediate x.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{32.0}, 100.0);
  tasks.emplace_back(1, std::vector<double>{20.0, 70.0}, 100.0);
  const TaskSet ts(std::move(tasks), 2);
  const DemandResult r = dbf_dual_test(ts);
  ASSERT_TRUE(r.schedulable);
  EXPECT_LT(r.scales[1], 1.0);
  EXPECT_GT(r.scales[1], 0.0);
}

TEST(DbfTest, EmptySubsetSchedulable) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{1.0, 2.0}, 10.0);
  const TaskSet ts(std::move(tasks), 2);
  EXPECT_TRUE(
      dbf_dual_test(ts, std::vector<std::size_t>{}).schedulable);
}

TEST(DbfTest, RequiresDualCriticality) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{1.0, 2.0, 3.0}, 10.0);
  const TaskSet ts(std::move(tasks), 3);
  EXPECT_THROW((void)dbf_dual_test(ts), std::invalid_argument);
}

class DbfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Soundness: a DBF-accepted set executed under EDF-VD *at the accepted
// deadline scale* never misses, whatever the jobs do.
TEST_P(DbfPropertyTest, AcceptedSetsNeverMissAtTheChosenScale) {
  const gen::GenParams params = short_period_params(0.55, 8);
  std::size_t accepted = 0;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    const DemandResult dbf = dbf_dual_test(ts);
    if (!dbf.schedulable) continue;
    ++accepted;
    Partition partition(ts, 1);
    for (std::size_t i = 0; i < ts.size(); ++i) partition.assign(i, 0);
    sim::SimConfig config;
    config.dual_scales = dbf.scales;
    for (int kind = 0; kind < 3; ++kind) {
      const sim::SimResult r = [&] {
        switch (kind) {
          case 0:
            return simulate(partition, sim::FixedLevelScenario(1), config);
          case 1:
            return simulate(partition, sim::FixedLevelScenario(2), config);
          default:
            return simulate(partition, sim::RandomScenario(trial, 0.4),
                            config);
        }
      }();
      EXPECT_TRUE(r.misses.empty())
          << "trial " << trial << " scenario " << kind;
    }
  }
  EXPECT_GT(accepted, 5u);
}

// Statistical dominance: across many draws the DBF test accepts at least
// roughly as many sets as the utilization test (it is strictly finer in
// theory; the small slack absorbs its conservative horizon cap and scale
// grid at analytic boundary cases).
TEST_P(DbfPropertyTest, AcceptsAboutAsMuchAsTheUtilizationTest) {
  const gen::GenParams params = short_period_params(0.75, 8);
  std::size_t util_ok = 0;
  std::size_t dbf_ok = 0;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    if (improved_test(ts.utils()).schedulable) ++util_ok;
    if (dbf_dual_test(ts).schedulable) ++dbf_ok;
  }
  EXPECT_GE(dbf_ok + 3, util_ok);
}

// Hand-computed values of the credited HI curve for a task with T = 10,
// C(LO) = 2, C(HI) = 4 at x = 0.5: d0 = T - v = 5, credit = C(LO) = 2.
TEST(GeDbfHiTest, CreditedCurveMatchesHandComputation) {
  const McTask task(1, {2.0, 4.0}, 10.0);
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 4.9, 0.5), 0.0);   // before first deadline
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 5.0, 0.5), 2.0);   // 4 - (2 - 0)
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 6.0, 0.5), 3.0);   // 4 - (2 - 1)
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 7.0, 0.5), 4.0);   // credit exhausted
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 14.0, 0.5), 4.0);  // still one job
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 15.0, 0.5), 6.0);  // 8 - (2 - 0)
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 17.5, 0.5), 8.0);
}

TEST(GeDbfHiTest, LoTaskHasNoHiDemand) {
  const McTask task(1, {3.0}, 10.0);
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 100.0, 0.5), 0.0);
}

// The credit only subtracts: the GE curve never exceeds the DBF curve at
// the same scale, which is what the dominance argument rests on.
TEST(GeDbfHiTest, LowerBoundsTheUncreditedCurve) {
  const McTask task(1, {3.0, 7.0}, 20.0);
  for (double x : {0.25, 0.5, 0.75, 1.0}) {
    for (double t = 0.0; t <= 200.0; t += 0.5) {
      EXPECT_LE(ge_dbf_hi(task, t, x), dbf_hi(task, t, x) + 1e-12)
          << "t=" << t << " x=" << x;
    }
  }
}

// At breakpoints accumulated the way the scan produces them (t = d0;
// t += T), t often lands a rounding error below its step, so the carry-over
// slack r comes out slightly negative.  There the credit must still not
// exceed C(LO), the uncredited curves must be the plain step curves, and
// the LO curve a GE task is tested with must be dbf_lo — all bit for bit.
TEST(DemandCurveTest, ScanBreakpointsCreditAtMostTheLoBudget) {
  const gen::GenParams params = short_period_params(0.8, 12);
  std::size_t checked = 0;
  std::size_t negative_slack = 0;
  std::size_t failures = 0;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const TaskSet ts = gen::generate_trial(params, 91, trial);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const McTask& task = ts[i];
      if (task.level() != 2) continue;
      const double period = task.period();
      for (std::size_t g = 1; g <= 20; ++g) {
        const double x = static_cast<double>(g) / 20.0;
        const Curve hi = hi_curve(DemandTest::kGe, task, x);
        const Curve lo = lo_curve(task, x);
        for (const double start : {hi.d0, hi.d0 + hi.credit}) {
          for (double t = start; t <= start + 40.0 * period; t += period) {
            ++checked;
            const double jobs =
                std::floor((t - hi.d0) / period + 1e-9) + 1.0;
            if (t - hi.d0 - (jobs - 1.0) * period < 0.0) ++negative_slack;
            const double uncredited = step_demand(t, hi.d0, period,
                                                  task.wcet(2));
            if (!(ge_dbf_hi(task, t, x) >= dbf_hi(task, t, x) -
                                               task.wcet(1)) ||
                dbf_hi(task, t, x) != uncredited) {
              ++failures;
            }
          }
        }
        for (double t = lo.d0; t <= lo.d0 + 40.0 * period; t += period) {
          ++checked;
          const double plain = step_demand(t, x * period, period,
                                           task.wcet(1));
          if (curve_demand(lo, t) != plain || dbf_lo(task, t, x) != plain) {
            ++failures;
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u) << "of " << checked << " breakpoints";
  EXPECT_GT(negative_slack, 0u) << "no breakpoint exercised r < 0";
}

TEST(GeDualTest, EmptyMembersAreSchedulable) {
  const TaskSet ts = dual({McTask(1, {1.0, 2.0}, 10.0)});
  const std::vector<std::size_t> none;
  const DemandResult r = ge_dual_test(ts, none);
  EXPECT_TRUE(r.schedulable);
  ASSERT_EQ(r.scales.size(), ts.size());
  EXPECT_DOUBLE_EQ(r.scales[0], 1.0);
}

TEST(GeDualTest, AcceptsLightSetRejectsOverload) {
  const TaskSet light = dual({McTask(1, {1.0, 2.0}, 10.0),
                              McTask(2, {2.0}, 10.0)});
  EXPECT_TRUE(ge_dual_test(light).schedulable);

  // u(LO) alone exceeds 1: no deadline scaling can help.
  const TaskSet heavy = dual({McTask(1, {6.0, 8.0}, 10.0),
                              McTask(2, {6.0}, 10.0)});
  EXPECT_FALSE(ge_dual_test(heavy).schedulable);
}

TEST(GeDualTest, ThrowsOutsideDualCriticality) {
  const TaskSet k3({McTask(1, {1.0, 2.0, 3.0}, 10.0)}, 3);
  EXPECT_THROW((void)ge_dual_test(k3), std::invalid_argument);
}

TEST(GeDualTest, ScalesAreValidOnAcceptance) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_tasks = 10;
  params.nsu = 0.6;
  params.num_cores = 1;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const TaskSet ts = gen::generate_trial(params, seed, 0);
    const DemandResult r = ge_dual_test(ts);
    if (!r.schedulable) continue;
    ASSERT_EQ(r.scales.size(), ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].level() == 2) {
        EXPECT_GT(r.scales[i], 0.0);
        EXPECT_LE(r.scales[i], 1.0);
      } else {
        EXPECT_DOUBLE_EQ(r.scales[i], 1.0);
      }
    }
  }
}

// Dominance by construction: every dbf_dual_test acceptance must be a GE
// acceptance (both tests try the same uniform candidates and the GE curves
// are pointwise no larger).  The differential fuzzer checks the same
// property adversarially; this pins it as a unit test.
TEST(GeDualTest, DominatesDbfDualTest) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_tasks = 12;
  params.num_cores = 1;
  std::size_t dbf_accepts = 0;
  for (double nsu : {0.5, 0.7, 0.9}) {
    params.nsu = nsu;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      const TaskSet ts = gen::generate_trial(params, seed, 0);
      if (!dbf_dual_test(ts).schedulable) continue;
      ++dbf_accepts;
      EXPECT_TRUE(ge_dual_test(ts).schedulable)
          << "DBF accepted but GE rejected (nsu=" << nsu
          << " seed=" << seed << ")";
    }
  }
  EXPECT_GT(dbf_accepts, 0u) << "grid never exercised the dominance check";
}

// Determinism: the gate result feeds golden parity and the oracle's scale
// re-derivation, so two runs must agree bit for bit.
TEST(GeDualTest, Deterministic) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_tasks = 16;
  params.nsu = 0.8;
  params.num_cores = 1;
  const TaskSet ts = gen::generate_trial(params, 3, 0);
  const DemandResult a = ge_dual_test(ts);
  const DemandResult b = ge_dual_test(ts);
  EXPECT_EQ(a.schedulable, b.schedulable);
  ASSERT_EQ(a.scales.size(), b.scales.size());
  for (std::size_t i = 0; i < a.scales.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.scales[i], b.scales[i]);
  }
}

// When the uniform tier passes, GE returns the uniform scale on every HI
// task (here the one the DBF test picks too) and leaves LO tasks at 1.
TEST(GeTunedTest, MatchesUniformWhenUniformPasses) {
  const TaskSet ts = dual({McTask(0, {2.0}, 10.0),
                           McTask(1, {1.0, 3.0}, 10.0)});
  const DemandResult dbf = dbf_dual_test(ts);
  const DemandResult ge = ge_dual_test(ts);
  ASSERT_TRUE(dbf.schedulable);
  ASSERT_TRUE(ge.schedulable);
  EXPECT_DOUBLE_EQ(ge.scales[0], 1.0);
  EXPECT_EQ(ge.scales, dbf.scales);
}

// A set no uniform scale passes (DBF rejects; GE's unequal scales show
// its own uniform tier failed too) that the greedy tier accepts.
TEST(GeTunedTest, PerTaskScalesCanRescueUniformFailures) {
  const TaskSet ts =
      gen::generate_trial(short_period_params(0.8, 8), 81, 1);
  ASSERT_FALSE(dbf_dual_test(ts).schedulable);
  const DemandResult ge = ge_dual_test(ts);
  ASSERT_TRUE(ge.schedulable);
  EXPECT_NE(ge.scales[0], ge.scales[1]);  // both HI tasks
}

// The greedy tier GE ships, executed in the engine: at NSU 0.8 some
// acceptances carry unequal HI scales (the uniform tier never does), and
// those per-task scales must not miss under a full HI overrun or random
// overruns.
TEST(GeTunedTest, GreedyScalesExecuteWithoutMisses) {
  const gen::GenParams params = short_period_params(0.8, 8);
  std::size_t tuned = 0;
  for (const std::uint64_t seed : {81u, 82u, 83u}) {
    for (std::uint64_t trial = 0; trial < 25; ++trial) {
      const TaskSet ts = gen::generate_trial(params, seed, trial);
      const DemandResult ge = ge_dual_test(ts);
      if (!ge.schedulable) continue;
      std::vector<double> hi_scales;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].level() == 2) hi_scales.push_back(ge.scales[i]);
      }
      if (std::adjacent_find(hi_scales.begin(), hi_scales.end(),
                             std::not_equal_to<>()) == hi_scales.end()) {
        continue;  // a uniform-tier acceptance
      }
      ++tuned;
      Partition partition(ts, 1);
      for (std::size_t i = 0; i < ts.size(); ++i) partition.assign(i, 0);
      sim::SimConfig config;
      config.dual_scales = ge.scales;
      for (int kind = 0; kind < 2; ++kind) {
        const sim::SimResult r =
            kind == 0
                ? simulate(partition, sim::FixedLevelScenario(2), config)
                : simulate(partition, sim::RandomScenario(trial, 0.5),
                           config);
        EXPECT_TRUE(r.misses.empty())
            << "seed " << seed << " trial " << trial << " scenario " << kind;
      }
    }
  }
  EXPECT_GE(tuned, 1u) << "no acceptance came from the greedy tier";
}

// Tuned-test properties: the per-task-scale test (GE, the only tuned tier)
// accepts every set the uniform DBF test accepts, and every scale vector
// it returns, uniform or greedy, executes without misses.
class DbfTunedPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DbfTunedPropertyTest, DominatesUniformAndScalesAreSound) {
  const gen::GenParams params = short_period_params(0.65, 8);
  std::size_t uniform_ok = 0;
  std::size_t tuned_ok = 0;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    const DemandResult uniform = dbf_dual_test(ts);
    const DemandResult tuned = ge_dual_test(ts);
    if (uniform.schedulable) {
      ++uniform_ok;
      EXPECT_TRUE(tuned.schedulable) << "dominance broken, trial " << trial;
    }
    if (!tuned.schedulable) continue;
    ++tuned_ok;
    Partition partition(ts, 1);
    for (std::size_t i = 0; i < ts.size(); ++i) partition.assign(i, 0);
    sim::SimConfig config;
    config.dual_scales = tuned.scales;
    for (int kind = 0; kind < 2; ++kind) {
      const sim::SimResult r =
          kind == 0 ? simulate(partition, sim::FixedLevelScenario(2), config)
                    : simulate(partition, sim::RandomScenario(trial, 0.5),
                               config);
      EXPECT_TRUE(r.misses.empty())
          << "trial " << trial << " scenario " << kind;
    }
  }
  EXPECT_GE(tuned_ok, uniform_ok);
  EXPECT_GT(tuned_ok, 3u);
}

INSTANTIATE_TEST_SUITE_P(TunedSeeds, DbfTunedPropertyTest,
                         ::testing::Values(81u, 82u, 83u));

INSTANTIATE_TEST_SUITE_P(Seeds, DbfPropertyTest,
                         ::testing::Values(41u, 42u, 43u));

}  // namespace
}  // namespace mcs::analysis
