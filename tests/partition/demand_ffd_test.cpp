#include "mcs/partition/demand_ffd.hpp"

#include <gtest/gtest.h>

#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/classic.hpp"

namespace mcs::partition {
namespace {

const DemandFfdPartitioner kDbfFfd(analysis::DemandTest::kDbf);

TEST(DbfFfdTest, Name) {
  EXPECT_EQ(kDbfFfd.name(), "DBF-FFD");
}

TEST(DbfFfdTest, RequiresDualCriticality) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{1.0, 2.0, 3.0}, 10.0);
  const TaskSet ts(std::move(tasks), 3);
  EXPECT_THROW((void)kDbfFfd.run(ts, 2), std::invalid_argument);
}

TEST(DbfFfdTest, PartitionsEasyWorkloads) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{1.0, 3.0}, 10.0);
  tasks.emplace_back(2, std::vector<double>{4.0}, 20.0);
  const TaskSet ts(std::move(tasks), 2);
  const PartitionResult r = kDbfFfd.run(ts, 2);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.partition.complete());
}

TEST(DbfFfdTest, ReportsFailureOnOverload) {
  std::vector<McTask> tasks;
  for (std::size_t i = 0; i < 3; ++i) {
    tasks.emplace_back(i, std::vector<double>{10.0, 90.0}, 100.0);
  }
  const TaskSet ts(std::move(tasks), 2);
  const PartitionResult r = kDbfFfd.run(ts, 2);
  EXPECT_FALSE(r.success);
  ASSERT_TRUE(r.failed_task.has_value());
}

TEST(DbfFfdTest, AcceptsAtLeastAsManySetsAsUtilizationFfd) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 2;
  params.nsu = 0.7;
  params.num_tasks = 12;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  const ClassicPartitioner ffd(FitRule::kFirst);
  std::size_t dbf_ok = 0;
  std::size_t ffd_ok = 0;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const TaskSet ts = gen::generate_trial(params, 51, trial);
    if (kDbfFfd.run(ts, params.num_cores).success) ++dbf_ok;
    if (ffd.run(ts, params.num_cores).success) ++ffd_ok;
  }
  // The finer (and costlier) test should not lose overall; allow a small
  // slack for its conservative horizon cap at boundary cases.
  EXPECT_GE(dbf_ok + 2, ffd_ok);
  EXPECT_GT(dbf_ok, 5u);
}

TEST(DbfFfdTest, AcceptedCoresPassTheDbfTest) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 2;
  params.nsu = 0.5;
  params.num_tasks = 10;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  for (std::uint64_t trial = 0; trial < 15; ++trial) {
    const TaskSet ts = gen::generate_trial(params, 52, trial);
    const PartitionResult r = kDbfFfd.run(ts, params.num_cores);
    if (!r.success) continue;
    for (std::size_t core = 0; core < params.num_cores; ++core) {
      EXPECT_TRUE(
          analysis::dbf_dual_test(ts, r.partition.tasks_on(core)).schedulable);
    }
  }
}

}  // namespace
}  // namespace mcs::partition
