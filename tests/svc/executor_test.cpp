// Sweep worker counts: --jobs validation, byte-identity of artifacts across
// worker counts (including points split into several 64-trial chunks),
// resume across worker counts, and out-of-order checkpoint appends.
#include "mcs/svc/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "mcs/exp/paper_params.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::svc {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / ("mcs_svc_executor_" + name)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

const exp::SweepSpec& spec_named(const std::string& name) {
  const exp::SweepSpec* spec = exp::find_spec(name);
  EXPECT_NE(spec, nullptr);
  return *spec;
}

/// fig1 at a few trials: 5 points, every scheme, checkpoint + artifact
/// machinery end to end but fast.
const exp::SweepSpec& test_spec() { return spec_named("fig1"); }

exp::SpecRunOptions small_options(const std::string& dir) {
  exp::SpecRunOptions options;
  options.trials = 12;
  options.seed = 7;
  options.threads = 1;
  options.artifacts_dir = dir;
  options.source = "executor-test";
  return options;
}

TEST(ResolveJobsTest, RejectsZero) {
  EXPECT_THROW((void)resolve_jobs(0), std::invalid_argument);
}

TEST(ResolveJobsTest, PassesThroughSmallCounts) {
  EXPECT_EQ(resolve_jobs(1), 1u);
}

TEST(ResolveJobsTest, ClampsToHardwareConcurrency) {
  const std::size_t hardware = util::default_thread_count();
  EXPECT_EQ(resolve_jobs(1u << 20), hardware);
  EXPECT_LE(resolve_jobs(hardware), hardware);
}

/// (spec, trials, jobs).  130 trials split each point into three chunks
/// (64 + 64 + 2), so with several workers one point's chunks finish on
/// different threads and their partials, counters and percentiles merge
/// from there.
using ByteIdentityParam = std::tuple<std::string, std::uint64_t, std::size_t>;

class JobsByteIdentityTest
    : public ::testing::TestWithParam<ByteIdentityParam> {};

TEST_P(JobsByteIdentityTest, ArtifactsMatchOneWorker) {
  const auto& [spec_name, trials, jobs] = GetParam();
  const std::string tag = spec_name + "_" + std::to_string(trials) + "_" +
                          std::to_string(jobs);
  ScratchDir one_dir("one_" + tag), many_dir("many_" + tag);
  exp::SpecRunOptions one = small_options(one_dir.str());
  one.trials = trials;
  exp::SpecRunOptions many = small_options(many_dir.str());
  many.trials = trials;
  // Set regardless of this machine's core count: determinism must come
  // from the merge discipline, not from the scheduler degenerating to one
  // worker.
  many.threads = jobs;
  const exp::SpecRunResult reference =
      exp::run_spec(spec_named(spec_name), one);
  const exp::SpecRunResult run = exp::run_spec(spec_named(spec_name), many);

  ASSERT_TRUE(reference.complete);
  ASSERT_TRUE(run.complete);
  EXPECT_EQ(reference.fingerprint, run.fingerprint);
  const std::string json = read_file(reference.json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json, read_file(run.json_path));
  EXPECT_EQ(read_file(reference.csv_path), read_file(run.csv_path));

  // Per-point observability deltas folded from the chunks' sinks.
  ASSERT_EQ(reference.point_counters.size(), run.point_counters.size());
  for (std::size_t i = 0; i < reference.point_counters.size(); ++i) {
    EXPECT_FALSE(run.point_counters[i].empty()) << "point " << i;
    EXPECT_EQ(reference.point_counters[i], run.point_counters[i])
        << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JobsByteIdentityTest,
    ::testing::Combine(::testing::Values("fig1", "fig3"),
                       ::testing::Values(std::uint64_t{12}, std::uint64_t{130}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{4})),
    [](const ::testing::TestParamInfo<ByteIdentityParam>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "trials_" +
             std::to_string(std::get<2>(param_info.param)) + "jobs";
    });

TEST(SvcExecutorTest, JobsOneUsesSameSchedulerAndMatches) {
  ScratchDir seq_dir("seq1"), par_dir("par1");
  exp::SpecRunOptions all_cores = small_options(seq_dir.str());
  all_cores.threads = 0;  // hardware concurrency
  const exp::SpecRunResult sequential = exp::run_spec(test_spec(), all_cores);
  const exp::SpecRunResult one_job =
      run_spec_parallel(test_spec(), small_options(par_dir.str()), 1);
  EXPECT_EQ(read_file(sequential.json_path), read_file(one_job.json_path));
}

TEST(SvcExecutorTest, ParallelResumesSequentialCheckpoint) {
  ScratchDir full_dir("full"), resumed_dir("resumed");
  const exp::SpecRunResult full =
      exp::run_spec(test_spec(), small_options(full_dir.str()));

  // Interrupt a one-worker run after 3 points, then finish it on three
  // workers: chunk-merged completion must restore byte-identical artifacts.
  exp::SpecRunOptions interrupted = small_options(resumed_dir.str());
  interrupted.stop_after_points = 3;
  const exp::SpecRunResult partial = exp::run_spec(test_spec(), interrupted);
  ASSERT_FALSE(partial.complete);

  const exp::SpecRunResult finished =
      run_spec_parallel(test_spec(), small_options(resumed_dir.str()), 3);
  ASSERT_TRUE(finished.complete);
  EXPECT_EQ(finished.resumed_points, 3u);
  EXPECT_EQ(read_file(full.json_path), read_file(finished.json_path));
}

TEST(SvcExecutorTest, SequentialResumesParallelCheckpoint) {
  ScratchDir full_dir("full2"), resumed_dir("resumed2");
  const exp::SpecRunResult full =
      exp::run_spec(test_spec(), small_options(full_dir.str()));

  exp::SpecRunOptions interrupted = small_options(resumed_dir.str());
  interrupted.stop_after_points = 4;
  const exp::SpecRunResult partial =
      run_spec_parallel(test_spec(), interrupted, 4);
  ASSERT_FALSE(partial.complete);

  const exp::SpecRunResult finished =
      exp::run_spec(test_spec(), small_options(resumed_dir.str()));
  ASSERT_TRUE(finished.complete);
  EXPECT_EQ(finished.resumed_points, 4u);
  EXPECT_EQ(read_file(full.json_path), read_file(finished.json_path));
}

TEST(SvcExecutorTest, OutOfOrderCheckpointAppendsRestoreIdentically) {
  // Points append to the checkpoint in completion order, which may
  // interleave arbitrarily across workers.  Simulate the worst case — every
  // point line reversed — and verify the loader + artifact writer produce
  // the same bytes as the in-order run.
  ScratchDir in_order_dir("inorder"), reversed_dir("reversed");
  exp::SpecRunOptions options = small_options(in_order_dir.str());
  options.threads = 1;
  options.keep_checkpoint = true;
  const exp::SpecRunResult in_order = exp::run_spec(test_spec(), options);
  ASSERT_TRUE(in_order.complete);

  std::vector<std::string> lines;
  {
    std::istringstream in(read_file(in_order.checkpoint_path));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 1 + in_order.result.points.size());
  std::reverse(lines.begin() + 1, lines.end());  // the header stays first

  const exp::SpecRunOptions reversed_options =
      small_options(reversed_dir.str());
  {
    std::ofstream out(fs::path(reversed_dir.str()) /
                      fs::path(in_order.checkpoint_path).filename());
    for (const std::string& line : lines) out << line << '\n';
  }
  // Resuming from the reversed checkpoint finds every point done and only
  // writes artifacts.
  const exp::SpecRunResult restored =
      run_spec_parallel(test_spec(), reversed_options, 2);
  ASSERT_TRUE(restored.complete);
  EXPECT_EQ(restored.resumed_points, in_order.result.points.size());
  EXPECT_EQ(read_file(in_order.json_path), read_file(restored.json_path));
  EXPECT_EQ(read_file(in_order.csv_path), read_file(restored.csv_path));
}

TEST(SvcExecutorTest, RunSweepIsBitExactAcrossJobs) {
  const exp::Sweep sweep = to_sweep(test_spec(), exp::kDefaultAlpha);
  exp::RunOptions options;
  options.trials = 130;
  options.seed = 3;
  options.threads = 1;
  const exp::SweepResult one = run_sweep(sweep, options);
  options.threads = 4;
  const exp::SweepResult four = run_sweep(sweep, options);

  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t p = 0; p < one.points.size(); ++p) {
    const exp::PointResult& a = one.points[p];
    const exp::PointResult& b = four.points[p];
    EXPECT_EQ(a.x, b.x);
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t s = 0; s < a.schemes.size(); ++s) {
      EXPECT_EQ(a.schemes[s].trials, 130u);
      EXPECT_EQ(a.schemes[s].schedulable, b.schemes[s].schedulable);
      EXPECT_EQ(a.schemes[s].u_sys.mean(), b.schemes[s].u_sys.mean());
      EXPECT_EQ(a.schemes[s].u_sys.m2(), b.schemes[s].u_sys.m2());
      EXPECT_EQ(a.schemes[s].u_avg.m2(), b.schemes[s].u_avg.m2());
      EXPECT_EQ(a.schemes[s].imbalance.mean(), b.schemes[s].imbalance.mean());
      EXPECT_EQ(a.schemes[s].probes.mean(), b.schemes[s].probes.mean());
      EXPECT_EQ(a.schemes[s].probes.m2(), b.schemes[s].probes.m2());
    }
  }
}

}  // namespace
}  // namespace mcs::svc
