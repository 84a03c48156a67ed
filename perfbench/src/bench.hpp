// Shared pieces of the benchmark harness: timing, sample statistics, the
// lossless span recorder used by traced runs, and the result document every
// workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// CPU time this process has used so far, all threads, in ns.
[[nodiscard]] inline std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Median and quartiles of a sample.  The quartiles use the same rule as
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
/// the spreads printed here match the ones computed over whole runs.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of a sample; 0 for an empty one.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Scheme display name as a metric-name component: characters outside
/// [A-Za-z0-9_.-] become '_' ("UD-TPA/ge" -> "UD-TPA_ge").
[[nodiscard]] std::string metric_component(std::string_view name);

/// Lossless, in-memory span recorder for the single-threaded traced replay.
/// Every span is kept (name, start, end, parent) until the run writes them
/// out; nothing wraps or samples.  A disabled recorder reads no clock, which
/// is how the untraced replay of the same inputs measures the overhead.
class SpanRecorder {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = kNone;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one; returns its index
  /// (kNone when disabled).
  std::size_t open(std::string_view name);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_[id];
  }

  /// Durations (us) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  /// Per-name count, total and self time.  Self time is a span's duration
  /// minus the part its direct children cover, so the self times of all
  /// spans add up to the duration of the root spans.
  struct LayerRow {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<LayerRow> layer_table() const;

  /// Writes every span as JSON ("perfbench-spans/1").
  void write(const std::string& path) const;

 private:
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

/// RAII span on a recorder (no-op when the recorder is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name)
      : recorder_(recorder), index_(recorder.open(name)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t index_;
};

/// Prints the per-layer self-time table of a traced replay and checks that
/// the self times add up to the replay's wall time.
void print_layer_table(const SpanRecorder& recorder, double replay_wall_s);

/// What one harness run reports.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Per-repetition samples behind an end-to-end metric (for the
  /// median/quartile provenance lines).
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  bool valid = true;
  std::vector<std::string> invalid_reasons;
  std::int64_t ready_ns = 0;      ///< steady clock at the first timed operation
  std::int64_t ready_cpu_ns = 0;  ///< process CPU time at that point
  std::map<std::string, std::string> info;  ///< provenance key/values

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// One checked operation; `ok == false` records a failure.
  void check(bool ok, const std::string& what);
  void invalidate(const std::string& why) {
    valid = false;
    invalid_reasons.push_back(why);
  }

  /// The harness's last stdout line.
  [[nodiscard]] std::string to_json() const;
};

/// Command-line options shared by the workloads.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".";
  std::string socket;          ///< serve-mix: daemon socket path
  std::string expected_path;   ///< sweeps: committed reference counts
  std::string write_expected;  ///< sweeps: regenerate the reference counts
  std::size_t threads = 1;     ///< load threads (nproc)
};

/// The seed the committed reference counts were produced with.
inline constexpr std::uint64_t kReferenceSeed = 1;

void run_sweep_workload(const Options& options, Result& result);
void run_serve_workload(const Options& options, Result& result);
void run_sim_workload(const Options& options, Result& result);

}  // namespace perfbench
