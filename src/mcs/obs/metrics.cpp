#include "mcs/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace mcs::obs {

namespace {

/// Largest value that lands in bucket b (bucket 0 holds only the value 0;
/// bucket b>0 holds values with bit_width b, i.e. up to 2^b - 1).
constexpr std::uint64_t bucket_upper_bound(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

}  // namespace

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::uint64_t percentile_from_buckets(
    const std::array<std::uint64_t, Histogram::kBuckets>& buckets,
    double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) return bucket_upper_bound(b);
  }
  return bucket_upper_bound(Histogram::kBuckets - 1);
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  std::array<std::uint64_t, kBuckets> counts{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  const std::uint64_t bound = percentile_from_buckets(counts, q);
  // The global max tightens the top bucket's upper bound: no recorded
  // value exceeds it.
  const std::uint64_t observed_max = max();
  return observed_max > 0 ? std::min(bound, observed_max) : bound;
}

std::map<std::string, std::uint64_t> counter_deltas(
    const MetricsSnapshot& before, const MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> deltas;
  for (const auto& [name, value] : after.counters) {
    std::uint64_t base = 0;
    if (const auto it = before.counters.find(name);
        it != before.counters.end()) {
      base = it->second;
    }
    if (value > base) deltas.emplace(name, value - base);
  }
  return deltas;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Timer& Registry::timer(const std::string& name) {
  const std::lock_guard lock(mutex_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, timer] : timers_) {
    snap.timers.emplace(
        name, MetricsSnapshot::TimerData{timer->count(), timer->total_ns()});
  }
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = hist->count();
    data.sum = hist->sum();
    data.max = hist->max();
    data.p50 = hist->percentile(0.50);
    data.p90 = hist->percentile(0.90);
    data.p99 = hist->percentile(0.99);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      data.buckets[b] = hist->bucket(b);
    }
    snap.histograms.emplace(name, std::move(data));
  }
  return snap;
}

std::map<std::string, std::uint64_t> Registry::resolve_counter_deltas(
    const MetricsCapture& capture) const {
  const std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [pointer, delta] : capture.counters()) {
    if (delta == 0) continue;
    for (const auto& [name, counter] : counters_) {
      if (counter.get() == pointer) {
        out.emplace(name, delta);
        break;
      }
    }
  }
  return out;
}

std::map<std::string, std::uint64_t> Registry::resolve_histogram_percentiles(
    const MetricsCapture& capture) const {
  const std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [pointer, buckets] : capture.histograms()) {
    std::uint64_t grew = 0;
    for (const std::uint64_t b : buckets) grew += b;
    if (grew == 0) continue;
    for (const auto& [name, hist] : histograms_) {
      if (hist.get() == pointer) {
        out.emplace(name + ".p50", percentile_from_buckets(buckets, 0.50));
        out.emplace(name + ".p90", percentile_from_buckets(buckets, 0.90));
        out.emplace(name + ".p99", percentile_from_buckets(buckets, 0.99));
        break;
      }
    }
  }
  return out;
}

void Registry::reset() {
  const std::lock_guard lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, timer] : timers_) timer->reset();
  for (const auto& [name, hist] : histograms_) hist->reset();
}

}  // namespace mcs::obs
