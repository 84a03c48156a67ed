#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("perfbench: non-finite metric value");
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) throw std::runtime_error("perfbench: to_chars");
  return std::string(buf, end);
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(values, n=4), method="exclusive".
  const auto quantile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quantile(1);
  s.q3 = quantile(3);
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string metric_component(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  const std::string key(name);
  if (const auto it = ids_.find(key); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

std::size_t SpanRecorder::open(std::string_view name) {
  if (!enabled_) return kNone;
  Span span;
  span.name = intern(name);
  span.parent = stack_.empty() ? kNone : stack_.back();
  span.start_ns = to_ns(Clock::now());
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  if (index == kNone) return;
  spans_[index].end_ns = to_ns(Clock::now());
  stack_.pop_back();
}

std::vector<double> SpanRecorder::durations_us(std::string_view name) const {
  std::vector<double> out;
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == it->second) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<SpanRecorder::LayerRow> SpanRecorder::layer_table() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::vector<LayerRow> rows(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) rows[i].name = names_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    LayerRow& row = rows[spans_[i].name];
    ++row.count;
    row.total_s += static_cast<double>(dur) / 1e9;
    row.self_s += static_cast<double>(dur - child_ns[i]) / 1e9;
  }
  std::sort(rows.begin(), rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return rows;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"format\":\"perfbench-spans/1\",\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << (i ? "," : "") << quoted(names_[i]);
  }
  out << "],\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.start_ns << ','
        << s.end_ns << ','
        << (s.parent == kNone ? std::int64_t{-1} : static_cast<std::int64_t>(s.parent))
        << ']';
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

void print_layer_table(const SpanRecorder& recorder, double replay_wall_s) {
  const std::vector<SpanRecorder::LayerRow> rows = recorder.layer_table();
  double self_sum = 0.0;
  std::printf("per-layer self time of the traced replay (%zu spans)\n",
              recorder.spans().size());
  std::printf("  %-34s %10s %12s %12s %7s\n", "span", "count", "total_s",
              "self_s", "self%");
  for (const auto& row : rows) self_sum += row.self_s;
  for (const auto& row : rows) {
    std::printf("  %-34s %10zu %12.6f %12.6f %6.2f%%\n", row.name.c_str(),
                row.count, row.total_s, row.self_s,
                self_sum > 0 ? 100.0 * row.self_s / self_sum : 0.0);
  }
  std::printf("  %-34s %10s %12s %12.6f (replay wall %.6f s)\n", "sum of self",
              "", "", self_sum, replay_wall_s);
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

std::string Result::to_json() const {
  std::ostringstream out;
  out << "{\"ready_ns\":" << ready_ns << ",\"ready_cpu_ns\":" << ready_cpu_ns
      << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"valid\":" << (valid ? "true" : "false")
      << ",\"invalid_reasons\":[";
  for (std::size_t i = 0; i < invalid_reasons.size(); ++i) {
    out << (i ? "," : "") << quoted(invalid_reasons[i]);
  }
  out << "],\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? "," : "") << quoted(failures[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ",") << quoted(name) << ":{\"value\":"
        << number(metric.value) << ",\"unit\":" << quoted(metric.unit) << '}';
    first = false;
  }
  out << "},\"summaries\":{";
  first = true;
  for (const auto& [name, values] : samples) {
    const Summary s = summarize(values);
    out << (first ? "" : ",") << quoted(name) << ":{\"n\":" << s.n
        << ",\"median\":" << number(s.median) << ",\"q1\":" << number(s.q1)
        << ",\"q3\":" << number(s.q3) << '}';
    first = false;
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info) {
    out << (first ? "" : ",") << quoted(key) << ':' << quoted(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
