// Per-point sweep checkpointing (JSONL).
//
// The orchestrator appends one JSON line per completed experiment point, so
// an interrupted sweep resumes from the last flushed point and — because a
// point's results are a pure function of (spec, point index, trial index,
// seed) — the resumed run's artifacts are bit-identical to an uninterrupted
// run's.  Exactness is achieved by serializing every double as the 16-hex
//-digit bit pattern of its IEEE-754 representation ("x3fe5…"), including
// the Welford accumulator internals (count, mean, m2, raw min/max).
//
// File layout:
//   line 1:  {"kind":"header","format":"mcs-exp-checkpoint/1",
//             "spec":…,"fingerprint":…,"points":…}
//   line 2+: {"kind":"point","index":…,"x":…,"schemes":[…],"counters":{…}}
//
// A truncated trailing line (the process was killed mid-write) is ignored
// on load; a fingerprint mismatch invalidates the whole file.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "mcs/exp/montecarlo.hpp"
#include "mcs/util/json.hpp"

namespace mcs::exp {

/// Exact double <-> 16-hex-digit bit pattern ("x" prefix distinguishes the
/// encoding from ordinary numbers at a glance).
[[nodiscard]] std::string hex_double(double value);
[[nodiscard]] double unhex_double(const std::string& text);

/// Exact Welford <-> JSON.
[[nodiscard]] util::Json welford_to_json(const util::Welford& w);
[[nodiscard]] util::Welford welford_from_json(const util::Json& json);

[[nodiscard]] util::Json point_to_json(const PointCheckpoint& point);
[[nodiscard]] PointCheckpoint point_from_json(const util::Json& json);

/// Everything recovered from a checkpoint file.
struct CheckpointData {
  std::string spec;
  std::string fingerprint;
  std::size_t total_points = 0;
  std::vector<PointCheckpoint> points;
};

/// Loads a checkpoint; nullopt when the file is missing or its header is
/// unreadable.  Unparsable trailing point lines are dropped silently.
[[nodiscard]] std::optional<CheckpointData> load_checkpoint(
    const std::string& path);

/// Append-only checkpoint writer.  `resume` keeps an existing file (whose
/// header the caller has already validated); otherwise the file is
/// truncated and a fresh header written.  Every append flushes.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, const std::string& spec,
                   const std::string& fingerprint, std::size_t total_points,
                   bool resume);

  void append(const PointCheckpoint& point);

 private:
  std::ofstream out_;
};

}  // namespace mcs::exp
