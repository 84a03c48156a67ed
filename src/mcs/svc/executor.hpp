// Sweep worker-count handling for the svc:: front ends.  Sweeps themselves
// run through exp::run_points, whose (point, chunk) work queue keeps any
// worker count's artifacts byte-identical to a single worker's.
#pragma once

#include <cstdint>

#include "mcs/exp/orchestrator.hpp"

namespace mcs::svc {

/// Validates a --jobs request: 0 is rejected (std::invalid_argument with a
/// usage hint); anything above the hardware concurrency is clamped to it
/// (oversubscribing CPU-bound sweep workers only adds scheduling noise).
[[nodiscard]] std::size_t resolve_jobs(std::uint64_t requested);

/// exp::run_spec on `jobs` sweep workers; kept for existing callers.
[[nodiscard]] exp::SpecRunResult run_spec_parallel(
    const exp::SweepSpec& spec, exp::SpecRunOptions options, std::size_t jobs);

}  // namespace mcs::svc
