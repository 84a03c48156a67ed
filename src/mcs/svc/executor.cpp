#include "mcs/svc/executor.hpp"

#include <stdexcept>

#include "mcs/util/thread_pool.hpp"

namespace mcs::svc {

std::size_t resolve_jobs(std::uint64_t requested) {
  if (requested == 0) {
    throw std::invalid_argument(
        "--jobs must be >= 1 (use --jobs 1 for a sequential run)");
  }
  const std::size_t hardware = util::default_thread_count();
  return requested > hardware ? hardware
                              : static_cast<std::size_t>(requested);
}

exp::SpecRunResult run_spec_parallel(const exp::SweepSpec& spec,
                                     exp::SpecRunOptions options,
                                     std::size_t jobs) {
  options.threads = jobs;
  return exp::run_spec(spec, options);
}

}  // namespace mcs::svc
