// Open-loop load generation: requests are sent on a seeded Poisson
// schedule regardless of how fast earlier ones complete. Each latency is
// timed from when its request was *due*, so a stall that delays later
// sends shows in their latency, and the generator's own lateness (lag) is
// reported beside it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Due times (seconds from the start) of Poisson arrivals at `rate_per_s`
/// over `seconds`, from `seed`.
std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed);

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< completion - due (completed only)
  std::vector<double> service_us;  ///< completion - send (completed only)
  std::vector<double> lag_us;      ///< send - due (every request)
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;        ///< send() returned false
  double wall_s = 0.0;
};

/// Issue request i at due[i] from `threads` worker threads; `send(i)`
/// performs it and returns false when it got no usable reply (a failed
/// request is counted, never timed).
OpenLoopResult run_open_loop(const std::vector<double>& due,
                             std::size_t threads,
                             const std::function<bool(std::size_t)>& send);

}  // namespace perfbench
