#include "open_loop.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "crypto/random.h"

namespace perfbench {

std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed) {
  alidrone::crypto::DeterministicRandom rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.uniform_double()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

OpenLoopResult run_open_loop(const std::vector<double>& due,
                             std::size_t threads,
                             const std::function<bool(std::size_t)>& send) {
  using Clock = std::chrono::steady_clock;
  OpenLoopResult result;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };

  const auto worker = [&] {
    OpenLoopResult local;
    for (std::size_t i = next++; i < due.size(); i = next++) {
      const Clock::time_point due_at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i]));
      std::this_thread::sleep_until(due_at);
      const Clock::time_point sent = Clock::now();
      const bool ok = send(i);
      const Clock::time_point done = Clock::now();
      local.lag_us.push_back(micros(sent - due_at));
      if (ok) {
        ++local.completed;
        local.latency_us.push_back(micros(done - due_at));
        local.service_us.push_back(micros(done - sent));
      } else {
        ++local.failed;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    result.completed += local.completed;
    result.failed += local.failed;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.latency_us, local.latency_us);
    append(result.service_us, local.service_us);
    append(result.lag_us, local.lag_us);
  };

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace perfbench
