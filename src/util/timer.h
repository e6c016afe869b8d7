#ifndef CAGRA_UTIL_TIMER_H_
#define CAGRA_UTIL_TIMER_H_

#include <chrono>

namespace cagra {

/// Wall-clock stopwatch used by construction benchmarks (CPU-side times
/// are measured, not modeled; see README "Measured vs modeled time").
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cagra

#endif  // CAGRA_UTIL_TIMER_H_
