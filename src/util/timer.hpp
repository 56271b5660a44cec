// Wall-clock timers used by the harnesses and by the simulated runtime.
//
// Two kinds of time exist in this codebase:
//   * measured time  — real wall-clock of this process (util::Timer), used
//     for harness-level reporting only;
//   * modeled time   — seconds charged by sim::MachineModel against measured
//     work counters, used for every paper-facing number.
// Keeping the two strictly separate is what makes the reproduction honest:
// results never depend on the speed of the machine the simulation runs on.
#pragma once

#include <chrono>
#include <cstdint>

namespace pastis::util {

/// Monotonic stopwatch. Construction starts the clock.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates elapsed time across multiple start/stop intervals.
class StopWatch {
 public:
  void start() { timer_.reset(); }
  void stop() { total_ += timer_.seconds(); }
  [[nodiscard]] double total_seconds() const { return total_; }
  void clear() { total_ = 0.0; }

 private:
  Timer timer_;
  double total_ = 0.0;
};

/// RAII guard that adds the scope's duration to an accumulator on exit.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& sink) : sink_(sink) {}
  ~ScopedTimer() { sink_ += timer_.seconds(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& sink_;
  Timer timer_;
};

}  // namespace pastis::util
