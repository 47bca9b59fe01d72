#pragma once

/// \file timer.hpp
/// Minimal steady-clock stopwatch used by the engine, the tools and the server.

#include <chrono>

namespace npd {

/// A monotonic stopwatch.  Starts on construction; `elapsed_seconds()`
/// reports the time since construction or the last `reset()`.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset.
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction / last reset.
  [[nodiscard]] double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace npd
