// Wall-clock timer used to report the "complexity at the data source"
// metric of the paper (running time of the DR/CR/QT steps).
#pragma once

#include <atomic>
#include <chrono>

namespace ekm {

/// Monotonic stopwatch. Starts on construction; `seconds()` reads the
/// elapsed time without stopping; `restart()` resets the origin.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates time across multiple scoped measurement windows. Used by
/// the experiment runner to sum the device-side work of a multi-step
/// pipeline while excluding server-side work. Windows may close on
/// several threads at once (the phase scheduler runs the sources'
/// computes concurrently); the total is the sum of the windows either
/// way.
class Stopwatch {
 public:
  /// RAII window: adds the elapsed time to the owning stopwatch on exit.
  class Scope {
   public:
    explicit Scope(Stopwatch& owner) : owner_(owner) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { owner_.total_ += timer_.seconds(); }

   private:
    Stopwatch& owner_;
    Timer timer_;
  };

  [[nodiscard]] Scope measure() { return Scope(*this); }
  [[nodiscard]] double total_seconds() const { return total_; }
  void reset() { total_ = 0.0; }

 private:
  std::atomic<double> total_{0.0};
};

}  // namespace ekm
