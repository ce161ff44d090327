// Host wall-clock spans: the one way the library measures host time.
// A WallSpan times the steady_clock window from its construction to its
// destruction. With a label and an installed recorder it records the
// window as a host span; given a device total it adds the window's
// seconds to it. The pipeline's stage spans and device time are defined
// in docs/observability.md.
#pragma once

#include <atomic>
#include <chrono>

namespace ekm {

class Recorder;

/// Process-global recorder for host spans (the pipeline's stages, the
/// kernels, the bench timing helper); null by default. Install and
/// uninstall from the main thread while no span is open; spans may then
/// close on any thread.
void install_recorder(Recorder* recorder);

/// A device total: the summed seconds of the spans given it. Spans may
/// close on several threads at once (the phase scheduler runs the
/// sources' computes side by side), so the sum is atomic.
class Stopwatch {
 public:
  void add(double seconds) { total_ += seconds; }
  [[nodiscard]] double total_seconds() const { return total_; }

 private:
  std::atomic<double> total_{0.0};
};

class WallSpan {
 public:
  /// Records under `label` (static storage; null records nothing) when a
  /// recorder is installed at construction, and adds to `device` when it
  /// is not null. A span with neither reads no clock; otherwise it reads
  /// it twice, and it allocates and locks only to record.
  explicit WallSpan(const char* label, Stopwatch* device = nullptr);
  explicit WallSpan(Stopwatch& device) : WallSpan(nullptr, &device) {}
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  ~WallSpan();

 private:
  const char* label_;
  Recorder* recorder_;
  Stopwatch* device_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ekm
