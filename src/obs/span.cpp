#include "obs/span.hpp"

#include "obs/recorder.hpp"

namespace ekm {
namespace {

using clock = std::chrono::steady_clock;

Recorder* g_recorder = nullptr;

}  // namespace

void install_recorder(Recorder* recorder) { g_recorder = recorder; }

WallSpan::WallSpan(const char* label, Stopwatch* device)
    : label_(label),
      recorder_(label != nullptr ? g_recorder : nullptr),
      device_(device) {
  if (recorder_ != nullptr || device_ != nullptr) start_ = clock::now();
}

WallSpan::~WallSpan() {
  if (recorder_ == nullptr && device_ == nullptr) return;
  const clock::time_point end = clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  if (device_ != nullptr) device_->add(seconds);
  if (recorder_ != nullptr) {
    recorder_->record_wall_span(label_, start_, seconds);
  }
}

}  // namespace ekm
