// In-memory span log for the benchmark's traced run.
//
// One span per timed call: name, start, end and parent. Spans live in a
// vector while the run executes and are written out once, after it
// ends. The clock is the benchmark's own std::chrono::steady_clock:
// nothing inside the library is instrumented, so the spans wrap calls
// the benchmark makes into each layer's public functions.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the log was created
    double end_s = 0.0;
    std::size_t parent = kNoParent;
  };

  /// Opens a span on construction and closes it on destruction. The
  /// innermost open scope is the parent of the next span opened.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), id_(log.spans_.size()) {
      log_.spans_.push_back({std::move(name), log_.now(), 0.0, log_.open_});
      log_.open_ = id_;
    }
    ~Scope() {
      log_.spans_[id_].end_s = log_.now();
      log_.open_ = log_.spans_[id_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanLog& log_;
    std::size_t id_;
  };

  [[nodiscard]] Scope span(std::string name) { return {*this, std::move(name)}; }

  /// Summed duration of every closed span called `name`.
  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  [[nodiscard]] std::size_t count(std::string_view name) const {
    std::size_t c = 0;
    for (const Span& s : spans_) c += s.name == name;
    return c;
  }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing);
  /// each event carries its span id and parent id in `args`.
  void write_chrome_json(std::FILE* out) const {
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const long long parent =
          s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %lld}}",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6, i, parent);
    }
    std::fprintf(out, "\n]}\n");
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::size_t open_ = kNoParent;
};

}  // namespace e2ebench
