#pragma once

// In-memory span recorder for the traced runs. The benchmark opens spans
// around its own calls into each layer's public functions, so the program
// itself carries no extra instrumentation. Spans nest through a stack (the
// traced walks are single-threaded), keep their parent and the id of the
// cell or query they belong to, and are written as Chrome trace JSON once
// the run ends.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< seconds since the recorder was created
    double end = 0;
    int parent = -1;   ///< index of the enclosing span, -1 at top level
    std::int64_t id = 0;  ///< cell or query id
    double children = 0;  ///< summed duration of direct children
  };

  /// RAII span: opened by the constructor, closed by end() or destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::int64_t id)
        : recorder_(&recorder), index_(recorder.open(std::move(name), id)) {}
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span and returns its duration in seconds.
    double end() {
      if (index_ < 0) return duration_;
      duration_ = recorder_->close(index_);
      index_ = -1;
      return duration_;
    }

   private:
    SpanRecorder* recorder_;
    int index_;
    double duration_ = 0;
  };

  /// Σ duration of the spans called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Σ self time (duration minus direct children) of the spans called `name`.
  [[nodiscard]] double self_time(const std::string& name) const;
  [[nodiscard]] std::int64_t count(const std::string& name) const;

  /// Adds a closed span of `seconds` under the innermost open span, for
  /// phases a called function reports itself (e.g. a native kernel's run
  /// time inside run_native).
  void add_reported(std::string name, double seconds, std::int64_t id);

  bool write_chrome_json(const std::string& path) const;

 private:
  int open(std::string name, std::int64_t id);
  double close(int index);
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
