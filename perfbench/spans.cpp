#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

int SpanRecorder::open(std::string name, std::int64_t id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

double SpanRecorder::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = now();
  // Scopes close in LIFO order; drop this span and anything left above it.
  const auto it = std::find(stack_.begin(), stack_.end(), index);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
  const double duration = span.end - span.start;
  if (span.parent >= 0) spans_[static_cast<std::size_t>(span.parent)].children += duration;
  return duration;
}

void SpanRecorder::add_reported(std::string name, double seconds, std::int64_t id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.end = now();
  span.start = span.end - seconds;
  if (span.parent >= 0) spans_[static_cast<std::size_t>(span.parent)].children += seconds;
  spans_.push_back(std::move(span));
}

double SpanRecorder::total(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double SpanRecorder::self_time(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += (s.end - s.start) - s.children;
  }
  return sum;
}

std::int64_t SpanRecorder::count(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const Span& s) { return s.name == name; });
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
                  "\"id\":%lld,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6,
                  i, s.parent, static_cast<long long>(s.id),
                  ((s.end - s.start) - s.children) * 1e6);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
