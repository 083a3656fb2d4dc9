#pragma once

// Shared plumbing of the benchmark: arguments, the result record printed as
// the last stdout line, a seeded generator, order statistics and peak RSS.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON written by traced runs
  std::string work_dir;   ///< private, initially empty work directory
  double serve_rate = 0;  ///< phase-1 offered rate of the serve workload
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the check verdict, failure accounting and metrics.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed checks, printed to stderr

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (problems.size() < 50) problems.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// splitmix64: a fixed, platform-independent stream, so one seed gives the
/// same inputs everywhere (std distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// `count` distinct integers from [lo, hi] (count <= hi - lo + 1), in draw order.
  std::vector<std::int64_t> distinct(std::size_t count, std::int64_t lo, std::int64_t hi,
                                     const std::vector<std::int64_t>& exclude = {}) {
    std::vector<std::int64_t> out;
    while (out.size() < count) {
      const std::int64_t v = range(lo, hi);
      if (std::find(out.begin(), out.end(), v) != out.end()) continue;
      if (std::find(exclude.begin(), exclude.end(), v) != exclude.end()) continue;
      out.push_back(v);
    }
    return out;
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 for an empty set.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// High-water resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Keeps `threads` threads busy for `seconds`. An idle 4-vCPU host runs the
/// first seconds of work up to ~20% slower, so every workload spins the
/// CPUs before it measures; the spin touches no program state.
void warm_cpus(unsigned threads, double seconds);

Outcome run_grid(const Args& args);
Outcome run_exec(const Args& args);
Outcome run_serve(const Args& args);

}  // namespace perfbench
