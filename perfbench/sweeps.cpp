// The two sweep workloads, `grid` and `exec`, both one driver::run_sweep call
// on a fixed 4 workers. `grid` is the paper's design-space sweep at small
// trip counts, where the compile side of a cell (retiming, exact
// certification, codegen, optimizer) dominates; `exec` is its mirror image:
// large trip counts on the VM and on compiled native kernels, where the
// expected-state run, the engine run and the equivalence oracle dominate.
//
// The traced run (--trace 1) adds a 1-worker sweep of the same cells (for
// driver.speedup) and a single-threaded walk that times the real
// prepare_cell/verify_cell calls and then replays every cell through the
// layer functions the driver calls (replay.cpp).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "codegen/batch_emitter.hpp"
#include "codegen/c_emitter.hpp"
#include "common.hpp"
#include "driver/cell_exec.hpp"
#include "driver/config.hpp"
#include "driver/export.hpp"
#include "mdfg/builders.hpp"
#include "native/compile.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using csr::driver::ExecEngine;
using csr::driver::LoopShape;
using csr::driver::PreparedCell;
using csr::driver::SweepCell;
using csr::driver::SweepConfig;
using csr::driver::SweepResult;
using csr::driver::SweepRun;
using csr::driver::Transform;

constexpr unsigned kWorkers = 4;

// Workload sizes per measured second, tuned on a 4-vCPU host so that the
// 4-worker sweep takes about --seconds. Inputs depend only on (seed,
// seconds), never on a run-time calibration.
constexpr double kGridTripCountsPerSecond = 10.0;
constexpr double kGridShapesPerSecond = 10.0;
constexpr double kExecTripPairsPerSecond = 0.1;

/// Native compile deadline of the exec workload. The default (20 s) sits
/// just above the -O2 compile of the largest expanded nested kernel, so four
/// concurrent compiles on a loaded host can time out and fall back to the
/// VM; exec measures that compile cost in setup_s instead.
constexpr double kExecCompileDeadline = 180.0;

/// Set-ups per timed run; setup_s is their median.
constexpr int kGridSetupRounds = 15;
constexpr int kExecSetupRounds = 3;

std::vector<std::string> table_names() {
  std::vector<std::string> names;
  for (const auto& info : csr::benchmarks::table_benchmarks()) names.push_back(info.name);
  return names;
}

std::vector<std::string> nested_names() {
  std::vector<std::string> names;
  for (const auto& info : csr::mdfg::md_benchmarks()) names.push_back(info.name);
  return names;
}

std::size_t scaled(double per_second, double seconds, std::size_t minimum) {
  return std::max<std::size_t>(minimum,
                               static_cast<std::size_t>(std::lround(per_second * seconds)));
}

/// grid: six table benchmarks x nine transforms x f in {2,3,4} at n = 101
/// plus seeded small trip counts, and the four nested benchmarks x their
/// three transforms on seeded small shapes; VM engine, opt-retiming.
SweepConfig grid_config(std::uint64_t seed, double seconds) {
  Rng rng(seed ^ 0x67726964ULL);
  std::vector<std::int64_t> trips{101};
  for (const std::int64_t n :
       rng.distinct(scaled(kGridTripCountsPerSecond, seconds, 2), 64, 256, {101})) {
    trips.push_back(n);
  }
  std::vector<LoopShape> shapes;
  const std::size_t shape_count = scaled(kGridShapesPerSecond, seconds, 1);
  while (shapes.size() < shape_count) {
    const LoopShape shape{rng.range(4, 16), rng.range(24, 64)};
    if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
      shapes.push_back(shape);
    }
  }
  std::vector<std::string> benchmarks = table_names();
  for (std::string& name : nested_names()) benchmarks.push_back(std::move(name));
  SweepConfig config;
  config.benchmarks(std::move(benchmarks))
      .trip_counts(std::move(trips))
      .shapes(std::move(shapes))
      .exec_engines({ExecEngine::kVm})
      .threads(kWorkers);
  return config;
}

/// exec: six table benchmarks x {original, retimed, retimed_csr,
/// unfolded_csr, retimed_unfolded_csr} at f = 3, plus nested x {original,
/// retimed, retimed_csr}, each on the VM and on native kernels. Several
/// trip counts share each program shape (nested shapes share their column
/// count), so one compile per shape would show in setup_s.
///
/// Trip counts and nest sides come in mirrored pairs (x, lo + hi - x): the
/// seed picks the points, but the total iteration count, which sets both the
/// run time and the kernels' resident memory, is the same for every seed.
SweepConfig exec_config(std::uint64_t seed, double seconds) {
  Rng rng(seed ^ 0x65786563ULL);
  const std::size_t pairs = scaled(kExecTripPairsPerSecond, seconds, 1);
  std::vector<std::int64_t> trips;
  for (const std::int64_t n : rng.distinct(pairs, 16000, 32999)) {
    trips.push_back(n);
    trips.push_back(16000 + 50000 - n);
  }
  const std::int64_t cols = rng.range(100, 149);
  std::vector<LoopShape> shapes;
  for (const std::int64_t c : {cols, 100 + 200 - cols}) {
    for (const std::int64_t rows : rng.distinct(pairs, 100, 149)) {
      shapes.push_back({rows, c});
      shapes.push_back({100 + 200 - rows, c});
    }
  }
  std::vector<std::string> benchmarks = table_names();
  for (std::string& name : nested_names()) benchmarks.push_back(std::move(name));
  csr::driver::RetryPolicy retry;
  retry.compile_deadline = kExecCompileDeadline;
  SweepConfig config;
  config.benchmarks(std::move(benchmarks))
      .trip_counts(std::move(trips))
      .shapes(std::move(shapes))
      .exec_engines({ExecEngine::kVm, ExecEngine::kNative})
      .transforms({Transform::kOriginal, Transform::kRetimed, Transform::kRetimedCsr,
                   Transform::kUnfoldedCsr, Transform::kRetimedUnfoldedCsr})
      .factors({3})
      .retry(retry)
      .threads(kWorkers);
  return config;
}

/// Infeasibility the code-size model declares for a configuration (an
/// expected outcome), as opposed to an error thrown while evaluating it.
bool model_infeasible(const SweepResult& r) {
  static const char* const kReasons[] = {
      "engine found no schedule", "trip count <= pipeline depth",
      "need more than M'_r full unfolded trips", "cols < retiming min_cols",
  };
  for (const char* reason : kReasons) {
    if (r.error.rfind(reason, 0) == 0) return true;
  }
  return false;
}

/// Output checks and failure accounting over one sweep's results.
void check_results(const std::vector<SweepCell>& cells, const std::vector<SweepResult>& results,
                   Outcome& out) {
  out.attempted += static_cast<std::int64_t>(cells.size());
  out.check(results.size() == cells.size(), "sweep returned a result per cell");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    const std::string where = "cell " + std::to_string(i) + " (" + r.cell.benchmark + " " +
                              std::string(csr::driver::to_string(r.cell.transform)) + " " +
                              std::string(csr::driver::to_string(r.cell.exec)) + " f=" +
                              std::to_string(r.cell.factor) + " n=" + std::to_string(r.cell.n) +
                              ")";
    bool failed = false;
    if (!r.evaluated || r.skipped || r.engine_fallback) failed = true;
    if (!r.feasible) {
      if (!model_infeasible(r)) failed = true;
    } else {
      if (!r.verified || !r.discipline_ok) failed = true;
      if (r.predicted_size >= 0 && r.measured_size > r.predicted_size) {
        out.check(false, where + ": measured_size " + std::to_string(r.measured_size) +
                             " > predicted_size " + std::to_string(r.predicted_size));
      }
      out.check(r.measured_size >= 0 && r.measured_size <= r.code_size,
                where + ": measured_size outside [0, code_size]");
    }
    if (failed) {
      ++out.failed;
      out.check(false, where + ": failed (" +
                           (r.engine_fallback ? "native fell back to VM: " + r.fallback_reason
                            : r.skipped        ? "skipped: " + r.skip_reason
                            : !r.evaluated     ? std::string("not evaluated")
                            : !r.feasible      ? "error: " + r.error
                                               : std::string("not verified or discipline")) +
                           ")");
    }
  }
}

std::int64_t code_size_total(const std::vector<SweepResult>& results) {
  std::int64_t total = 0;
  for (const SweepResult& r : results) {
    if (r.measured_size > 0) total += r.measured_size;
  }
  return total;
}

/// Compile cost of the exec set-up.
struct CompileReport {
  std::int64_t compiles = 0;       ///< kernels the toolchain built
  std::int64_t shapes = 0;         ///< distinct batch_shape_key among them
  double compile_seconds = 0;      ///< summed per-kernel compile wall time
  bool ok = true;
  std::string problem;
};

/// exec set-up: probe the toolchain, generate every native cell's program
/// and compile each kernel into the (empty) cache named by
/// CSR_NATIVE_CACHE_DIR, on kWorkers threads. Emits exactly the source and
/// options verify_cell's run_native uses, so the timed sweep only loads.
CompileReport compile_native_kernels(const SweepConfig& config) {
  CompileReport report;
  if (!csr::native::native_available()) {
    report.ok = false;
    report.problem = "no usable C compiler for the native engine";
    return report;
  }
  std::vector<SweepCell> native_cells;
  for (const SweepCell& cell : config.cells()) {
    if (cell.exec == ExecEngine::kNative) native_cells.push_back(cell);
  }
  std::vector<std::string> shape_keys(native_cells.size());
  std::vector<double> seconds(native_cells.size(), 0.0);
  std::vector<char> compiled(native_cells.size(), 0);
  std::vector<std::string> problems(native_cells.size());
  csr::native::CompileOptions copts;
  copts.deadline_seconds = config.options().retry.compile_deadline;
  csr::CEmitterOptions emitter;
  emitter.semantics = csr::CEmitterOptions::Semantics::kExact;
  emitter.function_name = "csr_kernel";

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < native_cells.size(); i = next++) {
      const PreparedCell prep = csr::driver::prepare_cell(native_cells[i], config.options());
      if (!prep.runnable) continue;
      shape_keys[i] = csr::batch_shape_key(prep.program);
      const std::string source = csr::to_c_source(prep.program, emitter);
      const auto start = Clock::now();
      const csr::native::CompileResult result =
          csr::native::compile_shared_object(source, copts);
      seconds[i] = seconds_since(start);
      if (!result.ok) {
        problems[i] = result.diagnostic.substr(0, 300);
      } else if (!result.cache_hit) {
        compiled[i] = 1;
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWorkers; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  std::set<std::string> shapes;
  for (std::size_t i = 0; i < native_cells.size(); ++i) {
    if (!problems[i].empty()) {
      report.ok = false;
      report.problem = "kernel compile failed: " + problems[i];
    }
    report.compiles += compiled[i];
    report.compile_seconds += seconds[i];
    if (!shape_keys[i].empty()) shapes.insert(shape_keys[i]);
  }
  report.shapes = static_cast<std::int64_t>(shapes.size());
  return report;
}

/// Points CSR_NATIVE_CACHE_DIR at a new, empty directory under the run's
/// private work dir (no other thread runs while this is called).
void fresh_native_cache(const Args& args, int index) {
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) / ("native-cache-" + std::to_string(index));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("CSR_NATIVE_CACHE_DIR", dir.c_str(), 1);
}

struct TimedSweep {
  SweepRun run;
  double wall = 0;
};

TimedSweep timed_sweep(const SweepConfig& config) {
  TimedSweep out;
  const auto start = Clock::now();
  out.run = csr::driver::run_sweep(config);
  out.wall = seconds_since(start);
  return out;
}

/// End-to-end metrics of a sweep workload. A sweep answers all of its
/// cells at once, so it is one request whose latency is its wall time.
void report_end_to_end(const std::vector<SweepCell>& cells, const TimedSweep& sweep,
                       double setup_s, Outcome& out) {
  out.add("cells_per_s", static_cast<double>(cells.size()) / sweep.wall, "cells/s");
  out.add("setup_s", setup_s, "s");
  out.add("code_size_total", static_cast<double>(code_size_total(sweep.run.results)), "instr");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("latency_p50_ms", sweep.wall * 1e3, "ms");
  out.add("latency_p99_ms", sweep.wall * 1e3, "ms");
  out.add("rps", 1.0 / sweep.wall, "req/s");
}

void log_sweep(const char* name, std::size_t cells, const TimedSweep& sweep) {
  std::cerr << "perfbench: " << name << ": " << cells << " cells in " << sweep.wall
            << " s on " << kWorkers << " workers\n";
}

/// The traced run of a sweep workload: 4-worker and 1-worker sweeps of the
/// same cells, then the traced single-threaded walk and replay.
void traced_sweep(const Args& args, const SweepConfig& config, const CompileReport& compiles,
                  Outcome& out) {
  const std::vector<SweepCell> cells = config.cells();
  const TimedSweep four = timed_sweep(config);
  log_sweep(args.workload.c_str(), cells.size(), four);
  check_results(cells, four.run.results, out);

  SweepConfig single = config;
  single.threads(1);
  const TimedSweep one = timed_sweep(single);
  std::cerr << "perfbench: 1-worker sweep " << one.wall << " s\n";

  SpanRecorder spans;
  ReplayStats stats;
  std::vector<SweepResult> walked;
  walked.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    PreparedCell prep;
    {
      SpanRecorder::Scope span(spans, "driver.prepare", id);
      prep = csr::driver::prepare_cell(cells[i], config.options());
    }
    {
      SpanRecorder::Scope span(spans, "driver.verify", id);
      csr::driver::verify_cell(prep, config.options());
    }
    ReplayResult replayed;
    {
      SpanRecorder::Scope span(spans, "replay", id);
      replayed = replay_cell(cells[i], config.options(), spans, id, stats);
    }
    const SweepResult& real = prep.res;
    const bool same = replayed.feasible == real.feasible &&
                      replayed.code_size == real.code_size &&
                      replayed.measured_size == real.measured_size &&
                      replayed.exec_statements == real.exec_statements &&
                      replayed.verified == real.verified;
    out.check(same, "replay of cell " + std::to_string(i) + " (" + cells[i].benchmark + " " +
                        std::string(csr::driver::to_string(cells[i].transform)) +
                        ") differs: code_size " + std::to_string(replayed.code_size) + "/" +
                        std::to_string(real.code_size) + ", measured_size " +
                        std::to_string(replayed.measured_size) + "/" +
                        std::to_string(real.measured_size) + ", exec_statements " +
                        std::to_string(replayed.exec_statements) + "/" +
                        std::to_string(real.exec_statements) + ", verified " +
                        std::to_string(replayed.verified) + "/" +
                        std::to_string(real.verified));
    walked.push_back(prep.res);
  }

  const std::string csv4 = csr::driver::to_csv(four.run.results);
  out.check(csv4 == csr::driver::to_csv(one.run.results),
            "CSV export differs between the 4-worker and the 1-worker sweep");
  out.check(csv4 == csr::driver::to_csv(walked),
            "CSV export differs between the 4-worker sweep and the traced walk");

  report_replay_metrics(spans, stats, one.wall / four.wall, compiles.compiles,
                        compiles.shapes, compiles.compile_seconds, out);
  if (!args.trace_out.empty() && !spans.write_chrome_json(args.trace_out)) {
    std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
  }
}

}  // namespace

Outcome run_grid(const Args& args) {
  Outcome out;
  // Set-up is building the grid: the seeded draws and the cell list.
  std::vector<double> setups;
  SweepConfig config;
  std::vector<SweepCell> cells;
  for (int i = 0; i < kGridSetupRounds; ++i) {
    const auto start = Clock::now();
    config = grid_config(args.seed, args.seconds);
    cells = config.cells();
    setups.push_back(seconds_since(start));
  }
  if (args.trace) {
    traced_sweep(args, config, CompileReport{}, out);
    return out;
  }
  const TimedSweep sweep = timed_sweep(config);
  log_sweep("grid", cells.size(), sweep);
  check_results(cells, sweep.run.results, out);
  report_end_to_end(cells, sweep, median(setups), out);
  return out;
}

Outcome run_exec(const Args& args) {
  Outcome out;
  const SweepConfig config = exec_config(args.seed, args.seconds);
  const std::vector<SweepCell> cells = config.cells();
  // Set-up: toolchain probe plus every kernel compile, into a private,
  // initially empty cache each time; the last cache serves the sweep.
  const int setup_rounds = args.trace ? 1 : kExecSetupRounds;
  std::vector<double> setups;
  CompileReport compiles;
  for (int i = 0; i < setup_rounds; ++i) {
    fresh_native_cache(args, i);
    const auto start = Clock::now();
    compiles = compile_native_kernels(config);
    setups.push_back(seconds_since(start));
    std::cerr << "perfbench: exec set-up " << setups.back() << " s, " << compiles.compiles
              << " kernels compiled\n";
  }
  out.check(compiles.ok, compiles.problem);
  if (!compiles.ok) return out;
  if (args.trace) {
    traced_sweep(args, config, compiles, out);
    return out;
  }
  const csr::native::CacheStats before = csr::native::compile_cache_stats();
  const TimedSweep sweep = timed_sweep(config);
  const csr::native::CacheStats after = csr::native::compile_cache_stats();
  log_sweep("exec", cells.size(), sweep);
  out.check(after.misses == before.misses,
            "the timed exec sweep compiled " + std::to_string(after.misses - before.misses) +
                " kernels that set-up did not");
  check_results(cells, sweep.run.results, out);
  report_end_to_end(cells, sweep, median(setups), out);
  return out;
}

}  // namespace perfbench
