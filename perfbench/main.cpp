// csr_perfbench — the repository benchmark (README.md beside this file).
//
//   csr_perfbench --workload grid|exec|serve --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--trace-out FILE] [--serve-rate R]
//
// Prints a human-readable summary to stderr and, as the last stdout line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an output check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void warm_cpus(unsigned threads, double seconds) {
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([seconds, t] {
      const auto start = Clock::now();
      volatile std::uint64_t x = t + 1;
      while (seconds_since(start) < seconds) {
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
    });
  }
  for (std::thread& s : spinners) s.join();
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"cells_per_s", "cells/s"},  {"setup_s", "s"},          {"code_size_total", "instr"},
    {"peak_rss_mb", "MB"},       {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"rps", "req/s"},
};

// Layers a workload does not reach report 0 (e.g. native on grid).
constexpr MetricSpec kPerLayer[] = {
    {"driver.prepare_s", "s"},
    {"driver.verify_s", "s"},
    {"driver.speedup", "x"},
    {"driver.unattributed_pct", "%"},
    {"dfg.iteration_bound_s", "s"},
    {"retiming.opt_s", "s"},
    {"retiming.opt_calls", "count"},
    {"retiming.opt_distinct_ratio", "ratio"},
    {"retiming.exact_s", "s"},
    {"retiming.exact_calls", "count"},
    {"retiming.md_s", "s"},
    {"unfolding.unfold_s", "s"},
    {"codegen.generate_s", "s"},
    {"codegen.instrs", "instr"},
    {"codegen.emit_c_s", "s"},
    {"loopir.optimize_s", "s"},
    {"loopir.instrs_removed", "instr"},
    {"loopir.rounds", "count"},
    {"vm.expected_s", "s"},
    {"vm.expected_runs", "count"},
    {"vm.expected_distinct_ratio", "ratio"},
    {"vm.run_s", "s"},
    {"vm.stmts_per_s", "stmts/s"},
    {"vm.diff_s", "s"},
    {"vm.discipline_s", "s"},
    {"native.compiles", "count"},
    {"native.compiles_per_shape", "ratio"},
    {"native.compile_s", "s"},
    {"native.lookup_s", "s"},
    {"native.kernel_s", "s"},
    {"native.readback_s", "s"},
    {"native.stmts_per_s", "stmts/s"},
    {"journal.appends", "count"},
    {"journal.append_s", "s"},
    {"journal.replay_s", "s"},
    {"serve.memo_ratio", "ratio"},
    {"serve.cell_hit_ratio", "ratio"},
    {"serve.lanes_per_batch", "ratio"},
    {"serve.parse_s", "s"},
    {"serve.try_fast_s", "s"},
    {"serve.execute_s", "s"},
    {"serve.memo_p50_ms", "ms"},
    {"serve.cell_hit_p50_ms", "ms"},
    {"serve.compute_p50_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.queue_ms", "ms"},
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

constexpr double kWarmSeconds = 2.0;

template <std::size_t N>
std::string render(const Outcome& out, const MetricSpec (&specs)[N], bool fill_missing,
                   bool& complete) {
  std::map<std::string, double> values;
  for (const Metric& m : out.metrics) values[m.name] = m.value;
  std::ostringstream os;
  os << "{\"correct\": " << (out.correct ? "true" : "false") << ", \"attempted\": "
     << out.attempted << ", \"failed\": " << out.failed << ", \"metrics\": {";
  complete = true;
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() && !fill_missing) {
      complete = false;
      continue;
    }
    os << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
       << json_number(it == values.end() ? 0.0 : it->second) << ", \"unit\": \"" << spec.unit
       << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--serve-rate") {
      args.serve_rate = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.serve_rate > 0)) return false;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !args.work_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: csr_perfbench --workload grid|exec|serve --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE] [--serve-rate R]\n";
    return 2;
  }
  Outcome out;
  try {
    warm_cpus(4, kWarmSeconds);
    if (args.workload == "grid") {
      out = run_grid(args);
    } else if (args.workload == "exec") {
      out = run_exec(args);
    } else if (args.workload == "serve") {
      if (!(args.serve_rate > 0)) {
        std::cerr << "csr_perfbench: the serve workload needs --serve-rate\n";
        return 2;
      }
      out = run_serve(args);
    } else {
      std::cerr << "csr_perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "csr_perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& problem : out.problems) {
    std::cerr << "perfbench: CHECK FAILED: " << problem << "\n";
  }
  bool complete = true;
  const std::string line = args.trace ? render(out, kPerLayer, true, complete)
                                      : render(out, kEndToEnd, false, complete);
  if (!complete) {
    std::cerr << "csr_perfbench: the workload did not produce every end-to-end metric\n";
    return 1;
  }
  for (const Metric& m : out.metrics) {
    std::cerr << "perfbench: " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << line << std::endl;
  return out.correct ? 0 : 1;
}
