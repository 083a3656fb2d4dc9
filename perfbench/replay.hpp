#pragma once

// Layer-by-layer replay of one sweep cell: the same calls, in the same
// order, that driver::prepare_cell and driver::verify_cell make, each
// wrapped in a span named after its layer. The replay must reproduce the
// real cell exactly (the traced run checks code_size, measured_size,
// exec_statements and verified), so a drift between the driver and this
// mirror fails loudly instead of skewing the layer numbers.

#include <cstdint>
#include <set>
#include <string>

#include "common.hpp"
#include "driver/sweep.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  bool feasible = true;
  std::int64_t code_size = 0;
  std::int64_t measured_size = -1;
  std::int64_t exec_statements = 0;
  bool verified = false;
};

/// Counts gathered at the layer boundaries during the replay.
struct ReplayStats {
  std::set<std::string> opt_graphs;  ///< distinct graphs given to OPT retiming
  std::set<std::string> expected_keys;  ///< distinct (graph, n) expected states
  std::int64_t codegen_instrs = 0;      ///< generated size before the optimizer
  std::int64_t instrs_removed = 0;
  std::int64_t optimizer_rounds = 0;
  std::int64_t vm_statements = 0;
  std::int64_t native_statements = 0;
};

ReplayResult replay_cell(const csr::driver::SweepCell& cell,
                         const csr::driver::SweepOptions& options, SpanRecorder& spans,
                         std::int64_t id, ReplayStats& stats);

/// Adds every per-layer metric of the sweep layers to `out`; `speedup` is
/// the 1-worker over the 4-worker sweep wall time, the compile figures come
/// from the exec set-up (zero on grid).
void report_replay_metrics(const SpanRecorder& spans, const ReplayStats& stats, double speedup,
                           std::int64_t compiles, std::int64_t shapes, double compile_seconds,
                           Outcome& out);

}  // namespace perfbench
