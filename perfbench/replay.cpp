#include "replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "benchmarks/benchmarks.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/nested.hpp"
#include "codegen/original.hpp"
#include "codegen/retimed.hpp"
#include "codegen/retimed_unfolded.hpp"
#include "codegen/statements.hpp"
#include "codegen/unfolded.hpp"
#include "codegen/unfolded_retimed.hpp"
#include "codesize/md_model.hpp"
#include "codesize/model.hpp"
#include "dfg/algorithms.hpp"
#include "dfg/io.hpp"
#include "dfg/iteration_bound.hpp"
#include "loopir/pipeline.hpp"
#include "mdfg/builders.hpp"
#include "native/engine.hpp"
#include "retiming/exact.hpp"
#include "retiming/md_retiming.hpp"
#include "retiming/opt.hpp"
#include "unfolding/unfold.hpp"
#include "vm/equivalence.hpp"

namespace perfbench {
namespace {

using csr::DataFlowGraph;
using csr::LoopProgram;
using csr::Retiming;
using csr::driver::Transform;

DataFlowGraph make_benchmark(const std::string& name) {
  for (const auto& info : csr::benchmarks::all_graphs()) {
    if (info.name == name) return info.factory();
  }
  throw std::invalid_argument("unknown benchmark '" + name + "'");
}

class Replayer {
 public:
  Replayer(const csr::driver::SweepCell& cell, const csr::driver::SweepOptions& options,
           SpanRecorder& spans, std::int64_t id, ReplayStats& stats)
      : cell_(cell), options_(options), spans_(spans), id_(id), stats_(stats) {}

  ReplayResult run() {
    if (cell_.engine != csr::driver::Engine::kOptRetiming) {
      throw std::invalid_argument("the replay mirrors opt-retiming cells only");
    }
    try {
      const bool runnable = (cell_.rows > 0 || cell_.cols > 0 ||
                             csr::mdfg::find_md_benchmark(cell_.benchmark) != nullptr)
                                ? prepare_nested()
                                : prepare_flat();
      if (runnable && options_.verify) verify();
    } catch (const std::exception&) {
      out_.feasible = false;
    }
    return out_;
  }

 private:
  /// Runs `fn` inside a span named after its layer.
  template <typename F>
  auto at(const char* name, F&& fn) {
    const SpanRecorder::Scope scope(spans_, name, id_);
    return fn();
  }

  Retiming opt_retiming(const DataFlowGraph& g) {
    stats_.opt_graphs.insert(csr::to_text(g));
    return at("retiming.opt", [&] { return csr::minimum_period_retiming(g).retiming.normalized(); });
  }

  bool infeasible() {
    out_.feasible = false;
    return false;
  }

  /// Mirror of prepare_cell's 1-D path under the opt-retiming engine.
  bool prepare_flat() {
    const DataFlowGraph g = at("dfg.build", [&] { return make_benchmark(cell_.benchmark); });
    at("dfg.iteration_bound", [&] { return csr::iteration_bound(g); });
    const std::int64_t n = cell_.n;
    const int f = cell_.factor;
    LoopProgram program;
    switch (cell_.transform) {
      case Transform::kOriginal:
        program = at("codegen.generate", [&] { return csr::original_program(g, n); });
        at("dfg.cycle_period", [&] { return csr::cycle_period(g); });
        at("codesize.model", [&] { return csr::original_size(g); });
        break;
      case Transform::kRetimed:
      case Transform::kRetimedCsr: {
        const Retiming r = opt_retiming(g);
        at("retiming.exact", [&] { return csr::exact_minimum_period(g); });
        at("codesize.model", [&] { return csr::registers_required(r); });
        if (n <= r.max_value()) return infeasible();
        const bool csr_form = cell_.transform == Transform::kRetimedCsr;
        program = at("codegen.generate", [&] {
          return csr_form ? csr::retimed_csr_program(g, r, n) : csr::retimed_program(g, r, n);
        });
        at("codesize.model", [&] {
          return csr_form ? csr::predicted_retimed_csr_size(g, r)
                          : csr::predicted_retimed_size(g, r);
        });
        break;
      }
      case Transform::kUnfolded:
      case Transform::kUnfoldedCsr: {
        const DataFlowGraph u = at("unfolding.unfold", [&] { return csr::unfold(g, f); });
        at("dfg.cycle_period", [&] { return csr::cycle_period(u); });
        const bool csr_form = cell_.transform == Transform::kUnfoldedCsr;
        program = at("codegen.generate", [&] {
          return csr_form ? csr::unfolded_csr_program(g, f, n) : csr::unfolded_program(g, f, n);
        });
        at("codesize.model", [&] {
          return csr_form ? csr::predicted_unfolded_csr_size(g, f)
                          : csr::predicted_unfolded_size(g, f, n);
        });
        break;
      }
      case Transform::kRetimedUnfolded:
      case Transform::kRetimedUnfoldedCsr: {
        const Retiming r = opt_retiming(g);
        const DataFlowGraph rg = at("retiming.apply", [&] { return csr::apply_retiming(g, r); });
        const DataFlowGraph u = at("unfolding.unfold", [&] { return csr::unfold(rg, f); });
        at("dfg.cycle_period", [&] { return csr::cycle_period(u); });
        at("retiming.exact", [&] { return csr::exact_minimum_period(g); });
        at("codesize.model", [&] { return csr::registers_required(r); });
        if (n <= r.max_value()) return infeasible();
        const bool csr_form = cell_.transform == Transform::kRetimedUnfoldedCsr;
        program = at("codegen.generate", [&] {
          return csr_form ? csr::retimed_unfolded_csr_program(g, r, f, n)
                          : csr::retimed_unfolded_program(g, r, f, n);
        });
        at("codesize.model", [&] {
          return csr_form ? csr::predicted_retimed_unfolded_csr_size(g, r, f)
                          : csr::predicted_retimed_unfolded_size(g, r, f, n);
        });
        break;
      }
      case Transform::kUnfoldedRetimed:
      case Transform::kUnfoldedRetimedCsr: {
        const csr::Unfolding u = at("unfolding.unfold", [&] { return csr::Unfolding(g, f); });
        const Retiming r = opt_retiming(u.graph());
        at("retiming.exact", [&] { return csr::exact_minimum_period(u.graph()); });
        at("codesize.model", [&] { return csr::registers_required_unfolded(u, r); });
        if (n / f <= r.max_value()) return infeasible();
        const bool csr_form = cell_.transform == Transform::kUnfoldedRetimedCsr;
        program = at("codegen.generate", [&] {
          return csr_form ? csr::unfolded_retimed_csr_program(u, r, n)
                          : csr::unfolded_retimed_program(u, r, n);
        });
        at("codesize.model", [&] {
          return csr_form ? csr::predicted_unfolded_retimed_csr_size(u, r)
                          : csr::predicted_unfolded_retimed_size(u, r, n);
        });
        break;
      }
    }
    return finish(std::move(program), g);
  }

  /// Mirror of prepare_cell's nested (2-D) path under opt-retiming.
  bool prepare_nested() {
    if (cell_.rows < 1 || cell_.cols < 1 || cell_.n != cell_.rows * cell_.cols) {
      return infeasible();
    }
    const csr::MdDataFlowGraph g = at("dfg.build", [&] {
      const csr::mdfg::MdBenchmarkInfo* info = csr::mdfg::find_md_benchmark(cell_.benchmark);
      if (info == nullptr) throw std::invalid_argument("unknown nested benchmark");
      return info->factory();
    });
    const DataFlowGraph lin = at("dfg.build", [&] { return csr::linearized(g, cell_.cols); });
    at("dfg.iteration_bound", [&] { return csr::iteration_bound(lin); });
    LoopProgram program;
    switch (cell_.transform) {
      case Transform::kOriginal:
        program = at("codegen.generate", [&] {
          return csr::nested_original_program(g, cell_.rows, cell_.cols);
        });
        at("dfg.cycle_period", [&] { return csr::cycle_period(lin); });
        at("codesize.model", [&] { return csr::md_original_size(g); });
        break;
      case Transform::kRetimed:
      case Transform::kRetimedCsr: {
        const csr::MdOptimalRetiming md =
            at("retiming.md", [&] { return csr::md_minimum_period_retiming(g); });
        at("retiming.md", [&] { return csr::md_exact_minimum_period(g); });
        const int depth = md.retiming.col_retiming().max_value();
        at("codesize.model", [&] { return csr::md_registers_required(md.retiming); });
        if (cell_.cols < md.min_cols || cell_.n <= depth) return infeasible();
        const bool csr_form = cell_.transform == Transform::kRetimedCsr;
        program = at("codegen.generate", [&] {
          return csr_form
                     ? csr::nested_retimed_csr_program(g, md.retiming, cell_.rows, cell_.cols)
                     : csr::nested_retimed_program(g, md.retiming, cell_.rows, cell_.cols);
        });
        at("codesize.model", [&] {
          return csr_form ? csr::predicted_md_retimed_csr_size(g, md.retiming)
                          : csr::predicted_md_retimed_size(g, md.retiming);
        });
        break;
      }
      default:
        return infeasible();
    }
    return finish(std::move(program), lin);
  }

  bool finish(LoopProgram program, const DataFlowGraph& graph) {
    out_.code_size = program.code_size();
    const csr::PipelineResult optimized =
        at("loopir.optimize", [&] { return csr::optimize_pipeline(program); });
    out_.measured_size = optimized.program.code_size();
    stats_.codegen_instrs += out_.code_size;
    stats_.instrs_removed += out_.code_size - out_.measured_size;
    stats_.optimizer_rounds += optimized.iterations;
    program_ = optimized.program;
    graph_ = graph;
    arrays_ = at("codegen.arrays", [&] { return csr::array_names(graph); });
    return true;
  }

  /// Mirror of verify_cell (first native attempt only: a retry or a
  /// fallback already counts as a failed cell).
  void verify() {
    const std::int64_t n = cell_.n;
    stats_.expected_keys.insert(csr::to_text(graph_) + "|" + std::to_string(n));
    const csr::Machine expected = at("vm.expected", [&] {
      return csr::run_program(csr::original_program(graph_, n));
    });
    if (cell_.exec == csr::driver::ExecEngine::kNative) {
      csr::CEmitterOptions emitter;
      emitter.semantics = csr::CEmitterOptions::Semantics::kExact;
      emitter.function_name = "csr_kernel";
      at("codegen.emit_c", [&] { return csr::to_c_source(program_, emitter); });
      csr::native::CompileOptions copts;
      copts.deadline_seconds = options_.retry.compile_deadline;
      csr::native::NativeOutcome native;
      {
        const SpanRecorder::Scope scope(spans_, "native.run", id_);
        native = csr::native::run_native(program_, copts);
        spans_.add_reported("native.lookup", native.compile_seconds, id_);
        spans_.add_reported("native.kernel", native.run_seconds, id_);
      }
      if (!native.ok()) return;
      out_.exec_statements = native.result.executed_statements();
      stats_.native_statements += out_.exec_statements;
      const csr::MachineView expected_view(expected);
      out_.verified = at("vm.diff", [&] {
        return csr::diff_observable_state(expected_view, native.result, arrays_, n).empty();
      });
      at("vm.discipline",
         [&] { return csr::check_write_discipline(native.result, arrays_, n).empty(); });
      return;
    }
    const csr::ExecMode mode = cell_.exec == csr::driver::ExecEngine::kMap
                                   ? csr::ExecMode::kReference
                                   : csr::ExecMode::kFast;
    const csr::Machine actual = at("vm.run", [&] { return csr::run_program(program_, mode); });
    out_.exec_statements = actual.executed_statements();
    stats_.vm_statements += out_.exec_statements;
    out_.verified = at("vm.diff", [&] {
      return csr::diff_observable_state(expected, actual, arrays_, n).empty();
    });
    at("vm.discipline", [&] { return csr::check_write_discipline(actual, arrays_, n).empty(); });
  }

  const csr::driver::SweepCell& cell_;
  const csr::driver::SweepOptions& options_;
  SpanRecorder& spans_;
  std::int64_t id_;
  ReplayStats& stats_;
  ReplayResult out_;
  LoopProgram program_;
  DataFlowGraph graph_;
  std::vector<std::string> arrays_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

ReplayResult replay_cell(const csr::driver::SweepCell& cell,
                         const csr::driver::SweepOptions& options, SpanRecorder& spans,
                         std::int64_t id, ReplayStats& stats) {
  return Replayer(cell, options, spans, id, stats).run();
}

void report_replay_metrics(const SpanRecorder& spans, const ReplayStats& stats, double speedup,
                           std::int64_t compiles, std::int64_t shapes, double compile_seconds,
                           Outcome& out) {
  const double prepare = spans.total("driver.prepare");
  const double verify = spans.total("driver.verify");
  const double covered = spans.total("replay") - spans.self_time("replay");
  out.add("driver.prepare_s", prepare, "s");
  out.add("driver.verify_s", verify, "s");
  out.add("driver.speedup", speedup, "x");
  out.add("driver.unattributed_pct",
          100.0 * ratio(std::max(0.0, prepare + verify - covered), prepare + verify), "%");
  out.add("dfg.iteration_bound_s", spans.total("dfg.iteration_bound"), "s");

  const auto opt_calls = static_cast<double>(spans.count("retiming.opt"));
  const auto exact_calls = static_cast<double>(spans.count("retiming.exact"));
  out.add("retiming.opt_s", spans.total("retiming.opt"), "s");
  out.add("retiming.opt_calls", opt_calls, "count");
  out.add("retiming.opt_distinct_ratio",
          ratio(static_cast<double>(stats.opt_graphs.size()), opt_calls), "ratio");
  out.add("retiming.exact_s", spans.total("retiming.exact"), "s");
  out.add("retiming.exact_calls", exact_calls, "count");
  out.add("retiming.md_s", spans.total("retiming.md"), "s");
  out.add("unfolding.unfold_s", spans.total("unfolding.unfold"), "s");

  out.add("codegen.generate_s", spans.total("codegen.generate"), "s");
  out.add("codegen.instrs", static_cast<double>(stats.codegen_instrs), "instr");
  out.add("codegen.emit_c_s", spans.total("codegen.emit_c"), "s");
  out.add("loopir.optimize_s", spans.total("loopir.optimize"), "s");
  out.add("loopir.instrs_removed", static_cast<double>(stats.instrs_removed), "instr");
  out.add("loopir.rounds", static_cast<double>(stats.optimizer_rounds), "count");

  const auto expected_runs = static_cast<double>(spans.count("vm.expected"));
  const double vm_run = spans.total("vm.run");
  out.add("vm.expected_s", spans.total("vm.expected"), "s");
  out.add("vm.expected_runs", expected_runs, "count");
  out.add("vm.expected_distinct_ratio",
          ratio(static_cast<double>(stats.expected_keys.size()), expected_runs), "ratio");
  out.add("vm.run_s", vm_run, "s");
  out.add("vm.stmts_per_s", ratio(static_cast<double>(stats.vm_statements), vm_run), "stmts/s");
  out.add("vm.diff_s", spans.total("vm.diff"), "s");
  out.add("vm.discipline_s", spans.total("vm.discipline"), "s");

  const double kernel = spans.total("native.kernel");
  out.add("native.compiles", static_cast<double>(compiles), "count");
  out.add("native.compiles_per_shape",
          ratio(static_cast<double>(compiles), static_cast<double>(shapes)), "ratio");
  out.add("native.compile_s", compile_seconds, "s");
  out.add("native.lookup_s", spans.total("native.lookup"), "s");
  out.add("native.kernel_s", kernel, "s");
  out.add("native.readback_s", spans.self_time("native.run"), "s");
  out.add("native.stmts_per_s", ratio(static_cast<double>(stats.native_statements), kernel),
          "stmts/s");
}

}  // namespace perfbench
