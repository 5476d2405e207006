// Tree-walking interpreter for the resolved Fortran subset.
//
// Executes both the sequential input program and the SPMD program the
// restructurer produces. Parallel extension statements (HaloExchange,
// AllReduce, Pipeline*, Barrier) are delegated to the `on_extension`
// hook — the spmd runtime implements them against the simulated
// cluster; with no hook they are no-ops, which makes the sequential
// semantics trivially available.
//
// Work accounting: every executed Assign adds its precomputed flop
// count to a counter the runtime samples to advance virtual time.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autocfd/interp/bytecode.hpp"
#include "autocfd/interp/env.hpp"
#include "autocfd/interp/stmt_profile.hpp"

namespace autocfd::interp {

/// Which executor runs statements: the tree-walker is the reference
/// implementation, the bytecode engine the fast default (results are
/// bit-identical; see bytecode.hpp).
enum class EngineKind { Tree, Bytecode };

[[nodiscard]] constexpr std::string_view engine_kind_name(EngineKind k) {
  return k == EngineKind::Tree ? "tree" : "bytecode";
}

/// Parses "tree" / "bytecode"; throws CompileError otherwise.
[[nodiscard]] EngineKind parse_engine_kind(std::string_view name);

class Interpreter {
 public:
  struct Hooks {
    /// Called for every parallel extension statement.
    std::function<void(const fortran::Stmt&, Env&)> on_extension;
    /// Supplies data for `read` statements (by array name); fills
    /// zeros when unset.
    std::function<std::vector<double>(const std::string&)> on_read;
    /// Receives each `write` statement's formatted values.
    std::function<void(const std::string&)> on_write;
  };

  Interpreter(const ProgramImage& image, Hooks hooks = {},
              EngineKind engine = EngineKind::Bytecode);

  /// Runs the main program to completion.
  void run(Env& env);
  /// Runs one unit's body (used by tests and the spmd runtime).
  void run_unit(const fortran::ProgramUnit& unit, Env& env);

  /// Evaluates an expression (exposed for tests and the runtime).
  [[nodiscard]] double eval(const fortran::Expr& e, Env& env) const;

  /// Floating-point operations executed so far.
  [[nodiscard]] double flops() const { return flops_; }

  /// Lines captured from write/print statements (when no hook is set).
  [[nodiscard]] const std::vector<std::string>& output() const {
    return output_;
  }

  /// Attaches a statement profile: virtual compute work is attributed
  /// per attribution unit (see stmt_profile.hpp) into `profile`, which
  /// must outlive the runs. nullptr (the default) disables profiling;
  /// disabled, the only cost is one pointer test per dispatched
  /// statement.
  void set_profile(StmtProfile* profile) { prof_ = profile; }
  [[nodiscard]] StmtProfile* profile() const { return prof_; }

  [[nodiscard]] EngineKind engine() const { return engine_; }
  /// Compile/cache counters of the bytecode engine (all zero when
  /// running on the tree-walker).
  [[nodiscard]] bytecode::EngineStats engine_stats() const {
    return bc_ ? bc_->stats() : bytecode::EngineStats{};
  }

 private:
  enum class Signal { Normal, Goto, Return, Stop };

  Signal exec_list(const fortran::StmtList& list, Env& env);
  Signal exec_stmt(const fortran::Stmt& s, Env& env);
  Signal exec_stmt_impl(const fortran::Stmt& s, Env& env);
  void exec_assign(const fortran::Stmt& s, Env& env);
  Signal exec_do(const fortran::Stmt& s, Env& env);
  void exec_read(const fortran::Stmt& s, Env& env);
  void exec_write(const fortran::Stmt& s, Env& env);

  const ProgramImage* image_;
  Hooks hooks_;
  EngineKind engine_ = EngineKind::Bytecode;
  /// Lazily holds the per-interpreter compile cache (bytecode mode).
  std::unique_ptr<bytecode::BytecodeEngine> bc_;
  double flops_ = 0.0;
  int pending_goto_ = 0;
  std::vector<std::string> output_;

  // Profiling state (see stmt_profile.hpp). `prof_owner_` is the unit
  // currently charged; nested statements never re-open a unit.
  StmtProfile* prof_ = nullptr;
  const fortran::Stmt* prof_owner_ = nullptr;
  /// Memoized is_attribution_unit verdicts (only touched when
  /// profiling is enabled).
  std::unordered_map<const fortran::Stmt*, bool> unit_cache_;
};

/// Convenience: parse-resolve-run a sequential program; returns the
/// finished Env for inspection. Throws CompileError on any failure.
struct SequentialResult {
  fortran::SourceFile file;  // owns the resolved AST
  ProgramImage image;
  Env env;
  double flops = 0.0;
  std::vector<std::string> output;
};
/// Note: the result holds image/env referencing its own `file`.
[[nodiscard]] std::unique_ptr<SequentialResult> run_sequential(
    std::string_view source, EngineKind engine = EngineKind::Bytecode);

}  // namespace autocfd::interp
