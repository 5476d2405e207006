// Bytecode execution engine for the Fortran-subset interpreter.
//
// The tree-walker re-walks every Expr node, re-rounds every subscript
// and re-checks every array bound on every iteration of every field
// loop — the dominant host-time cost of the whole simulated cluster.
// This engine compiles each DO loop (and each standalone assignment)
// once into a flat, register-based postfix program and caches it by
// statement identity; execution is a branch-light dispatch loop over a
// flat instruction vector.
//
// Strength reduction: inside a compiled loop, array references whose
// subscripts are all either affine in that loop's induction variable
// (v, v+c, v-c) or loop-invariant become "walks": the linear element
// index is computed once at loop entry (with the per-dimension bounds
// check hoisted to cover the whole iteration range) and advanced by a
// constant stride per iteration, so the inner loop touches contiguous
// doubles with no rounding and no bounds test. Reduction is only
// applied to references in straight-line statements of loops that
// cannot exit early (no RETURN/STOP in the body), so a hoisted check
// can never fire for an access the tree-walker would not perform on a
// *successfully completing* run; a run that would fault inside the
// loop faults at loop entry instead, with the same message format.
//
// Strip execution: an innermost DO loop whose body is straight-line
// assignments additionally gets a StripRun op ahead of its body, which
// runs the loop as strips of up to kStripWidth iterations. Each
// instruction of the loop's ordinary compiled body executes once
// across all lanes of a strip (LoadWalk/StoreWalk are strided copies,
// Imm and invariant LoadScalar are broadcasts, the DO variable is an
// iota, AddFlops adds imm x lanes), so dispatch is paid per strip, not
// per element. Within a strip this is loop fission: statement k runs
// for every lane before statement k+1 runs for any. It is legal when
//  * at compile time: the body is Assign (or CONTINUE) statements only,
//    every array reference is a walk, there is no .and./.or. and no
//    intrinsic of more than 8 arguments, the body does not assign the
//    DO variable, and every scalar it assigns is written before it is
//    read within an iteration. Such scalars become lane temporaries;
//    after the loop their last lane is stored back, and the DO variable
//    gets its final value, as in the per-element path.
//  * at loop entry (StripRun): over the whole trip range, every stored
//    walk touches either none of the elements of each other walk of
//    the same array, or exactly the same elements in the same
//    iterations with a non-zero stride (a zero stride carries a value
//    across iterations). Fission then reorders no pair of accesses to
//    one element. Otherwise the loop falls through to the per-element
//    body, which stays compiled for every such loop.
// Non-finite stores keep the tree-walker's message, which names the
// first failing (iteration, statement) in execution order: a failing
// statement shrinks the strip to the lanes before its first bad lane,
// stores only those, later statements run over the shrunken strip
// (any failure they find is earlier in execution order), and the error
// is thrown when the strip ends. After such a throw, only the message
// is specified, not the partial stores or the flop count. Adding
// imm x lanes at once gives the same flop total as lane-by-lane adds
// because ProgramImage::flop_cost is integer-valued and every total
// stays far below 2^53, where double addition of integers is exact.
//
// Everything else about the semantics — evaluation order, llround
// subscript rounding, the pow fast path, short-circuit logicals, the
// non-finite array-store guard, per-assignment flop accounting — is
// shared with or copied exactly from the tree-walker, and the
// differential tests assert bit-identical scalars, arrays and trace
// event streams across both engines.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autocfd/interp/env.hpp"

namespace autocfd::interp::bytecode {

enum class Op : std::uint8_t {
  Imm,          // r[a] = imm
  LoadScalar,   // r[a] = scalars[b]
  StoreScalar,  // scalars[b] = r[a]
  LoadElem,     // r[a] = arrays[b][llround(r[c .. c+d-1])] (checked)
  StoreElem,    // arrays[b][llround(r[c .. c+d-1])] = r[a] (checked)
  LoadWalk,     // r[a] = arrays[b].data[walk[c].cur]
  StoreWalk,    // arrays[b].data[walk[c].cur] = r[a]
  CheckFinite,  // throw CompileError unless r[a] is finite (stmt b)
  Neg,          // r[a] = -r[b]
  Not,          // r[a] = r[b] != 0 ? 0 : 1
  Add, Sub, Mul, Div, Pow,          // r[a] = r[b] op r[c]
  Lt, Le, Gt, Ge, CmpEq, CmpNe,     // r[a] = r[b] op r[c] ? 1 : 0
  Intrin,       // r[a] = intrinsic b applied to r[c .. c+d-1]
  AddFlops,     // flops += imm
  Jump,         // pc = a
  JumpIfZero,   // if (r[a] == 0) pc = b
  JumpIfNotZero,  // if (r[a] != 0) pc = b
  LoopBegin,    // enter loop a: lo=r[b], hi=r[c], step=r[d]
  LoopNext,     // advance loop a: jump to body or fall through to exit
  WalkInit,     // initialize walk a (hoisted bounds check)
  StripRun,     // run loop a strip-at-a-time to exit_pc, or fall through
  Ret,          // halt with Signal::Return
  StopProg,     // halt with Signal::Stop
  Halt,         // normal end of program
};

struct Instr {
  Op op = Op::Halt;
  int a = 0, b = 0, c = 0, d = 0;
  double imm = 0.0;
};

/// Iterations one StripRun instruction dispatch covers.
inline constexpr int kStripWidth = 64;

/// Scalar a strip-executed loop keeps in lane register `reg`.
struct LaneTemp {
  int slot = -1;
  int reg = -1;
};

/// Compile-time description of one DO loop in a kernel.
struct LoopDesc {
  int var_slot = -1;        // env scalar slot of the induction variable
  int body_pc = 0;          // first instruction of the loop body
  int exit_pc = 0;          // first instruction after the loop
  std::vector<int> walks;   // walk indices advanced each iteration
  // Strip body (only loops with a StripRun): the body's registers are
  // exactly [reg_lo, reg_hi); alias_pairs are the (stored walk, other
  // walk of the same array) pairs StripRun checks at loop entry.
  int reg_lo = 0, reg_hi = 0;
  std::vector<std::pair<int, int>> alias_pairs;
  std::vector<LaneTemp> temps;
};

/// One dimension of a strength-reduced array reference.
struct WalkDim {
  bool affine = false;   // subscript == induction variable + offset
  long long offset = 0;  // affine case
  int reg = -1;          // invariant case: register holding the value
};

/// Compile-time description of one strength-reduced array reference.
struct WalkDesc {
  int array_slot = -1;
  int loop = -1;  // owning LoopDesc index
  std::vector<WalkDim> dims;
};

enum class ExecSignal { Normal, Return, Stop };

/// Compile/cache counters, surfaced through the obs metrics registry
/// as `engine.bytecode.*` by the CLI and the benches.
struct EngineStats {
  long long kernels_compiled = 0;  // DO statements compiled to kernels
  long long stmts_compiled = 0;    // standalone assignments compiled
  long long compile_rejects = 0;   // statements left to the tree-walker
  long long cache_hits = 0;        // executions served from the cache
  long long kernel_runs = 0;       // compiled program executions
  long long instrs_emitted = 0;
  long long walks_reduced = 0;     // array refs turned into walks
  long long strip_loops = 0;       // loops compiled with a strip body
  long long strip_fallbacks = 0;   // loop entries refused by the alias check

  EngineStats& operator+=(const EngineStats& o) {
    kernels_compiled += o.kernels_compiled;
    stmts_compiled += o.stmts_compiled;
    compile_rejects += o.compile_rejects;
    cache_hits += o.cache_hits;
    kernel_runs += o.kernel_runs;
    instrs_emitted += o.instrs_emitted;
    walks_reduced += o.walks_reduced;
    strip_loops += o.strip_loops;
    strip_fallbacks += o.strip_fallbacks;
    return *this;
  }

  /// Name/value pairs for metrics export (stable order).
  [[nodiscard]] std::vector<std::pair<const char*, long long>> items() const {
    return {{"kernels_compiled", kernels_compiled},
            {"stmts_compiled", stmts_compiled},
            {"compile_rejects", compile_rejects},
            {"cache_hits", cache_hits},
            {"kernel_runs", kernel_runs},
            {"instrs_emitted", instrs_emitted},
            {"walks_reduced", walks_reduced},
            {"strip_loops", strip_loops},
            {"strip_fallbacks", strip_fallbacks}};
  }
};

/// One compiled statement: a DO-loop kernel or a single assignment.
/// Scalar execution scratch is owned by the program and reused across
/// runs; strip lanes belong to the engine that runs it. A Program must
/// only be executed by one thread at a time (each Interpreter — hence
/// each simulated rank — owns its own cache).
class Program {
 public:
  [[nodiscard]] const std::vector<Instr>& code() const { return code_; }
  [[nodiscard]] const std::vector<LoopDesc>& loops() const { return loops_; }
  [[nodiscard]] const std::vector<WalkDesc>& walks() const { return walks_; }

 private:
  friend class Compiler;
  friend class BytecodeEngine;

  struct LoopState {
    long long v = 0, last = 0, step = 1;
  };
  struct WalkState {
    long long cur = 0, stride = 0;
  };

  ExecSignal execute(Env& env, double& flops, std::vector<double>& lanes,
                     EngineStats& stats) const;
  /// StripRun's loop-entry check: true when loop `ld` may run in strips.
  bool strips_are_safe(const LoopDesc& ld, const LoopState& ls) const;
  void run_strips(const LoopDesc& ld, const LoopState& ls, Env& env,
                  double& flops, double* lanes) const;

  std::vector<Instr> code_;
  std::vector<LoopDesc> loops_;
  std::vector<WalkDesc> walks_;
  /// Statements referenced by CheckFinite for error attribution.
  std::vector<const fortran::Stmt*> stmts_;
  int num_regs_ = 0;
  int lane_regs_ = 0;  // widest strip body, in registers

  // Reused scratch (single-threaded per owning interpreter).
  mutable std::vector<double> regs_;
  mutable std::vector<LoopState> loop_state_;
  mutable std::vector<WalkState> walk_state_;
};

/// Per-interpreter compile cache keyed by statement identity (the AST
/// node address — stable for the lifetime of the SourceFile).
class BytecodeEngine {
 public:
  explicit BytecodeEngine(const ProgramImage& image) : image_(&image) {}

  /// Returns the compiled program for `s` (compiling on first call),
  /// or nullptr when the statement is outside the compilable subset
  /// and must be tree-walked. Only Do and Assign statements are
  /// candidates.
  const Program* compiled(const fortran::Stmt& s);

  /// Executes `p` (from this engine's cache) with the engine's lane
  /// scratch, shared by all its programs.
  ExecSignal run(const Program& p, Env& env, double& flops);

  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  const ProgramImage* image_;
  std::unordered_map<const fortran::Stmt*, std::unique_ptr<Program>> cache_;
  EngineStats stats_;
  std::vector<double> lanes_;
};

}  // namespace autocfd::interp::bytecode
