// Interpreter engine throughput: tree-walker vs bytecode VM.
//
// Both case-study applications run sequentially under the two
// statement executors. The bytecode engine must (a) produce
// bit-identical scalars, arrays and flop counts — checked here on the
// full final environment, not just the status arrays — and (b) beat
// the tree-walker by at least 3x on host wall time (Release build),
// since executed kernel throughput is what every table in the paper
// reproduction ultimately measures. The binary exits nonzero when an
// app diverges or the bytecode engine misses the 3x target.
#include "bench_util.hpp"

#include <chrono>
#include <cstring>
#include <functional>

namespace {

using namespace autocfd;

double wall_seconds_of(const std::function<void()>& fn, int reps) {
  // Best-of-N to damp scheduler noise.
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Best-of-N wall time of one sequential execution (allocation +
/// interpretation; parsing and slot resolution are excluded — they are
/// compile-time, not kernel throughput).
double wall_of_engine(const interp::ProgramImage& image,
                      interp::EngineKind engine, int reps) {
  return wall_seconds_of(
      [&] {
        DiagnosticEngine diags;
        interp::Env env(image);
        env.allocate_arrays(image, diags);
        throw_if_errors(diags, "bench allocation");
        interp::Interpreter interp(image, {}, engine);
        interp.run(env);
        benchmark::DoNotOptimize(env.scalars.data());
      },
      reps);
}

/// Runs `source` under both engines and reports wall times, speedup
/// and bit-identity of the complete final environment. Returns false
/// when the engines diverge or the bytecode engine is under 3x faster.
bool compare_engines(const std::string& app, const std::string& source) {
  const auto tree = interp::run_sequential(source, interp::EngineKind::Tree);
  const auto byte_ =
      interp::run_sequential(source, interp::EngineKind::Bytecode);

  bool identical = tree->flops == byte_->flops &&
                   tree->env.scalars == byte_->env.scalars &&
                   tree->env.arrays.size() == byte_->env.arrays.size();
  for (std::size_t a = 0; identical && a < tree->env.arrays.size(); ++a) {
    const auto& ta = tree->env.arrays[a].data;
    const auto& ba = byte_->env.arrays[a].data;
    identical = ta.size() == ba.size() &&
                (ta.empty() ||
                 std::memcmp(ta.data(), ba.data(),
                             ta.size() * sizeof(double)) == 0);
  }

  const double wall_tree =
      wall_of_engine(tree->image, interp::EngineKind::Tree, 3);
  const double wall_byte =
      wall_of_engine(tree->image, interp::EngineKind::Bytecode, 3);
  const double speedup = wall_tree / wall_byte;

  DiagnosticEngine diags;
  interp::Env env(tree->image);
  env.allocate_arrays(tree->image, diags);
  interp::Interpreter interp(tree->image, {}, interp::EngineKind::Bytecode);
  interp.run(env);
  const auto stats = interp.engine_stats();

  std::printf("%-10s %12.4f %12.4f %9.2fx  %s\n", app.c_str(), wall_tree,
              wall_byte, speedup, identical ? "bit-identical" : "DIVERGED");
  std::printf(
      "%-10s kernels %lld, walks %lld, strip loops %lld (%lld fallbacks), "
      "cache hits %lld, rejects %lld\n",
      "", stats.kernels_compiled + stats.stmts_compiled, stats.walks_reduced,
      stats.strip_loops, stats.strip_fallbacks, stats.cache_hits,
      stats.compile_rejects);

  bench_util::record(app + ".tree.wall_s", wall_tree);
  bench_util::record(app + ".bytecode.wall_s", wall_byte);
  bench_util::record(app + ".speedup", speedup);
  bench_util::record(app + ".identical", identical ? 1 : 0);
  bench_util::record(app + ".kernels_compiled",
                     static_cast<double>(stats.kernels_compiled));
  bench_util::record(app + ".walks_reduced",
                     static_cast<double>(stats.walks_reduced));
  bench_util::record(app + ".strip_loops",
                     static_cast<double>(stats.strip_loops));
  bench_util::record(app + ".strip_fallbacks",
                     static_cast<double>(stats.strip_fallbacks));
  bench_util::record(app + ".cache_hits",
                     static_cast<double>(stats.cache_hits));
  if (!identical || speedup < 3.0) {
    std::printf("FAIL: %s %s\n", app.c_str(),
                identical ? "bytecode engine is under 3x faster" : "diverged");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cfd::AerofoilParams aero;
  aero.n1 = 40;
  aero.n2 = 18;
  aero.n3 = 6;
  aero.frames = 2;

  cfd::SprayerParams spray;
  spray.nx = 160;
  spray.ny = 60;
  spray.frames = 3;

  bench_util::heading(
      "Interpreter engine throughput: tree-walker vs bytecode VM");
  bench_util::note("Target: bytecode >= 3x faster, results bit-identical.\n");
  std::printf("%-10s %12s %12s %10s\n", "app", "tree (s)", "bytecode (s)",
              "speedup");

  const auto aero_source = cfd::aerofoil_source(aero);
  const auto spray_source = cfd::sprayer_source(spray);
  const bool aero_ok = compare_engines("aerofoil", aero_source);
  const bool spray_ok = compare_engines("sprayer", spray_source);

  // Microbenchmarks over the aerofoil image, one per engine.
  static auto aero_seq = interp::run_sequential(aero_source);
  for (const auto engine :
       {interp::EngineKind::Tree, interp::EngineKind::Bytecode}) {
    const std::string name =
        std::string("seq_run/") + std::string(engine_kind_name(engine));
    benchmark::RegisterBenchmark(name.c_str(), [engine](benchmark::State& s) {
      for (auto _ : s) {
        DiagnosticEngine diags;
        interp::Env env(aero_seq->image);
        env.allocate_arrays(aero_seq->image, diags);
        interp::Interpreter interp(aero_seq->image, {}, engine);
        interp.run(env);
        benchmark::DoNotOptimize(env.scalars.data());
      }
    });
  }
  const int rc = bench_util::finish(argc, argv);
  return aero_ok && spray_ok ? rc : 1;
}
