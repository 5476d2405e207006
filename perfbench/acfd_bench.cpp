// acfd_bench — the program behind the repository benchmark.
//
// One iteration is the `acfd --run` path, called through the library's
// public functions in this one process: Fortran source + directives ->
// core::parallelize -> codegen::run_sequential_timed reference ->
// ParallelProgram::run on the simulated 4-rank cluster -> bit-for-bit
// verification of every gathered status array. Each call is timed from
// outside; nothing inside the library is instrumented.
//
//   acfd_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced iterations: the traced ones record a
// span around every public call plus the counts those calls return,
// and yield the per-layer metrics, each span's self time and the
// tracing overhead (traced minus untraced iteration). The traced run
// also re-runs the workload once under the tree-walking engine and
// requires identical results (the engine differential).
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; the full per-metric
// statistics (median, quartiles, sample count) and the span file are
// written to --out-dir. --smoke shrinks the grids so that every
// workload runs in about a second (the benchmark's own self test).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/ledger/ledger.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/obs/json_util.hpp"
#include "autocfd/partition/comm_model.hpp"
#include "autocfd/plan/plan_input.hpp"
#include "autocfd/plan/planner.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/trace/critical_path.hpp"
#include "autocfd/trace/recorder.hpp"

namespace {

using namespace autocfd;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
/// Compile-only repeats after each untraced iteration (compile_s).
constexpr int kExtraCompiles = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every rank thread included).
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const auto v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = v == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string grid;  // generator size, e.g. "99x41x13"
  int frames = 0;
  std::function<std::string()> source;
  /// Fault plan without its seed; empty for the clean workloads.
  std::string faults;
  /// A lossy run cycles through `plans` fault seeds, seed_base + k, so
  /// that its medians do not hang on one draw of faults. --seed sets
  /// seed_base; it reaches nothing else.
  int plans = 1;
  std::uint64_t seed_base = 0;

  /// The fault plan of iteration `iter`; empty when clean.
  [[nodiscard]] std::string fault_spec(int iter) const {
    if (faults.empty()) return {};
    return "seed=" + std::to_string(seed_base + static_cast<std::uint64_t>(
                                                    iter % plans)) +
           "," + faults;
  }
  [[nodiscard]] std::string plans_desc() const {
    if (faults.empty()) return {};
    return "seed=" + std::to_string(seed_base) + ".." +
           std::to_string(seed_base + static_cast<std::uint64_t>(plans) - 1) +
           "," + faults;
  }
};

Workload make_workload(const Options& o) {
  Workload w;
  w.name = o.workload;
  if (o.workload == "aerofoil-p4" || o.workload == "aerofoil-lossy-p4") {
    cfd::AerofoilParams p;  // 99 x 41 x 13
    p.frames = 2;
    if (o.smoke) {
      p.n1 = 33;
      p.n2 = 17;
      p.n3 = 5;
      p.frames = 1;
    }
    w.grid = std::to_string(p.n1) + "x" + std::to_string(p.n2) + "x" +
             std::to_string(p.n3);
    w.frames = p.frames;
    w.source = [p] { return cfd::aerofoil_source(p); };
    if (o.workload == "aerofoil-lossy-p4") {
      // Drop and corruption rates sized so that recovery retransmits
      // about ten messages per run; rank 3 computes 1.5x slower, so
      // the other ranks' wait time is set by the straggler.
      w.faults = "jitter=0.2:0.0005,straggler=3:1.5,drop=0.08,corrupt=0.02";
      w.plans = 16;
      w.seed_base = o.seed * static_cast<std::uint64_t>(w.plans);
    }
  } else if (o.workload == "sprayer-p4") {
    cfd::SprayerParams p;
    p.nx = 300;
    p.ny = 100;
    p.frames = 3;
    if (o.smoke) {
      p.nx = 60;
      p.ny = 20;
      p.frames = 1;
    }
    w.grid = std::to_string(p.nx) + "x" + std::to_string(p.ny);
    w.frames = p.frames;
    w.source = [p] { return cfd::sprayer_source(p); };
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload +
                                "' (known: aerofoil-p4, sprayer-p4, "
                                "aerofoil-lossy-p4)");
  }
  return w;
}

// ------------------------------------------------------------ metrics

/// Median and quartiles as Python's statistics.quantiles(n=4) gives
/// them (the default "exclusive" method).
struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = i * m / 4;
    const std::size_t delta = i * m - j * 4;
    const double lo = j == 0 ? v[0] : v[j - 1];
    const double hi = j >= n ? v[n - 1] : v[j];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

// Printed with --trace 0. BENCHMARK.json's "end_to_end" lists the same
// names and units.
const MetricDef kEndToEnd[] = {
    {"virtual_elapsed_s", "virtual_s", "lower"},
    {"speedup", "x", "higher"},
    {"compile_s", "s", "lower"},
    {"run_cpu_s", "s", "lower"},
    {"time_to_verified_s", "s", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"verified_ratio", "fraction", "higher"},
};

// Printed with --trace 1. BENCHMARK.json's "per_layer" lists the same
// names and units.
const MetricDef kPerLayer[] = {
    {"fortran.parse_s", "s", "lower"},
    {"core.analyze_s", "s", "lower"},
    {"core.phase.classify_s", "s", "lower"},
    {"core.phase.depend_s", "s", "lower"},
    {"core.phase.restructure_s", "s", "lower"},
    {"core.phase.print_s", "s", "lower"},
    {"partition.search_s", "s", "lower"},
    {"partition.max_comm_points", "count", "lower"},
    {"ir.field_loops", "count", "higher"},
    {"depend.pairs", "count", "lower"},
    {"depend.mirror_image_loops", "count", "lower"},
    {"depend.pipelined_loops", "count", "lower"},
    {"sync.points_before", "count", "lower"},
    {"sync.points_after", "count", "lower"},
    {"codegen.allreduce_sites", "count", "lower"},
    {"codegen.halo_sites", "count", "lower"},
    {"codegen.pipeline_sites", "count", "lower"},
    {"codegen.spmd_source_bytes", "bytes", "lower"},
    {"interp.reference_s", "s", "lower"},
    {"interp.reference_flops", "flop", "lower"},
    {"interp.flops_per_s", "flop/s", "higher"},
    {"interp.flop_ratio", "ratio", "lower"},
    {"interp.kernels_compiled", "count", "higher"},
    {"interp.kernel_cache_hits", "count", "higher"},
    {"mp.compute_s", "virtual_s", "lower"},
    {"mp.transfer_s", "virtual_s", "lower"},
    {"mp.wait_s", "virtual_s", "lower"},
    {"mp.recovery_s", "virtual_s", "lower"},
    {"mp.imbalance", "ratio", "lower"},
    {"mp.messages", "count", "lower"},
    {"mp.bytes", "bytes", "lower"},
    {"mp.collectives", "count", "lower"},
    {"mp.empty_messages", "count", "lower"},
    {"mp.retransmits", "count", "lower"},
    {"mp.recovered", "count", "lower"},
    {"mp.run_wall_s", "s", "lower"},
    {"mp.host_parallelism", "ratio", "higher"},
    {"fault.dropped", "count", "lower"},
    {"fault.corrupted", "count", "lower"},
    {"fault.delayed", "count", "lower"},
    {"trace.critical_compute_share", "fraction", "higher"},
    {"trace.critical_comm_share", "fraction", "lower"},
    {"trace.top_site_share", "fraction", "lower"},
    {"trace.overhead_s", "s", "lower"},
    {"prof.profile_overhead_s", "s", "lower"},
    {"prof.report_s", "s", "lower"},
    {"ledger.append_s", "s", "lower"},
    {"plan.make_plan_s", "s", "lower"},
    {"plan.static_regret", "ratio", "lower"},
    {"span.iteration.self_s", "s", "lower"},
    {"span.compile.self_s", "s", "lower"},
    {"span.reference.self_s", "s", "lower"},
    {"span.run.self_s", "s", "lower"},
    {"span.verify.self_s", "s", "lower"},
};

/// Every sample of every metric, by name.
class MetricSet {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  [[nodiscard]] const std::vector<double>* find(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// -------------------------------------------------------------- spans

/// Spans recorded from this file around each public library call. A
/// span's parent is the span open when it began; spans of one traced
/// iteration share its iteration number.
class SpanLog {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    int iteration = -1;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      Span s;
      s.id = static_cast<int>(log_.spans_.size());
      s.parent = log_.open_.empty() ? -1 : log_.open_.back();
      s.iteration = log_.iteration_;
      s.name = std::move(name);
      s.start_s = seconds_since(log_.origin_);
      id_ = s.id;
      log_.spans_.push_back(std::move(s));
      log_.open_.push_back(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      log_.spans_[static_cast<std::size_t>(id_)].end_s =
          seconds_since(log_.origin_);
      log_.open_.pop_back();
    }
    [[nodiscard]] int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_ = 0;
  };

  void set_iteration(int it) { iteration_ = it; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int id) const {
    const auto& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }
  /// Duration minus the time its direct children cover.
  [[nodiscard]] double self_time(int id) const {
    double covered = 0.0;
    for (const auto& s : spans_) {
      if (s.parent == id) covered += s.end_s - s.start_s;
    }
    return duration(id) - covered;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int iteration_ = -1;
};

/// Opens a span only when a log is given (untraced iterations pass
/// null and pay nothing).
class MaybeSpan {
 public:
  MaybeSpan(SpanLog* log, const char* name) {
    if (log != nullptr) scope_.emplace(*log, name);
  }

 private:
  std::optional<SpanLog::Scope> scope_;
};

// ---------------------------------------------------------- iteration

/// What one iteration produced, kept for the checks and the traced
/// layer metrics.
struct IterationResult {
  int plan = 0;            // fault-plan index (0 when clean)
  std::string fault_spec;  // empty when clean
  std::unique_ptr<core::ParallelProgram> program;
  codegen::SeqRunResult seq;
  codegen::SpmdRunResult par;
  fault::FaultCounters faults;
  double compile_s = 0.0;
  double reference_s = 0.0;  // run_sequential_timed
  double parse_s = 0.0;      // parse_source of the reference
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double total_s = 0.0;
};

class Bench {
 public:
  Bench(Options opts, Workload w) : opts_(std::move(opts)), w_(std::move(w)) {}

  int main();

 private:
  void setup();
  /// Runs one attempted operation: a throw or any failed check inside
  /// it counts it as failed.
  template <class Body>
  void attempt(const char* what, Body&& body);
  IterationResult iterate(int iter, SpanLog* spans, obs::ObsContext* obs,
                          trace::TraceRecorder* recorder);
  codegen::SpmdRunResult run_program(core::ParallelProgram& program,
                                     const std::string& fault_spec,
                                     interp::EngineKind engine,
                                     mp::EventSink* sink, bool profile,
                                     fault::FaultCounters* counters);
  /// Appends one failure reason; every check goes through here.
  void fail(const std::string& why) {
    ++check_failures_;
    if (failures_.size() < 20) failures_.push_back(why);
    std::fprintf(stderr, "acfd_bench: CHECK FAILED: %s\n", why.c_str());
  }
  void verify(const IterationResult& r);
  void record_layers(const IterationResult& r, bool first_cycle,
                     SpanLog& spans, int iter_span, const obs::ObsContext& obs,
                     const trace::TraceRecorder& recorder);
  void engine_differential(const IterationResult& bytecode);
  void write_results();
  void write_spans(const SpanLog& spans);

  Options opts_;
  Workload w_;
  const mp::MachineConfig machine_ = mp::MachineConfig::pentium_ethernet_1999();
  std::string source_;
  core::Directives dirs_;
  std::string partition_;
  MetricSet m_;
  std::vector<std::string> failures_;
  long long check_failures_ = 0;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::map<int, double> elapsed_by_plan_;
  std::string ledger_path_;
};

void Bench::setup() {
  // Set-up is repeated and its median reported, so that a change that
  // moves work into set-up shows as a regression of setup_s. The
  // warm-up iteration runs the whole path once (the first SPMD run of a
  // process is much slower than the rest); it is verified like any
  // other iteration, but its timings are not sampled.
  const int reps = opts_.smoke ? 1 : 3;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    source_ = w_.source();
    DiagnosticEngine diags;
    dirs_ = core::Directives::extract(source_, diags);
    if (diags.has_errors()) {
      throw std::runtime_error("directive extraction: " + diags.dump());
    }
    dirs_.nprocs = kRanks;
    dirs_.partition.reset();  // the compiler's own partition choice
    attempt("warm-up iteration", [&] {
      const auto warm = iterate(i, nullptr, nullptr, nullptr);
      partition_ = warm.program->meta.spec.str();
    });
    m_.add("setup_s", seconds_since(t0));
  }
}

template <class Body>
void Bench::attempt(const char* what, Body&& body) {
  ++attempted_;
  const long long before = check_failures_;
  try {
    body();
  } catch (const std::exception& e) {
    fail(std::string(what) + " threw: " + e.what());
  }
  if (check_failures_ > before) ++failed_;
}

codegen::SpmdRunResult Bench::run_program(core::ParallelProgram& program,
                                          const std::string& fault_spec,
                                          interp::EngineKind engine,
                                          mp::EventSink* sink, bool profile,
                                          fault::FaultCounters* counters) {
  codegen::SpmdRunOptions ro;
  ro.engine = engine;
  ro.sink = sink;
  ro.profile = profile;
  std::optional<fault::FaultInjector> injector;
  if (!fault_spec.empty()) {
    injector.emplace(fault::FaultPlan::parse(fault_spec));
    ro.faults = &*injector;
    ro.recovery.enabled = true;
  }
  auto par = program.run(machine_, ro);
  if (counters != nullptr) {
    *counters = injector ? injector->counters() : fault::FaultCounters{};
  }
  return par;
}

IterationResult Bench::iterate(int iter, SpanLog* spans, obs::ObsContext* obs,
                               trace::TraceRecorder* recorder) {
  IterationResult r;
  r.plan = iter % w_.plans;
  r.fault_spec = w_.fault_spec(iter);
  const auto t0 = Clock::now();
  {
    MaybeSpan s(spans, "compile");
    const auto c0 = Clock::now();
    r.program = core::parallelize(source_, dirs_, sync::CombineStrategy::Min,
                                  obs);
    r.compile_s = seconds_since(c0);
  }
  {
    MaybeSpan s(spans, "reference");
    fortran::SourceFile seq_file;
    {
      MaybeSpan p(spans, "fortran.parse_source");
      const auto p0 = Clock::now();
      seq_file = fortran::parse_source(source_);
      r.parse_s = seconds_since(p0);
    }
    MaybeSpan q(spans, "codegen.run_sequential_timed");
    const auto q0 = Clock::now();
    r.seq = codegen::run_sequential_timed(seq_file, dirs_.status_arrays,
                                          machine_);
    r.reference_s = seconds_since(q0);
  }
  {
    MaybeSpan s(spans, "run");
    const double cpu0 = process_cpu_s();
    const auto w0 = Clock::now();
    r.par = run_program(*r.program, r.fault_spec,
                        interp::EngineKind::Bytecode, recorder,
                        recorder != nullptr, &r.faults);
    r.run_wall_s = seconds_since(w0);
    r.run_cpu_s = process_cpu_s() - cpu0;
  }
  {
    MaybeSpan s(spans, "verify");
    verify(r);
  }
  r.total_s = seconds_since(t0);
  return r;
}

/// The rank whose virtual clock is the run's elapsed time.
const mp::RankStats& slowest_rank(const std::vector<mp::RankStats>& ranks) {
  return *std::max_element(ranks.begin(), ranks.end(),
                           [](const mp::RankStats& a, const mp::RankStats& b) {
                             return a.total_time() < b.total_time();
                           });
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void Bench::verify(const IterationResult& r) {
  for (const auto& name : dirs_.status_arrays) {
    const auto sit = r.seq.arrays.find(name);
    const auto pit = r.par.gathered.find(name);
    if (sit == r.seq.arrays.end() || pit == r.par.gathered.end()) {
      fail("status array '" + name + "' missing from a result");
    } else if (!bit_equal(sit->second, pit->second)) {
      fail("status array '" + name + "' differs from the sequential reference");
    }
  }
  // Books balance: the slowest rank's compute + transfer + wait is the
  // elapsed time (comm_time = transfer + wait by definition).
  const auto& ranks = r.par.cluster.ranks;
  for (const auto& st : ranks) {
    if (st.recovery_time > st.wait_time) {
      fail("a rank's recovery time exceeds its wait time");
    }
  }
  const auto& slowest = slowest_rank(ranks);
  if (slowest.compute_time + slowest.comm_time != r.par.elapsed) {
    fail("slowest rank's compute + transfer + wait != virtual elapsed");
  }
  const auto [seen, fresh] = elapsed_by_plan_.emplace(r.plan, r.par.elapsed);
  if (!fresh && seen->second != r.par.elapsed) {
    fail("virtual elapsed changed between iterations of one run");
  }
  if (!r.fault_spec.empty()) {
    long long retransmits = 0, recovered = 0;
    for (const auto& st : ranks) {
      retransmits += st.retransmits;
      recovered += st.recovered;
    }
    const long long lost = r.faults.dropped + r.faults.corrupted;
    if (retransmits != lost || recovered > retransmits ||
        (lost > 0 && recovered == 0)) {
      fail("retransmits (" + std::to_string(retransmits) +
           ") do not cover the dropped + corrupted messages (" +
           std::to_string(lost) + ")");
    }
  }
}

/// Sync-site counts of the generated program, from the tag registry.
struct SiteCounts {
  long long allreduce = 0, halo = 0, pipeline = 0;
};

SiteCounts count_sites(const codegen::SpmdMeta& meta) {
  SiteCounts c;
  for (const auto& site : meta.tags.sites()) {
    switch (site.kind) {
      case sync::CommSite::Kind::Collective: ++c.allreduce; break;
      case sync::CommSite::Kind::Halo: ++c.halo; break;
      case sync::CommSite::Kind::Pipeline: ++c.pipeline; break;
    }
  }
  return c;
}

void Bench::record_layers(const IterationResult& r, bool first_cycle,
                          SpanLog& spans, int iter_span,
                          const obs::ObsContext& obs,
                          const trace::TraceRecorder& recorder) {
  // Virtual times and counts repeat for a fault plan: sampled once per
  // plan (see Bench::main).
  const auto exact = [&](const char* name, double value) {
    if (first_cycle) m_.add(name, value);
  };
  const auto& rep = r.program->report;
  const auto phase = [&](const char* name) {
    const auto* p = obs.profiler.find(name);
    return p != nullptr ? p->wall_s : 0.0;
  };
  m_.add("fortran.parse_s", r.parse_s);
  m_.add("core.phase.classify_s", phase("classify"));
  m_.add("core.phase.depend_s", phase("depend"));
  m_.add("core.phase.restructure_s", phase("restructure"));
  m_.add("core.phase.print_s", phase("print"));
  exact("ir.field_loops", rep.field_loops);
  exact("depend.pairs", rep.dependence_pairs);
  exact("depend.mirror_image_loops", rep.mirror_image_loops);
  exact("depend.pipelined_loops", rep.pipelined_loops);
  exact("sync.points_before", rep.syncs_before);
  exact("sync.points_after", rep.syncs_after);
  const auto sites = count_sites(r.program->meta);
  exact("codegen.allreduce_sites", static_cast<double>(sites.allreduce));
  exact("codegen.halo_sites", static_cast<double>(sites.halo));
  exact("codegen.pipeline_sites", static_cast<double>(sites.pipeline));
  exact("codegen.spmd_source_bytes",
        static_cast<double>(r.program->parallel_source.size()));

  m_.add("interp.reference_s", r.reference_s);
  exact("interp.reference_flops", r.seq.flops);
  m_.add("interp.flops_per_s",
         r.reference_s > 0.0 ? r.seq.flops / r.reference_s : 0.0);
  exact("interp.flop_ratio",
        r.seq.flops > 0.0 ? r.par.total_flops / r.seq.flops : 0.0);
  const auto& es = r.par.engine_stats;
  exact("interp.kernels_compiled",
        static_cast<double>(es.kernels_compiled + es.stmts_compiled));
  exact("interp.kernel_cache_hits", static_cast<double>(es.cache_hits));

  // mp: virtual-time split of the slowest rank, counts over all ranks.
  const auto& ranks = r.par.cluster.ranks;
  const auto& slowest = slowest_rank(ranks);
  double sum_total = 0.0;
  long long messages = 0, bytes = 0, collectives = 0, retransmits = 0,
            recovered = 0;
  for (const auto& st : ranks) {
    sum_total += st.total_time();
    messages += st.messages_sent;
    bytes += st.bytes_sent;
    collectives += st.collectives;
    retransmits += st.retransmits;
    recovered += st.recovered;
  }
  exact("mp.compute_s", slowest.compute_time);
  exact("mp.transfer_s", slowest.comm_time - slowest.wait_time);
  exact("mp.wait_s", slowest.wait_time);
  exact("mp.recovery_s", slowest.recovery_time);
  exact("mp.imbalance",
        sum_total > 0.0 ? slowest.total_time() /
                              (sum_total / static_cast<double>(ranks.size()))
                        : 1.0);
  exact("mp.messages", static_cast<double>(messages));
  exact("mp.bytes", static_cast<double>(bytes));
  exact("mp.collectives", static_cast<double>(collectives));
  exact("mp.retransmits", static_cast<double>(retransmits));
  exact("mp.recovered", static_cast<double>(recovered));
  m_.add("mp.run_wall_s", r.run_wall_s);
  m_.add("mp.host_parallelism",
         r.run_wall_s > 0.0 ? r.run_cpu_s / r.run_wall_s : 0.0);
  exact("fault.dropped", static_cast<double>(r.faults.dropped));
  exact("fault.corrupted", static_cast<double>(r.faults.corrupted));
  exact("fault.delayed", static_cast<double>(r.faults.delayed));

  const auto& trace = recorder.trace();
  long long empty = 0;
  for (const auto& events : trace.per_rank) {
    for (const auto& e : events) {
      if (e.kind == mp::EventKind::Send && e.bytes == 0) empty += e.n_messages;
    }
  }
  exact("mp.empty_messages", static_cast<double>(empty));

  m_.add("span.iteration.self_s", spans.self_time(iter_span));
  for (const auto& s : spans.spans()) {
    if (s.parent != iter_span) continue;
    m_.add("span." + s.name + ".self_s", spans.self_time(s.id));
  }

  // Layers the iteration does not call, each timed on its own.
  {
    SpanLog::Scope s(spans, "trace.critical_path");
    const auto path = trace::critical_path(trace);
    std::map<int, double> by_site;  // wire tag or collective site
    for (const auto& step : path.steps) {
      const auto* e = step.event;
      if (e == nullptr || e->kind == mp::EventKind::Compute) continue;
      const int site = e->kind == mp::EventKind::AllReduce ||
                               e->kind == mp::EventKind::Barrier
                           ? e->site
                           : e->tag;
      by_site[site] += step.contribution + step.edge;
    }
    double top = 0.0;
    for (const auto& [site, t] : by_site) top = std::max(top, t);
    const double len = path.length > 0.0 ? path.length : 1.0;
    exact("trace.critical_compute_share", path.compute / len);
    exact("trace.critical_comm_share",
          (path.transfer + path.collective) / len);
    exact("trace.top_site_share", top / len);
  }
  {
    SpanLog::Scope s(spans, "core.analyze_only");
    const auto a0 = Clock::now();
    (void)core::analyze_only(source_, dirs_);
    m_.add("core.analyze_s", seconds_since(a0));
  }
  {
    SpanLog::Scope s(spans, "partition.find_best_partition");
    const auto halo = partition::HaloWidths::uniform(dirs_.grid.rank(), 1);
    const auto p0 = Clock::now();
    const auto spec = partition::find_best_partition(dirs_.grid, kRanks, halo);
    m_.add("partition.search_s", seconds_since(p0));
    if (spec.str() != partition_) {
      fail("find_best_partition chose " + spec.str() +
           " but the compiled program uses " + partition_);
    }
    exact("partition.max_comm_points",
          static_cast<double>(partition::max_comm_points(
              partition::BlockPartition(dirs_.grid, r.program->meta.spec),
              halo)));
  }
  {
    // Profiling overhead: the same traced run with the profile hooks
    // off, compared in process CPU time (steadier than wall time).
    SpanLog::Scope s(spans, "run.unprofiled");
    trace::TraceRecorder plain;
    const double cpu0 = process_cpu_s();
    const auto unprofiled =
        run_program(*r.program, r.fault_spec, interp::EngineKind::Bytecode,
                    &plain, false, nullptr);
    m_.add("prof.profile_overhead_s",
           r.run_cpu_s - (process_cpu_s() - cpu0));
    if (unprofiled.elapsed != r.par.elapsed) {
      fail("profiling changed the virtual elapsed time");
    }
  }
  prof::ReportOptions ropts;
  ropts.title = w_.name;
  ropts.engine = "bytecode";
  ropts.seq_elapsed_s = r.seq.elapsed;
  ropts.recovery_enabled = !r.fault_spec.empty();
  std::optional<prof::RunReport> report;
  {
    SpanLog::Scope s(spans, "prof.report");
    const auto p0 = Clock::now();
    report = prof::build_run_report(*r.program, r.par, trace, &obs.provenance,
                                    ropts);
    std::ostringstream os;
    prof::write_report_json(*report, os);
    m_.add("prof.report_s", seconds_since(p0));
  }
  {
    SpanLog::Scope s(spans, "ledger.append");
    ledger::RunMeta meta;
    meta.kind = "run";
    meta.input = w_.name;
    meta.machine = "pentium_ethernet_1999";
    meta.source = source_;
    meta.seed = r.fault_spec.empty()
                    ? 0
                    : static_cast<long long>(w_.seed_base) + r.plan;
    const auto l0 = Clock::now();
    const auto rec = ledger::make_run_record(meta, &*report, &obs);
    if (const auto err = ledger::append_record(ledger_path_, rec)) {
      fail("ledger append: " + *err);
    }
    m_.add("ledger.append_s", seconds_since(l0));
  }
  {
    SpanLog::Scope s(spans, "plan.make_plan");
    plan::PlannerOptions popts;
    popts.source = source_;
    popts.directives = dirs_;
    popts.machine = machine_;
    if (!r.fault_spec.empty()) {
      popts.faults = fault::FaultPlan::parse(r.fault_spec);
    }
    const auto p0 = Clock::now();
    const auto planned =
        plan::make_plan(plan::plan_input_from_report(*report), popts);
    m_.add("plan.make_plan_s", seconds_since(p0));
    exact("plan.static_regret", planned.predicted_s > 0.0
                                    ? planned.static_predicted_s /
                                          planned.predicted_s
                                    : 1.0);
  }
}

void Bench::engine_differential(const IterationResult& bytecode) {
  // The tree-walker is the retained oracle: the same program, plan and
  // faults must give identical arrays, virtual time and traffic.
  fault::FaultCounters faults;
  const auto tree =
      run_program(*bytecode.program, bytecode.fault_spec,
                  interp::EngineKind::Tree, nullptr, false, &faults);
  for (const auto& [name, data] : bytecode.par.gathered) {
    const auto it = tree.gathered.find(name);
    if (it == tree.gathered.end() || !bit_equal(data, it->second)) {
      fail("engine differential: status array '" + name +
           "' differs between the bytecode and tree engines");
    }
  }
  if (tree.elapsed != bytecode.par.elapsed) {
    fail("engine differential: virtual elapsed differs between engines");
  }
  const auto& a = bytecode.par.cluster.ranks;
  const auto& b = tree.cluster.ranks;
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].compute_time == b[i].compute_time &&
           a[i].comm_time == b[i].comm_time &&
           a[i].wait_time == b[i].wait_time &&
           a[i].recovery_time == b[i].recovery_time &&
           a[i].messages_sent == b[i].messages_sent &&
           a[i].bytes_sent == b[i].bytes_sent &&
           a[i].messages_received == b[i].messages_received &&
           a[i].bytes_received == b[i].bytes_received &&
           a[i].collectives == b[i].collectives &&
           a[i].retransmits == b[i].retransmits &&
           a[i].recovered == b[i].recovered;
  }
  if (!same || faults.dropped != bytecode.faults.dropped ||
      faults.corrupted != bytecode.faults.corrupted ||
      faults.delayed != bytecode.faults.delayed) {
    fail("engine differential: per-rank mp counts differ between engines");
  }
}

// Written to the results file only: failed_ratio is 0 on a healthy
// run, and a printed metric must never be 0, so the printed result
// carries verified_ratio instead.
const MetricDef kReportOnly[] = {
    {"failed_ratio", "fraction", "lower"},
};

std::string str_field(const char* key, const std::string& value) {
  return std::string("\"") + key + "\": \"" + obs::json_escape(value) + "\"";
}

void Bench::write_results() {
  const auto path = std::filesystem::path(opts_.out_dir) /
                    (w_.name + (opts_.trace ? ".trace.json" : ".json"));
  std::ofstream os(path);
  os << "{\n  " << str_field("workload", w_.name) << ",\n  "
     << "\"seed\": " << opts_.seed << ",\n  "
     << "\"trace\": " << (opts_.trace ? "true" : "false") << ",\n  "
     << "\"smoke\": " << (opts_.smoke ? "true" : "false") << ",\n  "
     << str_field("grid", w_.grid) << ",\n  "
     << "\"frames\": " << w_.frames << ",\n  "
     << "\"nranks\": " << kRanks << ",\n  "
     << str_field("partition", partition_) << ",\n  "
     << str_field("fault_plan", w_.plans_desc()) << ",\n  "
     << str_field("recovery", w_.faults.empty()
                                  ? std::string()
                                  : mp::RecoveryConfig{.enabled = true}.str())
     << ",\n  " << str_field("engine", "bytecode") << ",\n  "
     << "\"attempted\": " << attempted_ << ",\n  "
     << "\"failed\": " << failed_ << ",\n  \"check_failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << '"' << obs::json_escape(failures_[i]) << '"';
  }
  os << "],\n  \"metrics\": {";
  bool first = true;
  using Table = std::span<const MetricDef>;
  for (const Table table :
       {Table(kEndToEnd), Table(kReportOnly), Table(kPerLayer)}) {
    for (const auto& d : table) {
      const auto* samples = m_.find(d.name);
      if (samples == nullptr) continue;
      const auto s = summarize(*samples);
      os << (first ? "\n    " : ",\n    ") << '"' << d.name
         << "\": {\"unit\": \"" << d.unit << "\", \"better\": \"" << d.better
         << "\", \"median\": " << obs::json_number(s.median)
         << ", \"q1\": " << obs::json_number(s.q1)
         << ", \"q3\": " << obs::json_number(s.q3) << ", \"n\": " << s.n
         << "}";
      first = false;
    }
  }
  os << "\n  }\n}\n";
  os.flush();
  if (!os) fail("cannot write " + path.string());
}

void Bench::write_spans(const SpanLog& spans) {
  const auto path =
      std::filesystem::path(opts_.out_dir) / (w_.name + ".spans.json");
  std::ofstream os(path);
  // Median self time per span name, then every span.
  std::map<std::string, std::vector<double>> self;
  for (const auto& s : spans.spans()) {
    self[s.name].push_back(spans.self_time(s.id));
  }
  os << "{\n  " << str_field("workload", w_.name)
     << ",\n  \"self_time_s\": {";
  bool first = true;
  for (const auto& [name, v] : self) {
    const auto sm = summarize(v);
    os << (first ? "\n    " : ",\n    ") << '"' << obs::json_escape(name)
       << "\": {\"median\": " << obs::json_number(sm.median)
       << ", \"n\": " << sm.n << "}";
    first = false;
  }
  os << "\n  },\n  \"spans\": [";
  first = true;
  for (const auto& s : spans.spans()) {
    os << (first ? "\n    " : ",\n    ") << "{\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"iteration\": " << s.iteration
       << ", " << str_field("name", s.name)
       << ", \"start_s\": " << obs::json_number(s.start_s)
       << ", \"end_s\": " << obs::json_number(s.end_s)
       << ", \"self_s\": " << obs::json_number(spans.self_time(s.id)) << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
  os.flush();
  if (!os) fail("cannot write " + path.string());
}

int Bench::main() {
  std::filesystem::create_directories(opts_.out_dir);
  ledger_path_ =
      (std::filesystem::path(opts_.out_dir) / (w_.name + ".ledger.jsonl"))
          .string();
  std::filesystem::remove(ledger_path_);
  setup();

  // Host timings are sampled from every iteration. Virtual times and
  // counts repeat for a given fault plan, so they are sampled once per
  // plan, from the first cycle through the plans: a lossy run's
  // medians then weigh every plan the same, whatever the iteration
  // count.
  const int min_iterations = std::max(opts_.smoke ? 1 : 3, w_.plans);
  const auto t_start = Clock::now();
  SpanLog spans;
  std::optional<IterationResult> last_traced;
  for (int iter = 0;
       iter < min_iterations || seconds_since(t_start) < opts_.seconds;
       ++iter) {
    const bool first_cycle = iter < w_.plans;
    double untraced_s = -1.0;
    attempt("iteration", [&] {
      const auto r = iterate(iter, nullptr, nullptr, nullptr);
      if (first_cycle) {
        m_.add("virtual_elapsed_s", r.par.elapsed);
        m_.add("speedup", r.seq.elapsed / r.par.elapsed);
      }
      m_.add("compile_s", r.compile_s);
      m_.add("run_cpu_s", r.run_cpu_s);
      m_.add("time_to_verified_s", r.total_s);
      untraced_s = r.total_s;
      // More compile samples at little cost: compile_s is short and
      // noisy, and an iteration is long.
      for (int k = 0; k < kExtraCompiles; ++k) {
        const auto c0 = Clock::now();
        (void)core::parallelize(source_, dirs_);
        m_.add("compile_s", seconds_since(c0));
      }
    });
    if (!opts_.trace) continue;

    // Traced iteration: spans around every call plus the layer counts.
    attempt("traced iteration", [&] {
      obs::ObsContext obs;
      trace::TraceRecorder recorder;
      spans.set_iteration(iter);
      IterationResult r;
      int id = -1;
      {
        SpanLog::Scope s(spans, "iteration");
        id = s.id();
        r = iterate(iter, &spans, &obs, &recorder);
      }
      // Tracing overhead, paired with the untraced iteration just run.
      if (untraced_s >= 0.0) {
        m_.add("trace.overhead_s", spans.duration(id) - untraced_s);
      }
      record_layers(r, first_cycle, spans, id, obs, recorder);
      last_traced = std::move(r);
    });
  }
  if (opts_.trace) {
    attempt("engine differential", [&] {
      if (!last_traced) throw std::runtime_error("no traced iteration ran");
      spans.set_iteration(-1);
      SpanLog::Scope s(spans, "engine_differential");
      engine_differential(*last_traced);
    });
    write_spans(spans);
  }
  m_.add("peak_rss_mb", peak_rss_mb());
  const double failed_ratio =
      static_cast<double>(failed_) / static_cast<double>(attempted_);
  m_.add("failed_ratio", failed_ratio);
  m_.add("verified_ratio", 1.0 - failed_ratio);
  write_results();

  // Human-readable summary, then the result object as the last line.
  const std::span<const MetricDef> printed =
      opts_.trace ? std::span<const MetricDef>(kPerLayer)
                  : std::span<const MetricDef>(kEndToEnd);
  std::printf("acfd_bench %s: grid %s, %d frame(s), partition %s%s%s\n",
              w_.name.c_str(), w_.grid.c_str(), w_.frames, partition_.c_str(),
              w_.faults.empty() ? "" : ", faults ",
              w_.plans_desc().c_str());
  std::ostringstream metrics;
  for (const auto& d : printed) {
    const auto* samples = m_.find(d.name);
    if (samples == nullptr || samples->empty()) {
      fail(std::string("metric ") + d.name + " has no sample");
      continue;
    }
    const auto s = summarize(*samples);
    std::printf("  %-30s %14.6g %-9s q1 %-12.6g q3 %-12.6g n=%zu\n", d.name,
                s.median, d.unit, s.q1, s.q3, s.n);
    metrics << (metrics.tellp() == 0 ? "" : ", ") << '"' << d.name
            << "\": {\"value\": " << obs::json_number(s.median)
            << ", \"unit\": \"" << d.unit << "\"}";
  }
  const bool correct = check_failures_ == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted_, failed_, metrics.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto opts = parse_args(argc, argv);
    Bench bench(opts, make_workload(opts));
    return bench.main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acfd_bench: error: %s\n", e.what());
    return 2;
  }
}
