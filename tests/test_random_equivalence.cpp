// Property sweep: randomized stencil programs must execute identically
// in SPMD form and sequentially, for every partition.
//
// Each seed generates a frame program over a handful of status arrays
// with random stencil offsets (distances 1-2, any direction mix,
// including self-dependent loops), random loop counts and random
// boundary sections. Some stencils sum through a loop-private
// accumulator; some phases end in a true max or sum reduction whose
// result is printed. The pre-compiler output runs on 1-6 simulated
// ranks and must match the sequential interpreter bitwise, and must
// communicate exactly the true reductions: one AllReduce each, none
// for a private accumulator.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::core {
namespace {

struct GeneratedProgram {
  std::string source;
  std::vector<std::string> arrays;
  int true_reductions = 0;  // max/sum nests whose result is printed
};

GeneratedProgram generate(unsigned seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  // Scalar features draw from their own stream so the stencils of a
  // seed stay the same with or without them.
  std::mt19937 scalar_rng(seed + 7919u);
  const auto scalar_pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(scalar_rng);
  };

  const int n_arrays = pick(2, 4);
  std::vector<std::string> arrays;
  for (int a = 0; a < n_arrays; ++a) arrays.push_back("q" + std::to_string(a));

  std::ostringstream os;
  os << "!$acfd grid 14 11\n!$acfd status";
  for (const auto& a : arrays) os << ' ' << a;
  os << "\nprogram rnd\nparameter (n = 14, m = 11)\n";
  for (const auto& a : arrays) os << "real " << a << "(n, m)\n";
  os << "real acc, smax, scnt\n";
  os << "integer i, j, it\n";

  // Initialization.
  os << "do i = 1, n\n  do j = 1, m\n";
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    os << "    " << arrays[a] << "(i, j) = 0.01 * " << (a + 1)
       << " * (i + 2 * j)\n";
  }
  os << "  end do\nend do\n";

  // Frame loop with random update phases.
  GeneratedProgram out;
  os << "do it = 1, 3\n";
  const int n_loops = pick(3, 6);
  for (int l = 0; l < n_loops; ++l) {
    const auto& dst = arrays[static_cast<std::size_t>(
        pick(0, n_arrays - 1))];
    const int kind = pick(0, 5);
    if (kind == 0) {
      // Boundary section (fixed row write).
      const int row = pick(1, 2) == 1 ? 1 : 14;
      os << "  do j = 1, m\n    " << dst << "(" << row
         << ", j) = 0.5\n  end do\n";
      continue;
    }
    // Stencil update over the interior (margin 2 covers distance 2).
    std::vector<std::string> terms;
    const int n_terms = pick(1, 3);
    for (int t = 0; t < n_terms; ++t) {
      const auto& src = arrays[static_cast<std::size_t>(
          pick(0, n_arrays - 1))];
      int di = pick(-2, 2);
      int dj = pick(-2, 2);
      // Diagonal *self*-reads are outside the mirror-image method (the
      // pre-compiler rejects them); keep self-dependences axis-aligned
      // as in the paper's Figure 3 stencils.
      if (src == dst && di != 0 && dj != 0) {
        (pick(0, 1) == 0 ? di : dj) = 0;
      }
      std::ostringstream term;
      term << "0.05 * " << src << "(i";
      if (di > 0) term << " + " << di;
      if (di < 0) term << " - " << -di;
      term << ", j";
      if (dj > 0) term << " + " << dj;
      if (dj < 0) term << " - " << -dj;
      term << ")";
      terms.push_back(term.str());
    }
    os << "  do i = 3, n - 2\n    do j = 3, m - 2\n";
    if (scalar_pick(0, 1) == 0) {
      os << "      " << dst << "(i, j) = 0.6 * " << dst << "(i, j)";
      for (const auto& t : terms) os << " &\n        + " << t;
      os << "\n";
    } else {
      // The same update through a per-point accumulator killed at the
      // top of every iteration: private, so it needs no communication.
      os << "      acc = 0.0\n";
      for (const auto& t : terms) os << "      acc = acc + " << t << "\n";
      os << "      " << dst << "(i, j) = 0.6 * " << dst << "(i, j) + acc\n";
    }
    os << "    end do\n  end do\n";

    // Now and then a true reduction over the field, printed after its
    // nest. Both are exact in any order, so every rank count prints the
    // sequential value.
    const auto& probe = arrays[static_cast<std::size_t>(
        scalar_pick(0, n_arrays - 1))];
    switch (scalar_pick(0, 2)) {
      case 0:
        os << "  smax = 0.0\n  do i = 1, n\n    do j = 1, m\n"
           << "      smax = max(smax, abs(" << probe << "(i, j)))\n"
           << "    end do\n  end do\n  write(6, *) smax\n";
        ++out.true_reductions;
        break;
      case 1:
        os << "  scnt = 0.0\n  do i = 1, n\n    do j = 1, m\n"
           << "      if (" << probe << "(i, j) .gt. 0.2) then\n"
           << "        scnt = scnt + 1.0\n      end if\n"
           << "    end do\n  end do\n  write(6, *) scnt\n";
        ++out.true_reductions;
        break;
      default:
        break;
    }
  }
  os << "end do\nend\n";
  out.source = os.str();
  out.arrays = std::move(arrays);
  return out;
}

std::size_t count_allreduces(const std::string& src) {
  std::size_t count = 0, pos = 0;
  while ((pos = src.find("call mpi_allreduce(", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  return count;
}

class RandomEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomEquivalence, SpmdMatchesSequentialBitwise) {
  const auto prog = generate(GetParam());
  SCOPED_TRACE(prog.source);

  auto seq_file = fortran::parse_source(prog.source);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  const auto seq =
      codegen::run_sequential_timed(seq_file, prog.arrays, machine);

  for (const auto* part : {"2x1", "1x2", "3x1", "2x2", "3x2"}) {
    DiagnosticEngine diags;
    auto dirs = Directives::extract(prog.source, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.dump();
    dirs.partition = partition::PartitionSpec::parse(part);
    auto parallel = parallelize(prog.source, dirs);
    // Necessary and sufficient communication for the scalars: one
    // AllReduce per true reduction, none per private accumulator.
    EXPECT_EQ(count_allreduces(parallel->parallel_source),
              static_cast<std::size_t>(prog.true_reductions))
        << "partition " << part;
    auto par = parallel->run(machine);
    EXPECT_EQ(par.rank0_output, seq.output) << "partition " << part;
    for (const auto& name : prog.arrays) {
      const auto& s = seq.arrays.at(name);
      const auto& g = par.gathered.at(name);
      ASSERT_EQ(s.size(), g.size());
      for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_EQ(s[i], g[i])
            << name << "[" << i << "] partition " << part << " seed "
            << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalence,
                         ::testing::Range(1u, 21u));

// --- Engine cross-product ---------------------------------------------------

void expect_traces_identical(const trace::Trace& a, const trace::Trace& b) {
  ASSERT_EQ(a.nranks, b.nranks);
  ASSERT_EQ(a.per_rank.size(), b.per_rank.size());
  for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
    ASSERT_EQ(a.per_rank[r].size(), b.per_rank[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < a.per_rank[r].size(); ++i) {
      const auto& ea = a.per_rank[r][i];
      const auto& eb = b.per_rank[r][i];
      SCOPED_TRACE("rank " + std::to_string(r) + " event " +
                   std::to_string(i));
      EXPECT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind));
      EXPECT_EQ(ea.rank, eb.rank);
      EXPECT_EQ(ea.t0, eb.t0);
      EXPECT_EQ(ea.t1, eb.t1);
      EXPECT_EQ(ea.peer, eb.peer);
      EXPECT_EQ(ea.tag, eb.tag);
      EXPECT_EQ(ea.bytes, eb.bytes);
      EXPECT_EQ(ea.n_messages, eb.n_messages);
      EXPECT_EQ(ea.msg_id, eb.msg_id);
      EXPECT_EQ(ea.arrival, eb.arrival);
      EXPECT_EQ(ea.wait, eb.wait);
      EXPECT_EQ(ea.recovery, eb.recovery);
      EXPECT_EQ(ea.attempts, eb.attempts);
      EXPECT_EQ(ea.fifo_skip, eb.fifo_skip);
      EXPECT_EQ(ea.coll_seq, eb.coll_seq);
      EXPECT_EQ(ea.site, eb.site);
    }
  }
  EXPECT_EQ(a.unreceived.size(), b.unreceived.size());
}

/// The bytecode engine must be observationally indistinguishable from
/// the tree-walker: same scalars, same arrays, same flop counts (hence
/// same virtual clocks, hence the same trace event stream) — clean and
/// under a timing-only fault plan.
class EngineEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineEquivalence, BytecodeMatchesTreeBitwise) {
  const auto prog = generate(GetParam());
  SCOPED_TRACE(prog.source);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();

  // Sequential: the complete final environment must agree bitwise.
  const auto tree = interp::run_sequential(prog.source,
                                           interp::EngineKind::Tree);
  const auto byte_ = interp::run_sequential(prog.source,
                                            interp::EngineKind::Bytecode);
  EXPECT_EQ(tree->flops, byte_->flops);
  ASSERT_EQ(tree->env.scalars.size(), byte_->env.scalars.size());
  for (std::size_t i = 0; i < tree->env.scalars.size(); ++i) {
    ASSERT_EQ(tree->env.scalars[i], byte_->env.scalars[i]) << "scalar " << i;
  }
  ASSERT_EQ(tree->env.arrays.size(), byte_->env.arrays.size());
  for (std::size_t a = 0; a < tree->env.arrays.size(); ++a) {
    const auto& ta = tree->env.arrays[a].data;
    const auto& ba = byte_->env.arrays[a].data;
    ASSERT_EQ(ta.size(), ba.size()) << "array " << a;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta[i], ba[i]) << "array " << a << "[" << i << "]";
    }
  }

  // SPMD: gathered arrays and the full trace event stream must agree,
  // clean and under a timing-only chaos plan (which must not change
  // computed values on either engine).
  auto plan = fault::FaultPlan::parse("seed=11,jitter=0.5:0.03");
  ASSERT_TRUE(plan.timing_only());
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faulty" : "clean");
    std::map<std::string, std::vector<double>> gathered[2];
    trace::Trace traces[2];
    for (const auto engine :
         {interp::EngineKind::Tree, interp::EngineKind::Bytecode}) {
      DiagnosticEngine diags;
      auto dirs = Directives::extract(prog.source, diags);
      ASSERT_FALSE(diags.has_errors()) << diags.dump();
      dirs.partition = partition::PartitionSpec::parse("2x2");
      auto parallel = parallelize(prog.source, dirs);
      trace::TraceRecorder recorder;
      fault::FaultInjector injector(plan);
      codegen::SpmdRunOptions opts;
      opts.sink = &recorder;
      opts.faults = faulty ? &injector : nullptr;
      opts.engine = engine;
      auto par = parallel->run(machine, opts);
      const auto idx = engine == interp::EngineKind::Tree ? 0 : 1;
      gathered[idx] = std::move(par.gathered);
      traces[idx] = recorder.take();
      if (engine == interp::EngineKind::Bytecode) {
        EXPECT_GT(par.engine_stats.kernels_compiled, 0);
        EXPECT_GT(par.engine_stats.kernel_runs, 0);
      } else {
        EXPECT_EQ(par.engine_stats.kernel_runs, 0);
      }
    }
    for (const auto& name : prog.arrays) {
      const auto& t = gathered[0].at(name);
      const auto& b = gathered[1].at(name);
      ASSERT_EQ(t.size(), b.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t[i], b[i]) << name << "[" << i << "]";
      }
    }
    expect_traces_identical(traces[0], traces[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Range(1u, 9u));

// --- Recovery cross-product -------------------------------------------------

/// Reliable delivery under *data* faults must preserve every
/// equivalence the clean runs have: with a seeded drop+corruption plan
/// and recovery enabled, the run completes, results match the
/// sequential interpreter bitwise on both engines, the two engines
/// produce identical trace streams (including the retransmit markers
/// and recovery accounting), and a same-seed rerun reproduces the
/// trace event for event.
class RecoveryEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(RecoveryEquivalence, LossyRunsStayEquivalentAcrossEnginesAndReruns) {
  const auto prog = generate(GetParam());
  SCOPED_TRACE(prog.source);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();

  auto seq_file = fortran::parse_source(prog.source);
  const auto seq =
      codegen::run_sequential_timed(seq_file, prog.arrays, machine);

  const auto plan = fault::FaultPlan::parse(
      "seed=" + std::to_string(GetParam() * 31 + 7) +
      ",drop=0.06,corrupt=0.03");
  ASSERT_FALSE(plan.timing_only());

  struct Run {
    std::map<std::string, std::vector<double>> gathered;
    trace::Trace trace;
    long long retransmits = 0;
  };
  const auto run_once = [&](interp::EngineKind engine) {
    DiagnosticEngine diags;
    auto dirs = Directives::extract(prog.source, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    dirs.partition = partition::PartitionSpec::parse("2x2");
    auto parallel = parallelize(prog.source, dirs);
    trace::TraceRecorder recorder;
    fault::FaultInjector injector(plan);
    codegen::SpmdRunOptions opts;
    opts.sink = &recorder;
    opts.faults = &injector;
    opts.engine = engine;
    opts.recovery = mp::RecoveryConfig::parse("default");
    Run r;
    auto par = parallel->run(machine, opts);
    r.gathered = std::move(par.gathered);
    r.trace = recorder.take();
    for (const auto& st : par.cluster.ranks) r.retransmits += st.retransmits;
    return r;
  };

  const auto tree = run_once(interp::EngineKind::Tree);
  const auto byte_ = run_once(interp::EngineKind::Bytecode);
  const auto rerun = run_once(interp::EngineKind::Bytecode);

  // Both engines recover to the sequential results bitwise.
  const std::pair<const char*, const Run*> runs[] = {{"tree", &tree},
                                                     {"bytecode", &byte_}};
  for (const auto& [label, r] : runs) {
    for (const auto& name : prog.arrays) {
      const auto& s = seq.arrays.at(name);
      const auto& g = r->gathered.at(name);
      ASSERT_EQ(s.size(), g.size());
      for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_EQ(s[i], g[i]) << label << " " << name << "[" << i << "]";
      }
    }
  }

  // Engines are observationally indistinguishable under loss too.
  EXPECT_EQ(tree.retransmits, byte_.retransmits);
  expect_traces_identical(tree.trace, byte_.trace);
  // Same seed, same engine -> the identical stream of events.
  EXPECT_EQ(byte_.retransmits, rerun.retransmits);
  expect_traces_identical(byte_.trace, rerun.trace);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryEquivalence,
                         ::testing::Range(1u, 7u));

}  // namespace
}  // namespace autocfd::core
