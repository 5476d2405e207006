#include "autocfd/codegen/spmd_runtime.hpp"

#include <cstring>
#include <string>

#include "autocfd/codegen/comm_schedule.hpp"
#include "autocfd/partition/grid.hpp"

namespace autocfd::codegen {

using fortran::Stmt;
using fortran::StmtKind;
using interp::ArrayValue;
using interp::Env;
using partition::BlockPartition;

namespace {

/// Per-rank execution context implementing the extension statements.
struct RankRuntime {
  mp::Comm* comm;
  const SpmdMeta* meta;
  const BlockPartition* part;
  const interp::ProgramImage* image;
  interp::Interpreter* interp = nullptr;
  Env* env;
  double mem_factor = 1.0;
  double flop_time = 0.0;
  double last_flops = 0.0;

  void flush_compute() {
    const double f = interp->flops();
    const double delta = f - last_flops;
    last_flops = f;
    if (delta > 0.0) comm->add_compute(delta * flop_time * mem_factor);
  }

  ArrayValue& array(const std::string& name) {
    // Status arrays live in common storage: the global key resolves
    // regardless of unit.
    const int slot = image->find_array_slot(name);
    if (slot < 0) {
      throw autocfd::CompileError("status array '" + name +
                                  "' not found at run time");
    }
    return env->arrays[static_cast<std::size_t>(slot)];
  }

  /// Packs every slab of `m` and sends it as m.lines wire messages.
  void send(const Stmt& s, int dim, int tag, const Message& m) {
    std::vector<double> outbox;
    outbox.reserve(static_cast<std::size_t>(m.elements));
    for (const auto& slab : m.slabs) {
      pack_slab(array(s.halo_arrays[slab.array].array), dim, slab.lo,
                slab.hi, outbox);
    }
    comm->send_chunked(m.peer, tag, std::move(outbox), m.lines);
  }

  /// Receives `m` and unpacks it into the ghost layers of its slabs.
  void receive(const Stmt& s, int dim, int tag, const Message& m) {
    const auto inbox = comm->recv(m.peer, tag);
    std::size_t pos = 0;
    for (const auto& slab : m.slabs) {
      unpack_slab(array(s.halo_arrays[slab.array].array), dim, slab.lo,
                  slab.hi, inbox, pos);
    }
    if (pos != inbox.size()) {
      throw autocfd::CompileError("halo exchange size mismatch");
    }
  }

  /// One aggregated halo exchange (a combined synchronization point).
  /// Dimensions are processed in ascending order so corner ghosts fill
  /// transitively. Within a dimension the exchange has two phases, the
  /// MPI_Isend/Irecv/Waitall idiom on buffered sends: first send to
  /// every neighbor that needs layers, then receive from every neighbor
  /// we need layers from. No rank waits on a chain of other pairs: a
  /// dimension costs each rank its own sends plus, at most, the wait
  /// for a neighbor's first send. The phases do not interfere: packing
  /// reads only owned layers of the dimension (the analysis rejects
  /// blocks thinner than a halo) and unpacking writes only its ghost
  /// layers.
  void halo_exchange(const Stmt& s) {
    flush_compute();
    for (int dim = 0; dim < meta->grid.rank(); ++dim) {
      const auto du = static_cast<std::size_t>(dim);
      // One tag per (sync point, dim), shared by both directions and
      // both peers; the restructurer registers it so traces can
      // attribute the message. Hand-built statements use the dimension.
      const int tag = du < s.comm_tags.size() && s.comm_tags[du] >= 0
                          ? s.comm_tags[du]
                          : dim;
      const auto msgs = halo_messages(s.halo_arrays, *part, meta->ghosts,
                                      comm->rank(), dim);
      for (const auto& m : msgs.sends) send(s, dim, tag, m);
      for (const auto& m : msgs.recvs) receive(s, dim, tag, m);
    }
  }

  void allreduce(const Stmt& s, Env& e) {
    flush_compute();
    const double v = e.scalar(s.slot);
    double r = 0.0;
    if (s.callee == "sum") {
      r = comm->allreduce_sum(v, s.sync_site);
    } else if (s.callee == "min") {
      r = -comm->allreduce_max(-v, s.sync_site);
    } else {
      r = comm->allreduce_max(v, s.sync_site);
    }
    e.set_scalar(s.slot, r);
  }

  /// Mirror-image pipelined sweep entry: receive the updated boundary
  /// from the upstream block (the flow half of the decomposition). The
  /// first block in the sweep starts immediately.
  void pipeline_start(const Stmt& s) {
    flush_compute();
    for (const auto& m : handoff(s).recvs) {
      receive(s, s.pipeline_dim, s.comm_tags.at(0), m);
    }
  }

  /// Pipelined sweep exit: send our updated boundary downstream, one
  /// wire message per grid line of the owned face (this is what makes
  /// the 4x1x1 aerofoil partition communication-bound, Table 2).
  void pipeline_end(const Stmt& s) {
    flush_compute();
    for (const auto& m : handoff(s).sends) {
      send(s, s.pipeline_dim, s.comm_tags.at(0), m);
    }
  }

  RankMessages handoff(const Stmt& s) const {
    return handoff_messages(s.halo_arrays, *part, meta->ghosts,
                            comm->rank(), s.pipeline_dim, s.pipeline_dir);
  }

  void on_extension(const Stmt& s, Env& e) {
    switch (s.kind) {
      case StmtKind::HaloExchange: halo_exchange(s); break;
      case StmtKind::AllReduce: allreduce(s, e); break;
      case StmtKind::PipelineStart: pipeline_start(s); break;
      case StmtKind::PipelineEnd: pipeline_end(s); break;
      case StmtKind::Barrier:
        flush_compute();
        comm->barrier(s.sync_site);
        break;
      default: break;
    }
  }
};

}  // namespace

namespace {

/// Shape of a slab as contiguous memory chunks. A slab fixes one
/// dimension to [d_lo, d_hi] and spans every other dimension fully, so
/// in column-major storage it is `nblocks` blocks of `chunk`
/// contiguous doubles, one block every `block_stride` elements — the
/// element order is exactly the old per-element column-major walk.
struct SlabChunks {
  std::size_t base = 0;          // linear index of the first element
  std::size_t chunk = 0;         // contiguous doubles per block
  std::size_t block_stride = 0;  // element distance between blocks
  std::size_t nblocks = 0;
  std::size_t total = 0;
};

SlabChunks slab_chunks(const ArrayValue& av, int dim, long long d_lo,
                       long long d_hi) {
  const int rank = av.rank();
  if (dim < 0 || dim >= rank) {
    throw autocfd::CompileError("slab dimension out of range");
  }
  // Bounds check with the exact message ArrayValue::index would give.
  {
    std::vector<long long> corner(static_cast<std::size_t>(rank));
    for (int d = 0; d < rank; ++d) {
      corner[static_cast<std::size_t>(d)] =
          d == dim ? d_lo : av.lower[static_cast<std::size_t>(d)];
    }
    (void)av.index(corner);
    corner[static_cast<std::size_t>(dim)] = d_hi;
    (void)av.index(corner);
  }
  SlabChunks s;
  const auto du = static_cast<std::size_t>(dim);
  std::size_t inner = 1;  // elements per unit step of `dim`
  for (std::size_t d = 0; d < du; ++d) {
    inner *= static_cast<std::size_t>(av.extent[d]);
  }
  const auto span = static_cast<std::size_t>(d_hi - d_lo + 1);
  s.base = static_cast<std::size_t>(d_lo - av.lower[du]) * inner;
  s.chunk = inner * span;
  s.block_stride = inner * static_cast<std::size_t>(av.extent[du]);
  s.nblocks = 1;
  for (std::size_t d = du + 1; d < static_cast<std::size_t>(rank); ++d) {
    s.nblocks *= static_cast<std::size_t>(av.extent[d]);
  }
  s.total = s.chunk * s.nblocks;
  return s;
}

}  // namespace

void pack_slab(const ArrayValue& av, int dim, long long d_lo, long long d_hi,
               std::vector<double>& out) {
  const SlabChunks s = slab_chunks(av, dim, d_lo, d_hi);
  std::size_t at = out.size();
  out.resize(at + s.total);
  const double* src = av.data.data() + s.base;
  for (std::size_t b = 0; b < s.nblocks; ++b) {
    std::memcpy(out.data() + at, src, s.chunk * sizeof(double));
    at += s.chunk;
    src += s.block_stride;
  }
}

void unpack_slab(ArrayValue& av, int dim, long long d_lo, long long d_hi,
                 const std::vector<double>& in, std::size_t& pos) {
  const SlabChunks s = slab_chunks(av, dim, d_lo, d_hi);
  if (pos + s.total > in.size()) {
    throw autocfd::CompileError("halo exchange size mismatch");
  }
  double* dst = av.data.data() + s.base;
  for (std::size_t b = 0; b < s.nblocks; ++b) {
    std::memcpy(dst, in.data() + pos, s.chunk * sizeof(double));
    pos += s.chunk;
    dst += s.block_stride;
  }
}

SpmdRunResult run_spmd(fortran::SourceFile& file, const SpmdMeta& meta,
                       const mp::MachineConfig& machine,
                       mp::EventSink* sink) {
  SpmdRunOptions options;
  options.sink = sink;
  return run_spmd(file, meta, machine, options);
}

SpmdRunResult run_spmd(fortran::SourceFile& file, const SpmdMeta& meta,
                       const mp::MachineConfig& machine,
                       const SpmdRunOptions& options) {
  DiagnosticEngine diags;
  auto image = interp::ProgramImage::build(file, diags);
  throw_if_errors(diags, "spmd image build");

  const BlockPartition part(meta.grid, meta.spec);
  const int nprocs = meta.spec.num_tasks();
  mp::Cluster cluster(nprocs, machine);
  cluster.set_event_sink(options.sink);
  cluster.set_fault_hook(options.faults);
  cluster.set_watchdog(options.watchdog);
  cluster.set_recovery(options.recovery);
  // Wire / collective ids are sync-plan site ids; resolving them
  // through the tag registry gives errors their source attribution.
  cluster.set_tag_labeler([&meta](int id) { return meta.tags.label(id); });

  std::vector<Env> envs;
  envs.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) envs.emplace_back(image);
  std::vector<std::vector<std::string>> outputs(
      static_cast<std::size_t>(nprocs));
  std::vector<double> flops(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<interp::bytecode::EngineStats> engine_stats(
      static_cast<std::size_t>(nprocs));
  std::vector<interp::StmtProfile> profiles(
      options.profile ? static_cast<std::size_t>(nprocs) : 0u);

  auto result_cluster = cluster.run([&](mp::Comm& comm) {
    const int r = comm.rank();
    Env& env = envs[static_cast<std::size_t>(r)];
    const auto& sg = part.subgrid(r);

    // Rank scalars drive the local array bounds and loop clamps.
    DiagnosticEngine rank_diags;
    for (int d = 0; d < meta.grid.rank(); ++d) {
      const auto du = static_cast<std::size_t>(d);
      const int lo_slot = image.scalar_slot("", SpmdMeta::lo_name(d));
      const int hi_slot = image.scalar_slot("", SpmdMeta::hi_name(d));
      if (lo_slot >= 0) env.set_scalar(lo_slot, static_cast<double>(sg.lo[du]));
      if (hi_slot >= 0) env.set_scalar(hi_slot, static_cast<double>(sg.hi[du]));
    }
    if (const int rs = image.scalar_slot("", "acfd_rank"); rs >= 0) {
      env.set_scalar(rs, static_cast<double>(r));
    }
    if (const int ns = image.scalar_slot("", "acfd_nprocs"); ns >= 0) {
      env.set_scalar(ns, static_cast<double>(nprocs));
    }
    env.allocate_arrays(image, rank_diags);
    throw_if_errors(rank_diags, "rank array allocation");

    RankRuntime rt;
    rt.comm = &comm;
    rt.meta = &meta;
    rt.part = &part;
    rt.image = &image;
    rt.env = &env;
    rt.flop_time = machine.flop_time;
    rt.mem_factor = machine.memory_factor(env.array_bytes());

    interp::Interpreter::Hooks hooks;
    hooks.on_extension = [&rt](const Stmt& s, Env& e) {
      rt.on_extension(s, e);
    };
    hooks.on_write = [&outputs, r](const std::string& line) {
      outputs[static_cast<std::size_t>(r)].push_back(line);
    };
    interp::Interpreter interp(image, hooks, options.engine);
    rt.interp = &interp;
    if (options.profile) {
      auto& prof = profiles[static_cast<std::size_t>(r)];
      prof.seconds_per_flop = rt.flop_time * rt.mem_factor;
      interp.set_profile(&prof);
    }
    interp.run(env);
    rt.flush_compute();
    flops[static_cast<std::size_t>(r)] = interp.flops();
    engine_stats[static_cast<std::size_t>(r)] = interp.engine_stats();
  });

  SpmdRunResult result;
  result.cluster = std::move(result_cluster);
  result.elapsed = result.cluster.elapsed();
  result.rank0_output = std::move(outputs[0]);
  for (const auto f : flops) result.total_flops += f;
  for (const auto& es : engine_stats) result.engine_stats += es;
  result.profiles = std::move(profiles);

  // Gather owned blocks into global arrays for validation.
  for (const auto& name : meta.status_arrays) {
    const auto git = meta.global_shapes.find(name);
    if (git == meta.global_shapes.end()) continue;
    const auto& shape = git->second;
    std::vector<double> global(
        static_cast<std::size_t>(shape.element_count()), 0.0);
    const int slot = image.find_array_slot(name);
    if (slot < 0) continue;
    for (int r = 0; r < nprocs; ++r) {
      const auto& sg = part.subgrid(r);
      const auto& av = envs[static_cast<std::size_t>(r)]
                           .arrays[static_cast<std::size_t>(slot)];
      if (!av.allocated()) continue;
      // Walk the owned region (global indices) of the local array.
      const int arank = av.rank();
      std::vector<long long> lo(static_cast<std::size_t>(arank));
      std::vector<long long> hi(static_cast<std::size_t>(arank));
      for (int d = 0; d < arank; ++d) {
        const auto du = static_cast<std::size_t>(d);
        if (d < meta.grid.rank()) {
          lo[du] = sg.lo[du];
          hi[du] = sg.hi[du];
        } else {
          lo[du] = av.lower[du];
          hi[du] = av.upper(d);
        }
      }
      std::vector<long long> idx = lo;
      while (true) {
        // Global linear index (column major over the global shape).
        long long gidx = 0;
        long long stride = 1;
        for (int d = 0; d < arank; ++d) {
          const auto du = static_cast<std::size_t>(d);
          gidx += (idx[du] - shape.dims[du].lower) * stride;
          stride *= shape.dims[du].extent();
        }
        global[static_cast<std::size_t>(gidx)] =
            av.data[static_cast<std::size_t>(av.index(idx))];
        int d = 0;
        while (d < arank) {
          const auto du = static_cast<std::size_t>(d);
          if (++idx[du] <= hi[du]) break;
          idx[du] = lo[du];
          ++d;
        }
        if (d == arank) break;
      }
    }
    result.gathered[name] = std::move(global);
  }
  return result;
}

SeqRunResult run_sequential_timed(fortran::SourceFile& file,
                                  const std::vector<std::string>& status_arrays,
                                  const mp::MachineConfig& machine,
                                  interp::EngineKind engine) {
  DiagnosticEngine diags;
  auto image = interp::ProgramImage::build(file, diags);
  throw_if_errors(diags, "sequential image build");
  Env env(image);
  env.allocate_arrays(image, diags);
  throw_if_errors(diags, "sequential allocation");
  interp::Interpreter interp(image, {}, engine);
  interp.run(env);

  SeqRunResult out;
  out.flops = interp.flops();
  out.engine_stats = interp.engine_stats();
  out.elapsed =
      out.flops * machine.flop_time * machine.memory_factor(env.array_bytes());
  out.output = interp.output();
  for (const auto& name : status_arrays) {
    const int slot = image.find_array_slot(name);
    if (slot < 0) continue;
    out.arrays[name] = env.arrays[static_cast<std::size_t>(slot)].data;
  }
  return out;
}

std::optional<std::string> first_mismatch(const ArrayMap& expected,
                                          const ArrayMap& actual) {
  for (const auto& [name, want] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) return name + ": missing from the second result";
    const auto& got = it->second;
    if (got.size() != want.size()) {
      return name + ": " + std::to_string(want.size()) + " vs " +
             std::to_string(got.size()) + " elements";
    }
    if (want.empty() ||
        std::memcmp(want.data(), got.data(), want.size() * sizeof(double)) ==
            0) {
      continue;
    }
    std::size_t i = 0;
    while (std::memcmp(&want[i], &got[i], sizeof(double)) == 0) ++i;
    return name + "[" + std::to_string(i) + "] differs";
  }
  for (const auto& entry : actual) {
    if (!expected.contains(entry.first)) {
      return entry.first + ": missing from the first result";
    }
  }
  return std::nullopt;
}

}  // namespace autocfd::codegen
