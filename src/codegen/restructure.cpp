#include "autocfd/codegen/restructure.hpp"

#include <algorithm>

namespace autocfd::codegen {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::StmtList;
using partition::HaloWidths;

namespace {

fortran::ExprPtr lo_var(int dim) {
  return fortran::make_var(SpmdMeta::lo_name(dim));
}
fortran::ExprPtr hi_var(int dim) {
  return fortran::make_var(SpmdMeta::hi_name(dim));
}

fortran::ExprPtr make_max(fortran::ExprPtr a, fortran::ExprPtr b) {
  std::vector<fortran::ExprPtr> args;
  args.push_back(std::move(a));
  args.push_back(std::move(b));
  return fortran::make_intrinsic("max", std::move(args));
}
fortran::ExprPtr make_min(fortran::ExprPtr a, fortran::ExprPtr b) {
  std::vector<fortran::ExprPtr> args;
  args.push_back(std::move(a));
  args.push_back(std::move(b));
  return fortran::make_intrinsic("min", std::move(args));
}

/// acfd_lo<d> .le. e .and. e .le. acfd_hi<d>
fortran::ExprPtr ownership_test(int dim, const Expr& subscript) {
  auto lower = fortran::make_binary(fortran::BinOp::Le, lo_var(dim),
                                    subscript.clone());
  auto upper = fortran::make_binary(fortran::BinOp::Le, subscript.clone(),
                                    hi_var(dim));
  return fortran::make_binary(fortran::BinOp::And, std::move(lower),
                              std::move(upper));
}

struct Restructurer {
  const SpmdOptions* opts;
  const std::map<std::string, std::vector<ir::FieldLoop>>* loops_by_unit;
  DiagnosticEngine* diags;
  SpmdMeta* meta;
  bool warned_invariant_read = false;
  int reduction_ordinal = 0;
  int pipeline_ordinal = 0;

  /// Registers the wire tags of one aggregated halo exchange (one per
  /// cut grid dimension) and stamps them into the statement.
  void register_halo_tags(Stmt& halo, int point_ordinal) {
    const int rank = opts->grid.rank();
    halo.comm_tags.assign(static_cast<std::size_t>(rank), -1);
    std::string arrays;
    for (const auto& h : halo.halo_arrays) {
      if (!arrays.empty()) arrays += ",";
      arrays += h.array;
    }
    for (int d = 0; d < rank; ++d) {
      if (opts->spec.cuts[static_cast<std::size_t>(d)] <= 1) continue;
      sync::CommSite site;
      site.kind = sync::CommSite::Kind::Halo;
      site.ordinal = point_ordinal;
      site.dim = d;
      site.label = "halo#" + std::to_string(point_ordinal) + " dim" +
                   std::to_string(d) + " {" + arrays + "}";
      halo.comm_tags[static_cast<std::size_t>(d)] = meta->tags.add(site);
    }
  }

  // ---- ghost width computation -------------------------------------------

  void compute_ghosts(const depend::DependenceSet& deps,
                      const sync::SyncPlan& plan) {
    const int rank = opts->grid.rank();
    for (const auto& a : opts->field.status_arrays) {
      meta->ghosts[a] = HaloWidths::uniform(rank, 0);
    }
    const auto add = [&](const std::string& array, const HaloWidths& h) {
      auto it = meta->ghosts.find(array);
      if (it == meta->ghosts.end()) return;
      it->second = HaloWidths::merge(it->second, h);
    };
    for (const auto& p : deps.pairs) add(p.array, p.halo);
    for (const auto& r : plan.regions) add(r.pair->array, r.pair->halo);
    for (const auto& pp : plan.pipelines) {
      add(pp.plan.array, pp.plan.flow_halo);
      add(pp.plan.array, pp.plan.pre_halo);
    }
  }

  // ---- declarations --------------------------------------------------------

  void add_runtime_common(fortran::ProgramUnit& unit) {
    fortran::CommonBlock blk;
    blk.block_name = "acfdrt";
    for (int d = 0; d < opts->grid.rank(); ++d) {
      const auto lo = SpmdMeta::lo_name(d);
      const auto hi = SpmdMeta::hi_name(d);
      blk.vars.push_back(lo);
      blk.vars.push_back(hi);
      fortran::VarDecl decl;
      decl.type = fortran::TypeKind::Integer;
      decl.name = lo;
      unit.decls.push_back(decl.clone());
      decl.name = hi;
      unit.decls.push_back(std::move(decl));
    }
    blk.vars.push_back("acfd_rank");
    blk.vars.push_back("acfd_nprocs");
    fortran::VarDecl decl;
    decl.type = fortran::TypeKind::Integer;
    decl.name = "acfd_rank";
    unit.decls.push_back(decl.clone());
    decl.name = "acfd_nprocs";
    unit.decls.push_back(std::move(decl));
    unit.commons.push_back(std::move(blk));
  }

  void rewrite_array_decls(fortran::ProgramUnit& unit) {
    fortran::ConstEvaluator eval(unit);
    for (auto& d : unit.decls) {
      if (!d.is_array() || !opts->field.is_status(d.name)) continue;
      const int n_status =
          opts->field.status_dims(static_cast<int>(d.dims.size()));
      const auto& ghosts = meta->ghosts.at(d.name);
      // Record the global shape once (first declaring unit wins; the
      // GlobalSymbols pass already enforced consistency for commons).
      if (!meta->global_shapes.contains(d.name)) {
        fortran::ArrayShape shape;
        bool ok = true;
        for (const auto& dim : d.dims) {
          fortran::ArrayShape::Dim out;
          if (dim.lower) {
            const auto lo = eval.eval_int(*dim.lower);
            ok = ok && lo.has_value();
            if (lo) out.lower = *lo;
          }
          const auto hi = eval.eval_int(*dim.upper);
          ok = ok && hi.has_value();
          if (hi) out.upper = *hi;
          shape.dims.push_back(out);
        }
        if (ok) meta->global_shapes[d.name] = std::move(shape);
      }
      for (int dim = 0; dim < n_status; ++dim) {
        const auto du = static_cast<std::size_t>(dim);
        // The subset requires status dimensions indexed 1..N matching
        // the grid (checked here).
        if (d.dims[du].lower) {
          const auto lo = eval.eval_int(*d.dims[du].lower);
          if (!lo || *lo != 1) {
            diags->error(d.loc,
                         "status array '" + d.name +
                             "': status dimensions must start at 1");
            continue;
          }
        }
        const auto hi = eval.eval_int(*d.dims[du].upper);
        if (hi && *hi != opts->grid.extents[du]) {
          diags->error(d.loc, "status array '" + d.name + "' dimension " +
                                  std::to_string(dim + 1) +
                                  " does not match the grid extent");
        }
        // Uncut dimensions keep their original declaration (the whole
        // extent is local to every block).
        if (opts->spec.cuts[du] <= 1) continue;
        d.dims[du].lower = fortran::make_binary(
            fortran::BinOp::Sub, lo_var(dim),
            fortran::make_int(ghosts.lo[du]));
        d.dims[du].upper = fortran::make_binary(
            fortran::BinOp::Add, hi_var(dim),
            fortran::make_int(ghosts.hi[du]));
      }
    }
  }

  // ---- loop bounds and boundary guards ------------------------------------

  const ir::FieldLoop* field_loop_for(const fortran::ProgramUnit& unit,
                                      const Stmt& stmt) const {
    const auto it = loops_by_unit->find(unit.name);
    if (it == loops_by_unit->end()) return nullptr;
    for (const auto& fl : it->second) {
      if (fl.loop == &stmt) return &fl;
    }
    return nullptr;
  }

  void clamp_nest(Stmt& root, const ir::FieldLoop& fl) {
    clamp_do_bounds(root, fl);
    clamp_list(root.body, fl);
    clamp_list(root.else_body, fl);
  }

  void clamp_do_bounds(Stmt& stmt, const ir::FieldLoop& fl) {
    if (stmt.kind != StmtKind::Do) return;
    const auto it = fl.var_dims.find(stmt.do_var);
    if (it == fl.var_dims.end()) return;
    const int dim = it->second;
    const int dir =
        fl.var_dirs.count(stmt.do_var) ? fl.var_dirs.at(stmt.do_var) : +1;
    if (opts->spec.cuts[static_cast<std::size_t>(dim)] <= 1) return;
    if (dir >= 0) {
      stmt.lo = make_max(std::move(stmt.lo), lo_var(dim));
      stmt.hi = make_min(std::move(stmt.hi), hi_var(dim));
    } else {
      stmt.lo = make_min(std::move(stmt.lo), hi_var(dim));
      stmt.hi = make_max(std::move(stmt.hi), lo_var(dim));
    }
  }

  /// One pass over the nest: clamps loop bounds and wraps
  /// boundary-section writes (invariant subscript in a cut status
  /// dimension) in ownership guards. Wrapped statements are not
  /// revisited.
  void clamp_list(StmtList& list, const ir::FieldLoop& fl) {
    for (auto& s : list) {
      if (s->kind == StmtKind::Assign) {
        maybe_guard(s, fl);
        continue;  // the fresh wrapper needs no further processing
      }
      clamp_do_bounds(*s, fl);
      clamp_list(s->body, fl);
      clamp_list(s->else_body, fl);
    }
  }

  void maybe_guard(fortran::StmtPtr& s, const ir::FieldLoop& fl) {
    if (s->lhs->kind != ExprKind::ArrayRef) return;
    if (!opts->field.is_status(s->lhs->name)) return;
    const int n_status =
        opts->field.status_dims(static_cast<int>(s->lhs->args.size()));
    fortran::ExprPtr guard;
    for (int d = 0; d < n_status; ++d) {
      const auto du = static_cast<std::size_t>(d);
      if (opts->spec.cuts[du] <= 1) continue;
      const auto pat = ir::classify_subscript(*s->lhs->args[du], fl.var_dims);
      if (pat.kind != ir::SubscriptPattern::Kind::Invariant) continue;
      auto test = ownership_test(d, *s->lhs->args[du]);
      guard = guard ? fortran::make_binary(fortran::BinOp::And,
                                           std::move(guard), std::move(test))
                    : std::move(test);
    }
    if (guard) {
      auto wrapper = fortran::make_stmt(StmtKind::If, s->loc);
      wrapper->cond = std::move(guard);
      wrapper->body.push_back(std::move(s));
      s = std::move(wrapper);
    }
  }

  void warn_invariant_reads(const ir::FieldLoop& fl) {
    if (warned_invariant_read) return;
    for (const auto& [name, info] : fl.arrays) {
      for (const auto& read : info.reads) {
        const int n_status =
            opts->field.status_dims(static_cast<int>(read.subs.size()));
        for (int d = 0; d < n_status; ++d) {
          const auto du = static_cast<std::size_t>(d);
          if (opts->spec.cuts[du] <= 1) continue;
          if (read.subs[du].kind == ir::SubscriptPattern::Kind::Invariant &&
              read.subs[du].const_value.has_value()) {
            diags->warning(read.stmt->loc,
                           "read of '" + name +
                               "' at a fixed index in a cut dimension: "
                               "only the owning block can access it");
            warned_invariant_read = true;
            return;
          }
        }
      }
    }
  }

  // ---- reductions ----------------------------------------------------------

  /// A private scalar needs no communication as long as each rank
  /// computes the whole of every value it uses: no partial sum over a
  /// cut dimension, and no use after the nest (lastprivate would need a
  /// broadcast, which the runtime does not provide).
  void check_private(const ir::FieldLoop& fl, const ir::ReductionInfo& red) {
    const std::string where = "scalar '" + red.var + "' of the nest at line " +
                              std::to_string(fl.loop->loc.line);
    for (const auto& acc : fl.reductions) {
      if (acc.var != red.var) continue;
      for (const auto* loop : acc.partial_loops) {
        const auto it = fl.var_dims.find(loop->do_var);
        if (it == fl.var_dims.end() ||
            opts->spec.cuts[static_cast<std::size_t>(it->second)] <= 1) {
          continue;
        }
        diags->error(fl.loop->loc,
                     where + " accumulates a partial result across cut "
                             "dimension " +
                         std::to_string(it->second) +
                         "; each rank would hold a different value");
        return;
      }
    }
    if (red.live_after) {
      diags->error(fl.loop->loc,
                   where + " is private to each iteration but live after "
                           "the nest; its last value would need a broadcast");
    }
  }

  void insert_allreduces(fortran::ProgramUnit& unit, StmtList& list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      Stmt& s = *list[i];
      if (const auto* fl = field_loop_for(unit, s)) {
        std::size_t insert_at = i + 1;
        // One AllReduce per distinct true reduction variable.
        std::vector<std::string> done;
        for (const auto& red : fl->reductions) {
          if (std::find(done.begin(), done.end(), red.var) != done.end()) {
            continue;
          }
          done.push_back(red.var);
          if (red.kill != nullptr) {
            check_private(*fl, red);
            continue;
          }
          auto ar = fortran::make_stmt(StmtKind::AllReduce, s.loc);
          ar->reduce_var = red.var;
          ar->callee = red.op;
          sync::CommSite site;
          site.kind = sync::CommSite::Kind::Collective;
          site.ordinal = reduction_ordinal++;
          site.label = "allreduce(" + red.op + ") " + red.var;
          ar->sync_site = meta->tags.add(site);
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(insert_at++),
                      std::move(ar));
        }
        i = insert_at - 1;
        continue;  // do not descend into the nest
      }
      insert_allreduces(unit, s.body);
      insert_allreduces(unit, s.else_body);
    }
  }

  // ---- pipelines -----------------------------------------------------------

  void insert_pipelines(fortran::ProgramUnit& unit, StmtList& list,
                        const sync::SyncPlan& plan,
                        std::vector<const Stmt*>& done) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      Stmt& s = *list[i];
      // Find a pipeline plan whose loop is this statement.
      const sync::PipelinePlan* pp = nullptr;
      for (const auto& cand : plan.pipelines) {
        if (cand.site->loop->loop == &s) {
          pp = &cand;
          break;
        }
      }
      if (pp && std::find(done.begin(), done.end(), &s) == done.end()) {
        done.push_back(&s);
        fortran::HaloSpec flow;
        flow.array = pp->plan.array;
        flow.lo_width = pp->plan.flow_halo.lo;
        flow.hi_width = pp->plan.flow_halo.hi;
        // One wire tag per (pipeline, dimension, direction), shared by
        // the PipelineStart that receives the boundary and the
        // PipelineEnd that sends it downstream.
        const int this_pipeline = pipeline_ordinal++;
        std::vector<int> wave_tags;
        for (const auto& [dim, dir] : pp->plan.pipeline_dims) {
          sync::CommSite site;
          site.kind = sync::CommSite::Kind::Pipeline;
          site.ordinal = this_pipeline;
          site.dim = dim;
          site.dir = dir;
          site.label = "pipeline#" + std::to_string(this_pipeline) + " " +
                       pp->plan.array + " dim" + std::to_string(dim) +
                       (dir > 0 ? "+" : "-");
          wave_tags.push_back(meta->tags.add(site));
        }
        std::size_t at = i;
        std::size_t wave = 0;
        for (const auto& [dim, dir] : pp->plan.pipeline_dims) {
          auto start = fortran::make_stmt(StmtKind::PipelineStart, s.loc);
          start->pipeline_dim = dim;
          start->pipeline_dir = dir;
          start->halo_arrays = {flow};
          start->comm_tags = {wave_tags[wave++]};
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(at++),
                      std::move(start));
        }
        std::size_t after = at + 1;  // loop shifted right by inserts
        wave = 0;
        for (const auto& [dim, dir] : pp->plan.pipeline_dims) {
          auto end = fortran::make_stmt(StmtKind::PipelineEnd, s.loc);
          end->pipeline_dim = dim;
          end->pipeline_dir = dir;
          end->halo_arrays = {flow};
          end->comm_tags = {wave_tags[wave++]};
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(after++),
                      std::move(end));
        }
        i = after - 1;
        continue;
      }
      insert_pipelines(unit, s.body, plan, done);
      insert_pipelines(unit, s.else_body, plan, done);
    }
  }
};

}  // namespace

SpmdMeta restructure(
    fortran::SourceFile& file, const SpmdOptions& opts,
    const std::map<std::string, std::vector<ir::FieldLoop>>& loops_by_unit,
    const depend::DependenceSet& deps, const sync::SyncPlan& plan,
    const sync::InlinedProgram& prog, DiagnosticEngine& diags) {
  SpmdMeta meta;
  meta.grid = opts.grid;
  meta.spec = opts.spec;
  meta.status_arrays = opts.field.status_arrays;

  Restructurer r{&opts, &loops_by_unit, &diags, &meta, false};
  r.compute_ghosts(deps, plan);

  // 1. Communication statements at the combined synchronization points.
  //    Collected first (slot indices reference the original statement
  //    lists), applied per block in descending index order so earlier
  //    indices stay valid.
  struct Insertion {
    const fortran::StmtList* block;
    int index;
    fortran::StmtPtr stmt;
  };
  std::vector<Insertion> insertions;
  for (std::size_t k = 0; k < plan.points.size(); ++k) {
    const auto& point = plan.points[k];
    const auto& slot = prog.slot(point.chosen_slot);
    if (!slot.source_block) {
      diags.error({}, "synchronization point has no source location");
      continue;
    }
    auto halo = fortran::make_stmt(StmtKind::HaloExchange);
    halo->halo_arrays = sync::SyncPlan::halos_for(point);
    r.register_halo_tags(*halo, static_cast<int>(k));
    insertions.push_back(Insertion{slot.source_block, slot.index,
                                   std::move(halo)});
  }
  std::stable_sort(insertions.begin(), insertions.end(),
                   [](const Insertion& a, const Insertion& b) {
                     if (a.block != b.block) return a.block < b.block;
                     return a.index > b.index;
                   });
  for (auto& ins : insertions) {
    // The source blocks belong to `file`, which the caller hands us as
    // mutable; the const comes from the analysis-side view.
    auto* block = const_cast<fortran::StmtList*>(ins.block);
    block->insert(block->begin() + ins.index, std::move(ins.stmt));
  }

  // 2. Per-unit transformations.
  std::vector<const Stmt*> pipelines_done;
  for (auto& unit : file.units) {
    r.add_runtime_common(unit);
    r.rewrite_array_decls(unit);
    const auto it = loops_by_unit.find(unit.name);
    if (it != loops_by_unit.end()) {
      for (const auto& fl : it->second) {
        r.warn_invariant_reads(fl);
        // The analysis holds const pointers into this same AST.
        auto* loop = const_cast<Stmt*>(fl.loop);
        r.clamp_nest(*loop, fl);
      }
    }
    r.insert_allreduces(unit, unit.body);
    r.insert_pipelines(unit, unit.body, plan, pipelines_done);
  }

  assign_stmt_ids(file);
  return meta;
}

}  // namespace autocfd::codegen
