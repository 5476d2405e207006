#include "autocfd/plan/planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "autocfd/partition/comm_model.hpp"

namespace autocfd::plan {

namespace {

using core::PlanningFacts;
using partition::BlockPartition;
using partition::PartitionSpec;

/// Per-execution communication bill of one candidate configuration,
/// mirroring the runtime's halo_exchange exactly: per combined sync
/// point, per cut dimension, per direction with a neighbor that needs
/// layers, one send per rank whose payload packs every member array's
/// slab across the full local allocation (ghosts included) of the other
/// dimensions.
struct CommModel {
  long long messages = 0;        // wire sends per exec, all ranks
  double transfer_total = 0.0;   // sender-paid transfer per exec
  std::vector<double> rank_transfer;
  std::vector<long long> rank_recv_messages;
  /// Messages per exec on each (src, dst) link.
  std::map<std::pair<int, int>, long long> link_messages;

  struct Site {
    int point = -1;
    int dim = -1;
    long long messages = 0;
    double transfer_s = 0.0;
  };
  std::vector<Site> sites;  // one per (combined point, cut dimension)
};

/// Doubles of one array's slab of `width` layers of dimension `dim`,
/// spanning the full local allocation elsewhere (pack_slab semantics).
long long slab_elements(const PlanningFacts& facts, const BlockPartition& part,
                        int rank, const std::string& array, int dim,
                        int width) {
  if (width <= 0) return 0;
  long long elems = width;
  const auto& sg = part.subgrid(rank);
  const auto git = facts.ghosts.find(array);
  for (int d = 0; d < facts.grid.rank(); ++d) {
    if (d == dim) continue;
    long long extent = sg.extent(d);
    if (git != facts.ghosts.end()) {
      const auto du = static_cast<std::size_t>(d);
      extent += git->second.lo[du] + git->second.hi[du];
    }
    elems *= extent;
  }
  return elems;
}

CommModel model_comm(const PlanningFacts& facts, const BlockPartition& part,
                     const mp::MachineConfig& machine, int nranks) {
  CommModel model;
  model.rank_transfer.assign(static_cast<std::size_t>(nranks), 0.0);
  model.rank_recv_messages.assign(static_cast<std::size_t>(nranks), 0);

  for (std::size_t point = 0; point < facts.points.size(); ++point) {
    const auto& halos = facts.points[point];
    for (int dim = 0; dim < facts.grid.rank(); ++dim) {
      const auto du = static_cast<std::size_t>(dim);
      if (facts.spec.cuts[du] <= 1) continue;
      CommModel::Site site;
      site.point = static_cast<int>(point);
      site.dim = dim;
      for (int rank = 0; rank < nranks; ++rank) {
        for (const int dir : {-1, +1}) {
          const auto peer = part.neighbor(rank, dim, dir);
          if (!peer) continue;
          long long bytes = 0;
          for (const auto& h : halos) {
            const int send_w = dir > 0 ? h.lo_width[du] : h.hi_width[du];
            bytes += 8 * slab_elements(facts, part, rank, h.array, dim,
                                       send_w);
          }
          // A peer that needs no layers gets no message.
          if (bytes == 0) continue;
          const double t = machine.message_time(bytes);
          site.messages += 1;
          site.transfer_s += t;
          model.rank_transfer[static_cast<std::size_t>(rank)] += t;
          model.rank_recv_messages[static_cast<std::size_t>(*peer)] += 1;
          model.link_messages[{rank, *peer}] += 1;
        }
      }
      model.messages += site.messages;
      model.transfer_total += site.transfer_s;
      model.sites.push_back(site);
    }
  }
  return model;
}

/// Compute/communication/pipeline/fault decomposition of one scored
/// candidate.
struct Score {
  double predicted = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double pipeline_s = 0.0;
  double fault_s = 0.0;
};

Score score_candidate(const PlanningFacts& facts, const BlockPartition& part,
                      const CommModel& model, const PlanInput& input,
                      const PlannerOptions& opts, double execs,
                      double c_comm) {
  const int nranks = input.nranks;
  const auto nr = static_cast<std::size_t>(nranks);

  std::vector<double> straggle(nr, 1.0);
  if (opts.faults) {
    for (const auto& s : opts.faults->stragglers) {
      if (s.rank >= 0 && s.rank < nranks) {
        straggle[static_cast<std::size_t>(s.rank)] =
            std::max(1.0, s.factor);
      }
    }
  }
  // Pipelined sweeps serialize: the chain through B blocks costs B x
  // the per-rank loop compute (the straggler's block once at its
  // factor) plus (B-1) hand-offs per execution, each paying one
  // latency per grid line of the owned face (send_chunked).
  Score sc;
  std::set<int> pipelined_lines;
  for (const auto& sd : facts.self_deps) {
    if (sd.pipeline_dims.empty()) continue;
    if (!pipelined_lines.insert(sd.line).second) continue;
    const double w_loop = input.loop_time(sd.line);

    long long chain = 1;
    double handoffs = 0.0;
    const auto& sg0 = part.subgrid(0);
    for (const auto& [dim, dir] : sd.pipeline_dims) {
      const auto du = static_cast<std::size_t>(dim);
      const int cuts = facts.spec.cuts[du];
      chain *= cuts;
      long long lines = 1;
      const int w = dir > 0 ? sd.flow_halo.lo[du] : sd.flow_halo.hi[du];
      for (int d = 0; d < facts.grid.rank(); ++d) {
        if (d == dim) continue;
        lines *= sg0.extent(d);
      }
      const long long bytes =
          8 * slab_elements(facts, part, 0, sd.array, dim, w);
      const double handoff =
          static_cast<double>(lines) * opts.machine.net_latency +
          static_cast<double>(bytes) * opts.machine.net_byte_time;
      handoffs += static_cast<double>(cuts - 1) * handoff;
    }
    // The loop's own per-rank share is already in the base compute
    // below; the chain adds the (B-1) serialized block shares and the
    // boundary hand-offs.
    const double per_rank = w_loop / nranks;
    sc.pipeline_s += per_rank * (static_cast<double>(chain) - 1.0) +
                     execs * handoffs;
  }
  const double nonpipe = std::max(0.0, input.total_compute_s);

  // Per-rank critical path: weighted compute + calibrated halo
  // transfer + fault penalties; the slowest rank bounds the run.
  const double base_share = nonpipe / nranks;
  double worst = -1.0;
  for (int rank = 0; rank < nranks; ++rank) {
    const auto ru = static_cast<std::size_t>(rank);
    const double compute = straggle[ru] * base_share;
    const double comm = c_comm * execs * model.rank_transfer[ru];

    double fault = 0.0;
    if (opts.faults) {
      const auto& fp = *opts.faults;
      // Degraded links: every message arriving at this rank over a
      // matching link inside the window is `delay` late.
      for (const auto& w : fp.windows) {
        double frac = 1.0;
        if (input.elapsed_s > 0.0 && w.t1 > w.t0) {
          frac = std::min(1.0, (w.t1 - w.t0) / input.elapsed_s);
        }
        long long msgs = 0;
        for (const auto& [link, count] : model.link_messages) {
          if (link.second != rank) continue;
          if (w.src >= 0 && w.src != link.first) continue;
          if (w.dst >= 0 && w.dst != link.second) continue;
          msgs += count;
        }
        fault += w.delay * static_cast<double>(msgs) * execs * frac;
      }
      // Jitter: expected extra delay per received message.
      if (fp.jitter_prob > 0.0 && fp.jitter_max > 0.0) {
        fault += fp.jitter_prob * fp.jitter_max * 0.5 * execs *
                 static_cast<double>(model.rank_recv_messages[ru]);
      }
    }

    const double total = compute + comm + fault;
    if (total > worst) {
      worst = total;
      sc.compute_s = compute;
      sc.comm_s = comm;
      sc.fault_s = fault;
    }
  }

  // Collectives involve every rank simultaneously and don't depend on
  // the partition shape; the measured bill sums all ranks' tree costs,
  // so one rank's critical-path share is 1/nranks of it.
  sc.comm_s += input.site_cost("collective") / nranks;
  sc.predicted = sc.compute_s + sc.comm_s + sc.pipeline_s + sc.fault_s;
  return sc;
}

/// Candidate baseline analysis for the measured configuration; also
/// derives the calibration constants (execution count and residual
/// communication scale).
struct Baseline {
  PlanningFacts facts;
  CommModel model;
  double execs = 1.0;
  double c_comm = 1.0;
};

core::Directives directives_for(const PlannerOptions& opts,
                                const PartitionSpec& spec, int nranks) {
  core::Directives dirs = opts.directives;
  dirs.partition = spec;
  dirs.nprocs = nranks;
  return dirs;
}

Baseline calibrate(const PlanInput& input, const PlannerOptions& opts) {
  Baseline base;
  const auto spec0 = PartitionSpec::parse(input.partition);
  sync::CombineStrategy strat0 = sync::CombineStrategy::Min;
  (void)sync::parse_combine_strategy(input.strategy, strat0);
  base.facts = core::analyze_for_plan(
      opts.source, directives_for(opts, spec0, input.nranks), strat0);
  const BlockPartition part(base.facts.grid, base.facts.spec);
  base.model = model_comm(base.facts, part, opts.machine, input.nranks);

  const auto measured_msgs = input.site_messages("halo");
  const double measured_cost = input.site_cost("halo");
  if (base.model.messages > 0 && measured_msgs > 0) {
    base.execs = static_cast<double>(measured_msgs) /
                 static_cast<double>(base.model.messages);
  }
  if (base.model.transfer_total > 0.0 && measured_cost > 0.0) {
    base.c_comm =
        measured_cost / (base.execs * base.model.transfer_total);
  }
  return base;
}

std::string fmt_ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

const sync::CombineStrategy kStrategies[] = {
    sync::CombineStrategy::Min,
    sync::CombineStrategy::Pairwise,
    sync::CombineStrategy::None,
};

int strategy_index(const std::string& name) {
  for (int i = 0; i < 3; ++i) {
    if (name == sync::combine_strategy_name(kStrategies[i])) return i;
  }
  return 3;
}

}  // namespace

PlanFile make_plan(const PlanInput& input, const PlannerOptions& opts) {
  const Baseline base = calibrate(input, opts);

  // The static-heuristic configuration this plan competes against:
  // whatever the directives resolve to for this rank count (explicit
  // partition directive, else the comm-volume-optimal search), with
  // the default Min combining.
  core::Directives static_dirs = opts.directives;
  static_dirs.nprocs = input.nranks;
  const PartitionSpec static_spec = static_dirs.resolve_partition();
  const auto* static_strategy =
      sync::combine_strategy_name(sync::CombineStrategy::Min);

  PlanFile plan;
  plan.planned_from = input.title;
  plan.fault_spec = opts.faults ? opts.faults->str() : "";
  plan.nranks = input.nranks;
  plan.static_partition = static_spec.str();
  plan.static_strategy = static_strategy;

  struct Scored {
    PlanFile::Candidate cand;
    PlanningFacts facts;
    int order = 0;
  };
  std::vector<Scored> scored;

  auto shapes =
      partition::enumerate_partitions(input.nranks, opts.directives.grid.rank());
  bool has_static_shape = false;
  for (const auto& s : shapes) {
    if (s == static_spec) has_static_shape = true;
  }
  if (!has_static_shape) shapes.push_back(static_spec);

  int order = 0;
  for (const auto& spec : shapes) {
    for (const auto strategy : kStrategies) {
      Scored s;
      s.order = order++;
      s.cand.partition = spec.str();
      s.cand.strategy = sync::combine_strategy_name(strategy);
      s.cand.is_static = spec == static_spec &&
                         strategy == sync::CombineStrategy::Min;
      try {
        s.facts = core::analyze_for_plan(
            opts.source, directives_for(opts, spec, input.nranks), strategy);
        const BlockPartition part(s.facts.grid, s.facts.spec);
        const auto model =
            model_comm(s.facts, part, opts.machine, input.nranks);
        const auto sc = score_candidate(s.facts, part, model, input, opts,
                                        base.execs, base.c_comm);
        s.cand.predicted_s = sc.predicted;
        s.cand.compute_s = sc.compute_s;
        s.cand.comm_s = sc.comm_s;
        s.cand.pipeline_s = sc.pipeline_s;
        s.cand.fault_s = sc.fault_s;
        s.cand.syncs_after = s.facts.report.syncs_after;
        s.cand.pipelined_loops = s.facts.report.pipelined_loops;
      } catch (const CompileError& err) {
        s.cand.feasible = false;
        s.cand.predicted_s = std::numeric_limits<double>::max();
        s.cand.note = err.what();
      }
      scored.push_back(std::move(s));
    }
  }

  // Deterministic winner: lowest prediction; ties prefer the static
  // configuration (no churn without evidence), then the smaller
  // partition string, then the stronger combining.
  const auto better = [](const Scored& a, const Scored& b) {
    if (a.cand.feasible != b.cand.feasible) return a.cand.feasible;
    if (a.cand.predicted_s != b.cand.predicted_s) {
      return a.cand.predicted_s < b.cand.predicted_s;
    }
    if (a.cand.is_static != b.cand.is_static) return a.cand.is_static;
    if (a.cand.partition != b.cand.partition) {
      return a.cand.partition < b.cand.partition;
    }
    return strategy_index(a.cand.strategy) < strategy_index(b.cand.strategy);
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < scored.size(); ++i) {
    if (better(scored[i], scored[best])) best = i;
  }
  if (!scored[best].cand.feasible) {
    throw CompileError("planner: no feasible candidate configuration for " +
                       std::to_string(input.nranks) + " ranks");
  }
  scored[best].cand.chosen = true;

  double static_predicted = 0.0;
  for (const auto& s : scored) {
    if (s.cand.is_static) static_predicted = s.cand.predicted_s;
  }

  const auto& chosen = scored[best];
  plan.partition = chosen.cand.partition;
  plan.strategy = chosen.cand.strategy;
  plan.predicted_s = chosen.cand.predicted_s;
  plan.static_predicted_s = static_predicted;

  if (chosen.cand.is_static) {
    plan.rationale = "kept static " + plan.partition + " (" + plan.strategy +
                     "); no candidate predicted faster on the measured "
                     "profile";
  } else {
    const double ratio = plan.predicted_s > 0.0
                             ? static_predicted / plan.predicted_s
                             : 1.0;
    plan.rationale = "chose " + plan.partition + " (" + plan.strategy +
                     ") over " + plan.static_partition + " (" +
                     plan.static_strategy + "); predicted " +
                     fmt_ratio(ratio) +
                     "x from measured profile and comm matrix";
  }
  if (opts.faults) {
    plan.rationale += "; scored under fault plan '" + plan.fault_spec + "'";
  }

  plan.decisions.push_back(
      "combine strategy " + plan.strategy + ": " +
      std::to_string(chosen.facts.report.syncs_after) + " sync points from " +
      std::to_string(chosen.facts.report.syncs_before) + " regions");
  for (const auto& sd : chosen.facts.self_deps) {
    std::string line = "self-dep loop@" + std::to_string(sd.line) + " '" +
                       sd.array + "': ";
    if (sd.pipeline_dims.empty()) {
      line += "no cut flow dimension; runs without pipelining";
    } else {
      line += "pipelined over";
      for (const auto& [dim, dir] : sd.pipeline_dims) {
        const auto du = static_cast<std::size_t>(dim);
        line += " dim" + std::to_string(dim) + " (" +
                std::to_string(chosen.facts.spec.cuts[du]) + " blocks)";
      }
    }
    plan.decisions.push_back(std::move(line));
  }

  // Candidate table: best first, infeasible last, fully deterministic.
  std::stable_sort(scored.begin(), scored.end(), better);
  plan.candidates.reserve(scored.size());
  for (auto& s : scored) {
    if (!s.cand.feasible) s.cand.predicted_s = 0.0;  // max() is noise
    plan.candidates.push_back(std::move(s.cand));
  }
  return plan;
}

std::vector<SiteCalibration> calibrate_sites(const PlanInput& input,
                                             const PlannerOptions& opts) {
  const Baseline base = calibrate(input, opts);

  std::vector<SiteCalibration> out;
  for (const auto& site : input.sites) {
    if (site.kind != "halo") continue;
    SiteCalibration cal;
    cal.site = site.site;
    cal.label = site.label;
    cal.measured_messages = site.messages;
    cal.measured_cost_s = site.cost_s;
    // The restructurer labels halo sites "halo#<point> dim<d> {...}".
    int point = -1, dim = -1;
    if (std::sscanf(site.label.c_str(), "halo#%d dim%d", &point, &dim) == 2) {
      for (const auto& m : base.model.sites) {
        if (m.point != point || m.dim != dim) continue;
        cal.point = point;
        cal.dim = dim;
        cal.model_messages_per_exec = m.messages;
        if (m.messages > 0 && site.messages > 0) {
          const double execs = static_cast<double>(site.messages) /
                               static_cast<double>(m.messages);
          cal.model_cost_s = execs * m.transfer_s;
        }
      }
    }
    out.push_back(std::move(cal));
  }
  return out;
}

}  // namespace autocfd::plan
