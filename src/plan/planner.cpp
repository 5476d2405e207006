#include "autocfd/plan/planner.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "autocfd/codegen/comm_schedule.hpp"
#include "autocfd/partition/comm_model.hpp"

namespace autocfd::plan {

namespace {

using core::PlanningFacts;
using partition::BlockPartition;
using partition::PartitionSpec;

/// One communication site of a candidate: a combined point's exchange
/// along one cut dimension, or a pipeline group's hand-off along one
/// (dim, dir). Holds every rank's sends of one execution, in the order
/// the runtime posts them, priced with the machine model.
struct SiteBill {
  int ordinal = -1;  // combined point or pipeline group
  int dim = -1;
  struct Send {
    int src = -1;
    int dst = -1;
    long long lines = 1;
    double time_s = 0.0;
  };
  std::vector<Send> sends;

  [[nodiscard]] long long messages() const {
    long long n = 0;
    for (const auto& s : sends) n += s.lines;
    return n;
  }
  [[nodiscard]] double transfer_s() const {
    double t = 0.0;
    for (const auto& s : sends) t += s.time_s;
    return t;
  }
};

/// The priced communication schedule of one candidate, each list in the
/// order the restructurer registers the sites.
struct Bill {
  std::vector<SiteBill> halos;     // per (combined point, cut dimension)
  std::vector<SiteBill> handoffs;  // per (pipeline group, dim, dir)
};

Bill price_schedule(const PlanningFacts& facts,
                    const mp::MachineConfig& machine) {
  const BlockPartition part(facts.grid, facts.spec);
  Bill bill;
  const auto add_site = [&](std::vector<SiteBill>& sites, std::size_t ordinal,
                            int dim, const auto& messages_of) {
    auto& site = sites.emplace_back();
    site.ordinal = static_cast<int>(ordinal);
    site.dim = dim;
    for (int rank = 0; rank < part.num_tasks(); ++rank) {
      for (const auto& m : messages_of(rank).sends) {
        site.sends.push_back(
            {rank, m.peer, m.lines, machine.message_time(m.bytes(), m.lines)});
      }
    }
  };
  for (std::size_t k = 0; k < facts.points.size(); ++k) {
    for (int dim = 0; dim < facts.grid.rank(); ++dim) {
      if (facts.spec.cuts[static_cast<std::size_t>(dim)] <= 1) continue;
      add_site(bill.halos, k, dim, [&](int rank) {
        return codegen::halo_messages(facts.points[k], part, facts.ghosts,
                                      rank, dim);
      });
    }
  }
  for (std::size_t g = 0; g < facts.pipelines.size(); ++g) {
    const auto& pg = facts.pipelines[g];
    for (const auto& wave : pg.dims) {
      add_site(bill.handoffs, g, wave.first, [&](int rank) {
        return codegen::handoff_messages(pg.flows, part, facts.ghosts, rank,
                                         wave.first, wave.second);
      });
    }
  }
  return bill;
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

Score score_candidate(const PlanningFacts& facts, const Bill& bill,
                      const PlanInput& input, const PlannerOptions& opts,
                      double execs, double c_comm) {
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
  // the per-rank compute of every sweep sharing the hand-off, plus
  // (B-1) hand-offs per execution. The chain waits on the largest send
  // of each hand-off: blocks with the extra points come first.
  Score sc;
  for (std::size_t g = 0; g < facts.pipelines.size(); ++g) {
    double w_loops = 0.0;
    for (const int line : facts.pipelines[g].lines) {
      w_loops += input.loop_time(line);
    }
    long long chain = 1;
    double handoffs = 0.0;
    for (const auto& site : bill.handoffs) {
      if (site.ordinal != static_cast<int>(g)) continue;
      const int cuts = facts.spec.cuts[static_cast<std::size_t>(site.dim)];
      chain *= cuts;
      double largest = 0.0;
      for (const auto& send : site.sends) {
        largest = std::max(largest, send.time_s);
      }
      handoffs += static_cast<double>(cuts - 1) * largest;
    }
    // The sweeps' own per-rank share is already in the base compute
    // below; the chain adds the (B-1) serialized block shares and the
    // boundary hand-offs.
    const double per_rank = w_loops / nranks;
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
    // The rank pays its own halo sends; fault penalties land on the
    // messages it receives.
    double transfer = 0.0;
    std::vector<int> senders;
    for (const auto& site : bill.halos) {
      for (const auto& send : site.sends) {
        if (send.src == rank) transfer += send.time_s;
        if (send.dst == rank) senders.push_back(send.src);
      }
    }
    const double comm = c_comm * execs * transfer;

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
        const auto msgs =
            w.dst >= 0 && w.dst != rank
                ? 0
                : std::count_if(senders.begin(), senders.end(), [&](int src) {
                    return w.src < 0 || w.src == src;
                  });
        fault += w.delay * static_cast<double>(msgs) * execs * frac;
      }
      // Jitter: expected extra delay per received message.
      if (fp.jitter_prob > 0.0 && fp.jitter_max > 0.0) {
        fault += fp.jitter_prob * fp.jitter_max * 0.5 * execs *
                 static_cast<double>(senders.size());
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
  Bill bill;
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
  base.bill = price_schedule(base.facts, opts.machine);

  long long model_msgs = 0;
  double model_transfer = 0.0;
  for (const auto& site : base.bill.halos) {
    model_msgs += site.messages();
    model_transfer += site.transfer_s();
  }
  const auto measured_msgs = input.site_messages("halo");
  const double measured_cost = input.site_cost("halo");
  if (model_msgs > 0 && measured_msgs > 0) {
    base.execs = static_cast<double>(measured_msgs) /
                 static_cast<double>(model_msgs);
  }
  if (model_transfer > 0.0 && measured_cost > 0.0) {
    base.c_comm = measured_cost / (base.execs * model_transfer);
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
        const auto sc =
            score_candidate(s.facts, price_schedule(s.facts, opts.machine),
                            input, opts, base.execs, base.c_comm);
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

  // The report lists each kind's sites in registration order, as the
  // bill does.
  std::size_t next_halo = 0, next_handoff = 0;
  std::vector<SiteCalibration> out;
  for (const auto& site : input.sites) {
    if (site.kind != "halo" && site.kind != "pipeline") continue;
    const bool halo = site.kind == "halo";
    const auto& sites = halo ? base.bill.halos : base.bill.handoffs;
    auto& next = halo ? next_halo : next_handoff;
    SiteCalibration cal;
    cal.site = site.site;
    cal.label = site.label;
    cal.measured_messages = site.messages;
    cal.measured_cost_s = site.cost_s;
    if (next < sites.size()) {
      const auto& model = sites[next++];
      cal.point = model.ordinal;
      cal.dim = model.dim;
      cal.model_messages_per_exec = model.messages();
      if (cal.model_messages_per_exec > 0 && site.messages > 0) {
        const double execs =
            static_cast<double>(site.messages) /
            static_cast<double>(cal.model_messages_per_exec);
        cal.model_cost_s = execs * model.transfer_s();
      }
    }
    out.push_back(std::move(cal));
  }
  return out;
}

}  // namespace autocfd::plan
