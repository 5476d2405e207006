#include "autocfd/sweep/sweep.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "autocfd/fault/fault.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/mp/recovery.hpp"
#include "autocfd/obs/json_reader.hpp"
#include "autocfd/plan/planner.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::sweep {

// ----------------------------------------------------------- SweepSpec

std::optional<SweepSpec> SweepSpec::parse(std::string_view text,
                                          std::string* error) {
  const auto root = obs::parse_json(text, error);
  if (!root) {
    if (error != nullptr) *error = "sweep spec: " + *error;
    return std::nullopt;
  }
  if (root->kind != obs::JsonValue::Kind::Object) {
    if (error != nullptr) *error = "sweep spec: top level is not an object";
    return std::nullopt;
  }
  SweepSpec spec;
  spec.schema_version = static_cast<int>(root->int_or("schema_version", 0));
  if (spec.schema_version != kSweepSpecSchemaVersion) {
    if (error != nullptr) {
      *error = "sweep spec schema_version " +
               std::to_string(spec.schema_version) +
               " (this build expects " +
               std::to_string(kSweepSpecSchemaVersion) +
               "); set \"schema_version\": " +
               std::to_string(kSweepSpecSchemaVersion) +
               " and check the spec's fields against "
               "autocfd/sweep/sweep.hpp";
    }
    return std::nullopt;
  }
  spec.title = root->str_or("title", "");
  spec.ranks.clear();
  for (const auto& v : root->list("ranks")) {
    if (v.kind != obs::JsonValue::Kind::Number) continue;
    spec.ranks.push_back(static_cast<int>(v.number));
  }
  if (spec.ranks.empty()) {
    if (error != nullptr) {
      *error = "sweep spec: \"ranks\" must list at least one rank count";
    }
    return std::nullopt;
  }
  for (const int r : spec.ranks) {
    if (r < 1) {
      if (error != nullptr) {
        *error = "sweep spec: rank count " + std::to_string(r) +
                 " is not positive";
      }
      return std::nullopt;
    }
  }
  if (const auto* parts = root->find("partitions");
      parts != nullptr && parts->kind == obs::JsonValue::Kind::Object) {
    for (const auto& [key, value] : parts->fields) {
      int nranks = 0;
      try {
        nranks = std::stoi(key);
      } catch (const std::exception&) {
        if (error != nullptr) {
          *error = "sweep spec: partitions key '" + key +
                   "' is not a rank count";
        }
        return std::nullopt;
      }
      auto& shapes = spec.partitions[nranks];
      for (const auto& shape : value.items) {
        if (shape.kind == obs::JsonValue::Kind::String) {
          shapes.push_back(shape.string);
        }
      }
    }
  }
  if (root->find("engines") != nullptr) {
    spec.engines.clear();
    for (const auto& v : root->list("engines")) {
      if (v.kind == obs::JsonValue::Kind::String) {
        spec.engines.push_back(v.string);
      }
    }
  }
  if (spec.engines.empty()) {
    if (error != nullptr) {
      *error = "sweep spec: \"engines\" must list at least one engine";
    }
    return std::nullopt;
  }
  spec.strategy = root->str_or("strategy", "min");
  spec.faults = root->str_or("faults", "");
  spec.recovery = root->str_or("recovery", "");
  spec.sequential_baseline = root->bool_or("sequential_baseline", false);
  spec.plan = root->bool_or("plan", false);
  return spec;
}

std::optional<SweepSpec> SweepSpec::load(const std::string& path,
                                         std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  auto spec = parse(buf.str(), error);
  if (!spec && error != nullptr) *error = path + ": " + *error;
  return spec;
}

// ----------------------------------------------------------- run_sweep

namespace {

/// One cell of the execution grid, in run order.
struct CellConfig {
  std::string engine;
  int nranks = 0;
  std::string partition;  // empty: let the static heuristic choose
};

ScalingCell distill_cell(const prof::RunReport& rep,
                         const std::string& fault_spec) {
  ScalingCell cell;
  cell.nranks = rep.nranks;
  cell.partition = rep.partition;
  cell.engine = rep.engine;
  cell.fault_spec = fault_spec;
  cell.elapsed_s = rep.elapsed_s;

  for (const auto& rb : rep.ranks) {
    cell.compute_s += rb.compute;
    cell.transfer_s += rb.transfer;
    cell.wait_s += rb.wait;
    cell.recovery_s += rb.recovery;
  }
  cell.retransmits = rep.recovery.retransmits;
  const double total = cell.compute_s + cell.transfer_s + cell.wait_s;
  cell.comm_share =
      total > 0.0 ? (cell.transfer_s + cell.wait_s) / total : 0.0;

  if (!rep.ranks.empty()) {
    double max_compute = rep.ranks.front().compute;
    cell.straggler_rank = 0;
    for (std::size_t r = 1; r < rep.ranks.size(); ++r) {
      if (rep.ranks[r].compute > max_compute) {
        max_compute = rep.ranks[r].compute;
        cell.straggler_rank = static_cast<int>(r);
      }
    }
    const double mean_compute =
        cell.compute_s / static_cast<double>(rep.ranks.size());
    cell.imbalance = mean_compute > 0.0 ? max_compute / mean_compute : 0.0;
  }

  for (const auto& rt : rep.comm.rank_totals) {
    cell.messages += rt.messages_sent;
    cell.bytes += rt.bytes_sent;
  }
  cell.syncs_after = rep.compile.syncs_after;
  cell.pipelined_loops = rep.compile.pipelined_loops;

  for (const auto& site : rep.sites) {
    SiteShare share;
    share.site = site.site;
    share.kind = site.kind;
    share.label = site.label;
    share.messages = site.messages;
    share.bytes = site.bytes;
    share.wait_s = site.wait_s;
    share.cost_s = site.cost_s;
    share.share = total > 0.0 ? (site.wait_s + site.cost_s) / total : 0.0;
    cell.sites.push_back(std::move(share));
  }
  return cell;
}

/// Normalizes one engine series in place: picks the baseline (the
/// series' smallest rank count, or the sequential reference when the
/// sweep ran one and the series has no 1-rank cell) and fills
/// speedup / efficiency / Karp-Flatt of every cell against it.
void normalize_series(std::vector<ScalingCell>& cells,
                      const std::string& engine, double seq_elapsed_s) {
  int base = -1;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].engine != engine) continue;
    if (base < 0 || cells[i].nranks < cells[static_cast<std::size_t>(
                                          base)].nranks) {
      base = static_cast<int>(i);
    }
  }
  if (base < 0) return;

  double base_elapsed = cells[static_cast<std::size_t>(base)].elapsed_s;
  int base_ranks = cells[static_cast<std::size_t>(base)].nranks;
  bool mark_base_cell = true;
  if (seq_elapsed_s > 0.0 && base_ranks > 1) {
    // The Table-4 workflow: no 1-rank cell, normalize everything to
    // the measured sequential run instead.
    base_elapsed = seq_elapsed_s;
    base_ranks = 1;
    mark_base_cell = false;
  }
  for (auto& cell : cells) {
    if (cell.engine != engine) continue;
    cell.baseline =
        mark_base_cell && (&cell == &cells[static_cast<std::size_t>(base)]);
    cell.speedup =
        cell.elapsed_s > 0.0 ? base_elapsed / cell.elapsed_s : 0.0;
    cell.efficiency = cell.nranks > 0
                          ? cell.speedup * base_ranks / cell.nranks
                          : 0.0;
    // Karp-Flatt's serial fraction only means anything against a
    // serial (1-rank or sequential) reference.
    if (base_ranks == 1 && cell.nranks > 1 && cell.speedup > 0.0) {
      const double p = cell.nranks;
      cell.karp_flatt =
          (1.0 / cell.speedup - 1.0 / p) / (1.0 - 1.0 / p);
    }
  }
}

void build_site_trends(ScalingReport& report) {
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    for (const auto& site : report.cells[i].sites) {
      SiteTrend* trend = nullptr;
      for (auto& t : report.site_trends) {
        if (t.kind == site.kind && t.label == site.label) {
          trend = &t;
          break;
        }
      }
      if (trend == nullptr) {
        report.site_trends.push_back(
            SiteTrend{site.kind, site.label,
                      std::vector<double>(report.cells.size(), 0.0)});
        trend = &report.site_trends.back();
      }
      trend->shares[i] += site.share;
    }
  }
}

void classify(ScalingReport& report) {
  if (report.cells.empty()) return;
  // The verdict cell: the largest scale of the sweep (the last such
  // cell, so multi-engine sweeps judge by the final series).
  std::size_t top = 0;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    if (report.cells[i].nranks >= report.cells[top].nranks) top = i;
  }
  report.classification = report.cells[top].comm_share > 0.5
                              ? "comm-bound"
                              : "compute-bound";
  // The crossover: the smallest scale whose cell already spends at
  // least half of all rank time communicating.
  std::size_t at = top;
  report.crossover_nranks = -1;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& cell = report.cells[i];
    if (cell.comm_share < 0.5) continue;
    if (report.crossover_nranks < 0 ||
        cell.nranks < report.crossover_nranks) {
      report.crossover_nranks = cell.nranks;
      at = i;
    }
  }
  // The dominant site of the crossover cell (or of the verdict cell
  // when nothing crosses over): largest communication bill, ties to
  // the lower site id since sites are sorted.
  const SiteShare* dominant = nullptr;
  for (const auto& site : report.cells[at].sites) {
    if (dominant == nullptr ||
        site.wait_s + site.cost_s > dominant->wait_s + dominant->cost_s) {
      dominant = &site;
    }
  }
  if (dominant != nullptr) {
    report.crossover_site = dominant->label;
    report.crossover_site_kind = dominant->kind;
  }
}

void score_plan_points(ScalingReport& report,
                       const std::vector<prof::RunReport>& cell_reports,
                       const std::string& source,
                       const core::Directives& directives,
                       const SweepSpec& spec, const SweepOptions& options) {
  plan::PlannerOptions popts;
  popts.source = source;
  popts.directives = directives;
  popts.machine = options.machine;
  if (!spec.faults.empty()) {
    popts.faults = fault::FaultPlan::parse(spec.faults);
  }
  // One verdict per distinct rank count, scored against its first
  // measured cell (the first engine series; virtual times are
  // engine-invariant, so one scoring per scale suffices).
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& cell = report.cells[i];
    bool seen = false;
    for (const auto& p : report.plan_points) {
      if (p.nranks == cell.nranks) seen = true;
    }
    if (seen) continue;
    const auto input = plan::plan_input_from_report(cell_reports[i]);
    const auto plan_file = plan::make_plan(input, popts);
    PlanPoint point;
    point.nranks = cell.nranks;
    point.measured_partition = cell.partition;
    point.measured_s = cell.elapsed_s;
    point.planned_partition = plan_file.partition;
    point.planned_strategy = plan_file.strategy;
    point.predicted_s = plan_file.predicted_s;
    point.static_predicted_s = plan_file.static_predicted_s;
    point.improves = plan_file.predicted_s < plan_file.static_predicted_s;
    report.plan_points.push_back(std::move(point));
  }
  const PlanPoint* best = nullptr;
  for (const auto& p : report.plan_points) {
    if (best == nullptr || p.predicted_s < best->predicted_s) best = &p;
  }
  if (best != nullptr) {
    report.recommended_nranks = best->nranks;
    report.recommended_partition = best->planned_partition;
  }
}

}  // namespace

SweepResult run_sweep(const std::string& source,
                      const core::Directives& directives,
                      const SweepSpec& spec, const SweepOptions& options) {
  sync::CombineStrategy strategy = sync::CombineStrategy::Min;
  if (!sync::parse_combine_strategy(spec.strategy, strategy)) {
    throw std::invalid_argument("sweep: unknown combine strategy '" +
                                spec.strategy +
                                "' (expected min, pairwise, or none)");
  }
  if (spec.ranks.empty()) {
    throw std::invalid_argument("sweep: no rank counts to sweep");
  }

  // The execution grid, engine-major so each engine's series is
  // contiguous: spec rank order, explicit shapes fanned out per cell.
  std::vector<CellConfig> grid;
  for (const auto& engine : spec.engines) {
    (void)interp::parse_engine_kind(engine);  // reject unknown names now
    for (const int nranks : spec.ranks) {
      const auto it = spec.partitions.find(nranks);
      if (it == spec.partitions.end() || it->second.empty()) {
        grid.push_back(CellConfig{engine, nranks, ""});
      } else {
        for (const auto& shape : it->second) {
          grid.push_back(CellConfig{engine, nranks, shape});
        }
      }
    }
  }

  SweepResult result;
  result.report.title = spec.title;
  result.report.strategy = spec.strategy;

  fault::FaultPlan fault_plan;
  if (!spec.faults.empty()) {
    fault_plan = fault::FaultPlan::parse(spec.faults);
    result.report.fault_spec = fault_plan.str();
  }
  if (!spec.recovery.empty()) {
    result.report.recovery_spec =
        mp::RecoveryConfig::parse(spec.recovery).str();
  }

  if (spec.sequential_baseline) {
    auto seq_file = fortran::parse_source(source);
    const auto seq = codegen::run_sequential_timed(
        seq_file, directives.status_arrays, options.machine,
        interp::parse_engine_kind(spec.engines.front()));
    result.report.seq_elapsed_s = seq.elapsed;
  }

  for (const auto& cfg : grid) {
    core::Directives dirs = directives;
    dirs.nprocs = cfg.nranks;
    // Unless the spec pins a shape, every scale re-runs the static
    // partition search — the sweep observes the heuristic's own
    // choices across scales, not one shape stretched over all of them.
    dirs.partition = cfg.partition.empty()
                         ? std::nullopt
                         : std::optional<partition::PartitionSpec>(
                               partition::PartitionSpec::parse(
                                   cfg.partition));
    if (dirs.partition && dirs.partition->num_tasks() != cfg.nranks) {
      throw std::invalid_argument(
          "sweep: partition " + cfg.partition + " makes " +
          std::to_string(dirs.partition->num_tasks()) +
          " ranks, but is listed under rank count " +
          std::to_string(cfg.nranks));
    }

    obs::ObsContext obs;
    auto program = core::parallelize(source, dirs, strategy, &obs);
    if (program->meta.spec.num_tasks() != cfg.nranks) {
      throw std::invalid_argument(
          "sweep: no partition of grid " + directives.grid.str() +
          " realizes " + std::to_string(cfg.nranks) + " ranks (got " +
          program->meta.spec.str() + ")");
    }

    // A fresh injector per cell: fault schedules are a pure function
    // of the plan seed and message identity, so every cell sees the
    // same chaos, not a continuation of the previous cell's.
    fault::FaultInjector injector{fault_plan};
    trace::TraceRecorder recorder;
    codegen::SpmdRunOptions run_opts;
    run_opts.sink = &recorder;
    run_opts.faults = spec.faults.empty() ? nullptr : &injector;
    run_opts.watchdog = options.watchdog;
    run_opts.engine = interp::parse_engine_kind(cfg.engine);
    run_opts.profile = true;
    if (!spec.recovery.empty()) {
      run_opts.recovery = mp::RecoveryConfig::parse(spec.recovery);
    }
    const auto run = program->run(options.machine, run_opts);

    prof::ReportOptions ropts;
    ropts.title = spec.title;
    ropts.engine = cfg.engine;
    ropts.recovery_enabled = run_opts.recovery.enabled;
    if (result.report.seq_elapsed_s > 0.0) {
      ropts.seq_elapsed_s = result.report.seq_elapsed_s;
    }
    auto rep = prof::build_run_report(*program, run, recorder.trace(),
                                      &obs.provenance, ropts);

    result.report.cells.push_back(
        distill_cell(rep, result.report.fault_spec));
    result.cell_reports.push_back(std::move(rep));
  }

  for (const auto& engine : spec.engines) {
    normalize_series(result.report.cells, engine,
                     result.report.seq_elapsed_s);
  }
  build_site_trends(result.report);
  classify(result.report);
  if (spec.plan) {
    score_plan_points(result.report, result.cell_reports, source,
                      directives, spec, options);
  }

  if (!options.ledger_path.empty()) {
    // One telemetry record per cell, appended only now that the sweep
    // as a whole succeeded — a cell that threw never half-populates
    // the ledger. Each record carries the cell's full RunReport
    // distillation plus the scaling figures only the sweep knows.
    for (std::size_t i = 0; i < result.report.cells.size(); ++i) {
      const auto& cell = result.report.cells[i];
      ledger::RunMeta meta;
      meta.kind = "sweep-cell";
      meta.input = spec.title;
      meta.machine = options.machine_name;
      meta.source = source;
      meta.seed = spec.faults.empty()
                      ? 0
                      : static_cast<long long>(fault_plan.seed);
      auto rec =
          ledger::make_run_record(meta, &result.cell_reports[i], nullptr);
      rec.metrics["cell.speedup"] = cell.speedup;
      rec.metrics["cell.efficiency"] = cell.efficiency;
      rec.metrics["cell.karp_flatt"] = cell.karp_flatt;
      rec.metrics["cell.comm_share"] = cell.comm_share;
      rec.metrics["cell.imbalance"] = cell.imbalance;
      for (const auto& point : result.report.plan_points) {
        if (point.nranks != cell.nranks) continue;
        rec.metrics["plan.predicted_s"] = point.predicted_s;
        rec.metrics["plan.improves"] = point.improves ? 1.0 : 0.0;
        rec.attrs["plan.partition"] = point.planned_partition;
        rec.attrs["plan.strategy"] = point.planned_strategy;
        break;
      }
      if (const auto err =
              ledger::append_record(options.ledger_path, rec)) {
        result.ledger_error = *err;
        break;
      }
    }
  }
  return result;
}

}  // namespace autocfd::sweep
