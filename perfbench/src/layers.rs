//! The metric catalogue (kept identical to `BENCHMARK.json`) and the
//! per-layer figures every workload derives the same way.

use xtalk::sta::report::ModeReport;
use xtalk::tech::{Library, Process};
use xtalk::wave::macromodel::{self, FallbackReason};

use crate::common::{median, ratio, Outcome};
use crate::menus;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("pessimism_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload. A
/// layer a workload bypasses reports 0 — the benchmark's "no change"
/// prediction for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("layout.place_s", "s"),
    ("layout.route_s", "s"),
    ("layout.extract_s", "s"),
    ("layout.coupling_caps", "count"),
    ("graph.build_s", "s"),
    ("graph.stages", "count"),
    ("graph.arcs", "count"),
    ("char.prewarm_s", "s"),
    ("char.cpu_per_wall", "ratio"),
    ("char.grid_solves", "count"),
    ("char.models", "count"),
    ("char.usable_ratio", "ratio"),
    ("charstore.replay_s", "s"),
    ("charstore.records", "count"),
    ("charstore.skipped", "count"),
    ("charstore.bytes", "bytes"),
    ("liberty.sweep_s", "s"),
    ("liberty.write_s", "s"),
    ("liberty.cells", "count"),
    ("kernel.passes", "count"),
    ("kernel.stage_solves", "count"),
    ("kernel.cpu_per_wall", "ratio"),
    ("kernel.warm_pass_s", "s"),
    ("table.hits", "count"),
    ("table.fallbacks", "count"),
    ("table.hit_ratio", "ratio"),
    ("table.fb_load", "count"),
    ("table.fb_slew", "count"),
    ("table.fb_assist", "count"),
    ("table.fb_family", "count"),
    ("table.fb_shape", "count"),
    ("table.residual_ps", "ps"),
    ("table.probe_ns", "ns"),
    ("newton.solves", "count"),
    ("newton.iters", "count"),
    ("newton.iters_per_solve", "ratio"),
    ("newton.warm_hits", "count"),
    ("stage.solve_us", "us"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.admitted", "count"),
    ("cache.skipped", "count"),
    ("cache.evictions", "count"),
    ("scenario.newton_iters", "count"),
    ("incremental.apply_ms", "ms"),
    ("incremental.analyze_ms", "ms"),
    ("incremental.rollback_ms", "ms"),
    ("incremental.stages_evaluated", "count"),
    ("incremental.full_ratio", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.busy", "count"),
    ("serve.deadline_hits", "count"),
    ("solvestore.replayed", "count"),
    ("solvestore.appended", "count"),
    ("solvestore.deduped", "count"),
    ("sim.check_s", "s"),
    ("sim.margin_pct", "%"),
    ("liberty_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("whatif_p50_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("trace.coverage_pct", "%"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Unit of a catalogued metric (every metric a workload puts is one).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| *u)
}

/// CPU seconds per wall second, or 0 for regions shorter than 0.2 s (the
/// process CPU clock ticks every 10 ms).
pub fn cpu_per_wall(cpu: f64, wall: f64) -> f64 {
    if wall < 0.2 {
        0.0
    } else {
        cpu / wall
    }
}

/// Kernel, table and Newton counters summed over the analyses `reports`
/// describe (one per corner on a scenario run).
pub fn analysis_counters(out: &mut Outcome, reports: &[&ModeReport]) {
    let sum = |f: &dyn Fn(&ModeReport) -> usize| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    let hits = sum(&|r| r.table_hits);
    let fallbacks = sum(&|r| r.table_fallbacks);
    let solves = sum(&|r| r.newton_solves);
    let iters = sum(&|r| r.newton_iters);
    out.put("kernel.passes", sum(&|r| r.passes));
    out.put("kernel.stage_solves", sum(&|r| r.stage_solves));
    out.put("table.hits", hits);
    out.put("table.fallbacks", fallbacks);
    out.put("table.hit_ratio", ratio(hits, hits + fallbacks));
    for (reason, name) in [
        (FallbackReason::OutOfGridLoad, "table.fb_load"),
        (FallbackReason::OutOfGridSlew, "table.fb_slew"),
        (FallbackReason::AssistingCoupling, "table.fb_assist"),
        (FallbackReason::FamilyRule, "table.fb_family"),
        (FallbackReason::Shape, "table.fb_shape"),
    ] {
        out.put(name, sum(&|r| r.table_fb_reasons[reason as usize]));
    }
    let residual = reports.iter().map(|r| r.table_residual).fold(0.0, f64::max);
    out.put("table.residual_ps", residual * 1e12);
    out.put("newton.solves", solves);
    out.put("newton.iters", iters);
    out.put("newton.iters_per_solve", ratio(iters, solves));
    out.put("newton.warm_hits", sum(&|r| r.warm_hits));
}

/// Characterization counters: the grid solves the workload's setup paid,
/// the models now resident in the process and their usable share.
pub fn char_counters(out: &mut Outcome, grid_solves: usize) {
    let stats = macromodel::stats();
    out.put("char.grid_solves", grid_solves as f64);
    out.put("char.models", stats.models as f64);
    out.put(
        "char.usable_ratio",
        ratio(stats.usable as f64, stats.models as f64),
    );
}

/// Runs both fixed menus against the models and process the workload
/// analyzed, and prints the count × per-call estimates for the analysis
/// they sit inside.
pub fn menu_metrics(out: &mut Outcome, process: &Process, library: &Library) {
    let probe = menus::table_probe(process, library);
    let stage = menus::stage_solve(process, library);
    out.put("table.probe_ns", probe.seconds_per_call * 1e9);
    out.put("stage.solve_us", stage.seconds_per_call * 1e6);
    out.notes.push(format!(
        "menu table.probe: {} ArcModel::lookup calls, {} answered",
        probe.calls, probe.work
    ));
    out.notes.push(format!(
        "menu stage.solve: {} StageSolver::solve_with calls, {} Newton iterations",
        stage.calls, stage.work
    ));
    let lookups =
        out.value("table.hits").unwrap_or(0.0) + out.value("table.fallbacks").unwrap_or(0.0);
    let solves = out.value("newton.solves").unwrap_or(0.0);
    out.notes.push(format!(
        "estimate: table probes ≈ {:.3} s, Newton solves ≈ {:.3} s of the analysis \
         (count × menu per-call cost, not a measurement)",
        lookups * probe.seconds_per_call,
        solves * stage.seconds_per_call
    ));
}

/// Median of the durations of every span called `name`, in seconds.
pub fn span_median(tr: &crate::trace::Tracer, name: &str) -> f64 {
    median(&tr.durations(name))
}
