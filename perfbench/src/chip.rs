//! `chip_iterative`: the s38417-like design (the paper's Table 2 run), one
//! Iterative analysis per fresh analyzer with the characterization store
//! already filled, so setup only replays it.

use std::time::Instant;

use xtalk::sta::graph::TimingGraph;
use xtalk::sta::report::ModeReport;
use xtalk::sta::serve::Json;
use xtalk::sta::{AnalysisMode, CharStore, ExecConfig, Sta};
use xtalk::wave::macromodel;
use xtalk_bench::{simulate_spec, to_sim_spec, Design};

use crate::common::{copy_into, file_bytes, measure, median, peak_rss_mb, ratio, Outcome};
use crate::design::{self, Loaded, Tech, CHIP_BENCH};
use crate::layers::{self, cpu_per_wall, span_median};
use crate::prep::{self, Reference};
use crate::trace::{Tracer, REGION};
use crate::Ctx;

const MODE: AnalysisMode = AnalysisMode::Iterative { esperance: false };
/// Fewest fresh-analyzer analyses per run, and fewest setups (a setup
/// costs a tenth of an analysis, so it is sampled more often).
const MIN_ANALYSES: usize = 3;
const MIN_SETUPS: usize = 7;
/// Aggressors and alignment rounds of the transient check (the settings
/// of the paper-table reproduction).
const SIM_AGGRESSORS: usize = 6;
const SIM_ROUNDS: usize = 2;

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let prep = prep::ensure(&ctx.root, ctx.build, prep::CHIP)?;
    let bench = copy_into(&prep.join(CHIP_BENCH), &ctx.run_dir).map_err(|e| e.to_string())?;
    let store =
        copy_into(&prep.join(prep::CHIP_CHARSTORE), &ctx.run_dir).map_err(|e| e.to_string())?;
    let reference = prep::read_reference(&prep.join(prep::CHIP_REF))?;
    let tech = Tech::new();
    let config = ExecConfig::default().with_char_store(Some(store.clone()));

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut analyses = Vec::new();
    let mut kernel_cpw = Vec::new();
    let mut problems: Vec<Option<String>> = Vec::new();
    let mut first: Option<ModeReport> = None;
    let mut last: Option<(Loaded, ModeReport)> = None;
    let mut replayed: Option<(u64, u64)> = None;
    let mut stages = 0usize;
    let grid0 = macromodel::char_solves();
    let started = Instant::now();
    loop {
        let analyze =
            analyses.len() < MIN_ANALYSES || started.elapsed().as_secs_f64() < ctx.seconds;
        if !analyze && setups.len() >= MIN_SETUPS {
            break;
        }
        let t0 = Instant::now();
        let region = tr.open(REGION, "setup");
        let loaded = design::load(&bench, &tech, tr)?;
        let sta = tr
            .span("sta", "Sta::with_config", || {
                Sta::with_config(
                    &loaded.netlist,
                    &tech.library,
                    &tech.process,
                    &loaded.parasitics,
                    config.clone(),
                )
            })
            .map_err(|e| e.to_string())?;
        tr.close(region);
        setups.push(t0.elapsed().as_secs_f64());
        stages = sta.graph().stages.len();
        if !analyze {
            continue;
        }
        if tr.on() {
            replayed = probe_layers(tr, &tech, &loaded, &store, ctx.threads).or(replayed);
        }

        let (result, cost) = measure(|| {
            tr.region("analysis", || {
                tr.span("sta::kernel", "Sta::analyze", || sta.analyze(MODE))
            })
        });
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                problems.push(Some(format!("analysis failed: {e}")));
                break;
            }
        };
        analyses.push(cost.wall);
        kernel_cpw.push(cpu_per_wall(cost.cpu, cost.wall));
        problems.push(check(&report, &reference, first.as_ref()));

        if tr.on() && last.is_none() {
            let cache = sta.cache_stats();
            out.put("cache.hits", cache.hits as f64);
            out.put(
                "cache.hit_ratio",
                ratio(cache.hits as f64, report.stage_solves as f64),
            );
            out.put("cache.admitted", cache.admitted as f64);
            out.put("cache.skipped", cache.skipped as f64);
            out.put("cache.evictions", cache.evictions as f64);
            out.put("graph.stages", stages as f64);
            out.put("graph.arcs", sta.graph().arc_count() as f64);
            let warm = tr.region("warm", || {
                tr.span("sta::kernel", "Sta::analyze (warm)", || sta.analyze(MODE))
            });
            if let Err(e) = warm {
                out.notes.push(format!("warm pass failed: {e}"));
            }
            out.put("kernel.warm_pass_s", span_median(tr, "Sta::analyze (warm)"));
        }
        drop(sta);
        if first.is_none() {
            first = Some(report.clone());
        }
        last = Some((loaded, report));
    }
    let Some((loaded, report)) = last else {
        return Err(problems
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join("; "));
    };

    // The transient check of the reported critical path, outside every
    // timed region.
    let design = Design {
        process: tech.process.clone(),
        library: tech.library.clone(),
        netlist: loaded.netlist,
        parasitics: loaded.parasitics,
        wirelength: loaded.wirelength,
        prep_seconds: 0.0,
    };
    let t_sim = Instant::now();
    let sim = to_sim_spec(&design, &report, SIM_AGGRESSORS)
        .and_then(|spec| simulate_spec(&design, &spec, SIM_ROUNDS).map(|s| (spec, s)));
    let sim_check_s = t_sim.elapsed().as_secs_f64();
    let sim_problem = match &sim {
        None => Some("critical path could not be simulated".to_string()),
        Some((spec, s)) if s.aligned > spec.sta_delay => Some(format!(
            "aligned simulation {:.3} ns exceeds the reported span {:.3} ns",
            s.aligned * 1e9,
            spec.sta_delay * 1e9
        )),
        Some(_) => None,
    };
    if let (Some(p), Some(last)) = (sim_problem, problems.last_mut()) {
        *last = Some(match last.take() {
            Some(q) => format!("{q}; {p}"),
            None => p,
        });
    }
    for p in problems {
        out.op(p);
    }

    out.put("setup_s", median(&setups));
    out.put("analysis_s", median(&analyses));
    out.put(
        "pessimism_pct",
        (report.longest_delay / reference.longest - 1.0) * 100.0,
    );
    out.put("peak_rss_mb", peak_rss_mb());

    out.meta.extend([
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&a| Json::num(a)).collect()),
        ),
        (
            "analysis_samples_s",
            Json::Arr(analyses.iter().map(|&a| Json::num(a)).collect()),
        ),
        ("gates", Json::num(design.netlist.gate_count() as f64)),
        ("nets", Json::num(design.netlist.net_count() as f64)),
        (
            "coupling_caps",
            Json::num((design.parasitics.coupling_count() / 2) as f64),
        ),
        ("stages", Json::num(stages as f64)),
        ("longest_ns", Json::num(report.longest_delay * 1e9)),
        ("signoff_longest_ns", Json::num(reference.longest * 1e9)),
        (
            "grid_solves",
            Json::num((macromodel::char_solves() - grid0) as f64),
        ),
    ]);

    if tr.on() {
        out.put("netlist.parse_s", span_median(tr, "bench::parse"));
        out.put("layout.place_s", span_median(tr, "place"));
        out.put("layout.route_s", span_median(tr, "route"));
        out.put("layout.extract_s", span_median(tr, "extract"));
        out.put(
            "layout.coupling_caps",
            (design.parasitics.coupling_count() / 2) as f64,
        );
        out.put("graph.build_s", span_median(tr, "TimingGraph::build"));
        out.put("char.prewarm_s", span_median(tr, "prewarm_library"));
        layers::char_counters(&mut out, macromodel::char_solves() - grid0);
        out.put(
            "charstore.replay_s",
            span_median(tr, "CharStore::open+load"),
        );
        let (records, corrupt) = replayed.unwrap_or_default();
        out.put("charstore.records", records as f64);
        out.put("charstore.skipped", corrupt as f64);
        out.put("charstore.bytes", file_bytes(&store) as f64);
        out.put("kernel.cpu_per_wall", median(&kernel_cpw));
        layers::analysis_counters(&mut out, &[&report]);
        if let Some((spec, s)) = &sim {
            out.put("sim.margin_pct", (spec.sta_delay / s.aligned - 1.0) * 100.0);
        }
        out.put("sim.check_s", sim_check_s);
        layers::menu_metrics(&mut out, &design.process, &design.library);
    }
    Ok(out)
}

/// Times the layers `Sta::with_config` runs internally by calling their
/// public functions directly, outside the setup region so `setup_s` stays
/// comparable with the untraced run. Returns the records and corrupt
/// records the store replay saw.
fn probe_layers(
    tr: &Tracer,
    tech: &Tech,
    loaded: &Loaded,
    store: &std::path::Path,
    threads: usize,
) -> Option<(u64, u64)> {
    tr.span("probe", "layer probes", || {
        let _ = tr.span("sta::graph", "TimingGraph::build", || {
            TimingGraph::build(
                &loaded.netlist,
                &tech.library,
                &tech.process,
                &loaded.parasitics,
            )
        });
        let replay = tr.span("sta::charstore", "CharStore::open+load", || {
            CharStore::open(store).and_then(|s| s.load())
        });
        tr.span("wave::macromodel", "prewarm_library", || {
            macromodel::prewarm_library(&tech.process, &tech.library, threads)
        });
        replay.ok().map(|r| (r.models, r.corrupt))
    })
}

/// The output checks of one analysis: no diagnostics, every endpoint at or
/// after its signoff arrival, and the same bits as the run's first
/// analysis.
fn check(report: &ModeReport, reference: &Reference, first: Option<&ModeReport>) -> Option<String> {
    let mut problems = Vec::new();
    if !report.diagnostics.is_empty() {
        problems.push(format!("{} diagnostics", report.diagnostics.len()));
    }
    let fast: std::collections::HashMap<usize, (Option<f64>, Option<f64>)> = report
        .endpoints
        .iter()
        .map(|e| (e.net.index(), (e.rise, e.fall)))
        .collect();
    let below = |f: Option<f64>, s: Option<f64>| match (f, s) {
        (_, None) => false,
        (None, Some(_)) => true,
        (Some(f), Some(s)) => f < s,
    };
    let optimistic = reference
        .endpoints
        .iter()
        .filter(|(net, rise, fall)| match fast.get(net) {
            None => true,
            Some(&(fr, ff)) => below(fr, *rise) || below(ff, *fall),
        })
        .count();
    if optimistic > 0 {
        problems.push(format!(
            "{optimistic} endpoints arrive before their signoff arrival"
        ));
    }
    if let Some(d) = first.and_then(|f| design::bits_differ(f, report)) {
        problems.push(format!("not deterministic: {d}"));
    }
    (!problems.is_empty()).then(|| problems.join("; "))
}
