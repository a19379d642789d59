//! `corners_cold`: the medium block brought up at ss/tt/ff from an empty
//! characterization store — the sweep every new corner (and every default
//! `xtalk report` without `--char-store`) pays — then one OneStep scenario
//! matrix and the Liberty view at tt.

use std::path::Path;
use std::time::Instant;

use xtalk::sta::report::{ModeReport, ScenarioReport};
use xtalk::sta::serve::Json;
use xtalk::sta::{open_char_store, AnalysisMode, CharStore, ExecConfig, ScenarioMatrix, Sta};
use xtalk::tech::{Corner, Process};
use xtalk::wave::macromodel::{self, GRID_LOADS, GRID_RATIOS, GRID_SLEWS};
use xtalk::wave::StableHasher;

use crate::common::{copy_into, file_bytes, measure, median, peak_rss_mb, ratio, Outcome};
use crate::design::{self, Loaded, Tech, MEDIUM_BENCH};
use crate::layers::{self, cpu_per_wall, span_median};
use crate::prep;
use crate::trace::{Tracer, REGION};
use crate::Ctx;

const MODE: AnalysisMode = AnalysisMode::OneStep;
/// Fewest cold bring-ups per run (each sweeps three corners).
const MIN_SETUPS: usize = 2;
/// Matrix runs per bring-up: the cold matrix's own run, then runs on
/// fresh matrices over the same store — identical work (each `run`
/// replays the store per corner and starts with empty solve caches).
const RUNS_PER_SETUP: usize = 6;

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let prep = prep::ensure(&ctx.root, ctx.build, prep::CORNERS)?;
    let bench = copy_into(&prep.join(MEDIUM_BENCH), &ctx.run_dir).map_err(|e| e.to_string())?;
    let signoff = prep::read_corner_reference(&prep.join(prep::CORNERS_REF))?;
    let tech = Tech::new();
    let corners = Corner::default_matrix();

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut analyses = Vec::new();
    let mut prewarm_cpw = Vec::new();
    let mut kernel_cpw = Vec::new();
    let mut grid_solves = 0usize;
    let mut last: Option<(Loaded, ScenarioReport, std::path::PathBuf)> = None;
    let started = Instant::now();
    let mut i = 0usize;
    while i < MIN_SETUPS || started.elapsed().as_secs_f64() < ctx.seconds {
        // Cold: no table in the process and an empty store on disk.
        macromodel::clear_store();
        let store = ctx.run_dir.join(format!("corners-{i}.charstore"));
        let grid0 = macromodel::char_solves();
        let t0 = Instant::now();
        let region = tr.open(REGION, "setup");
        let loaded = design::load(&bench, &tech, tr)?;
        let matrix = tr
            .span("sta::scenario", "ScenarioMatrix::new", || {
                ScenarioMatrix::new(
                    &loaded.netlist,
                    &tech.library,
                    &tech.process,
                    &loaded.parasitics,
                    corners.clone(),
                    ExecConfig::default().with_char_store(Some(store.clone())),
                )
            })
            .map_err(|e| e.to_string())?;
        let ((), prewarm) = measure(|| {
            tr.span("wave::macromodel", "ScenarioMatrix::prewarm", || {
                matrix.prewarm()
            })
        });
        tr.close(region);
        setups.push(t0.elapsed().as_secs_f64());
        prewarm_cpw.push(cpu_per_wall(prewarm.cpu, prewarm.wall));
        grid_solves = macromodel::char_solves() - grid0;

        let (result, cost) = measure(|| {
            tr.region("analysis", || {
                tr.span("sta::kernel", "ScenarioMatrix::run", || matrix.run(&[MODE]))
            })
        });
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.op(Some(format!("scenario run failed: {e}")));
                break;
            }
        };
        analyses.push(cost.wall);
        kernel_cpw.push(cpu_per_wall(cost.cpu, cost.wall));
        if tr.on() && i == 0 {
            let warm = tr.region("warm", || {
                tr.span("sta::kernel", "ScenarioMatrix::run (warm)", || {
                    matrix.run(&[MODE])
                })
            });
            if let Err(e) = warm {
                out.notes.push(format!("warm pass failed: {e}"));
            }
        }
        for _ in 1..RUNS_PER_SETUP {
            let fresh = ScenarioMatrix::new(
                &loaded.netlist,
                &tech.library,
                &tech.process,
                &loaded.parasitics,
                corners.clone(),
                ExecConfig::default().with_char_store(Some(store.clone())),
            )
            .map_err(|e| e.to_string())?;
            let (again, cost) = measure(|| {
                tr.region("analysis", || {
                    tr.span("sta::kernel", "ScenarioMatrix::run", || fresh.run(&[MODE]))
                })
            });
            let problem = match again {
                Ok(r) => runs_differ(&report, &r),
                Err(e) => Some(format!("scenario run failed: {e}")),
            };
            out.op(problem);
            analyses.push(cost.wall);
            kernel_cpw.push(cpu_per_wall(cost.cpu, cost.wall));
        }
        drop(matrix);
        for problem in check_standalone(&tech, &loaded, &corners, &report, &store) {
            out.op(problem);
        }
        last = Some((loaded, report, store));
        i += 1;
    }
    let Some((loaded, report, store)) = last else {
        return Err(out.failures.join("; "));
    };

    // The Liberty view at tt, through the calls `xtalk liberty` makes.
    let tt = tech.process.corner(&Corner::tt());
    let lib_path = ctx.run_dir.join("tt.lib");
    let t0 = Instant::now();
    let exported = tr.region("liberty", || {
        export_liberty(tr, &tt, &tech, &store, &lib_path)
    });
    let liberty_s = t0.elapsed().as_secs_f64();
    out.op(match &exported {
        Ok(cells) if *cells == tech.library.iter().count() => None,
        Ok(cells) => Some(format!("liberty export wrote {cells} cells")),
        Err(e) => Some(format!("liberty export failed: {e}")),
    });

    let mut worst = f64::NEG_INFINITY;
    for (run, (name, reference)) in report.corners.iter().zip(&signoff) {
        if run.corner != *name {
            return Err(format!("corner order {} vs reference {name}", run.corner));
        }
        worst = worst.max((run.reports[0].longest_delay / reference - 1.0) * 100.0);
    }
    out.put("setup_s", median(&setups));
    out.put("analysis_s", median(&analyses));
    out.put("pessimism_pct", worst);
    out.put("peak_rss_mb", peak_rss_mb());
    out.put("liberty_s", liberty_s);

    let corner_reports: Vec<&ModeReport> = report.corners.iter().map(|c| &c.reports[0]).collect();
    let graph = tr.span("probe", "layer probes", || {
        tr.span("sta::graph", "TimingGraph::build", || {
            xtalk::sta::graph::TimingGraph::build(
                &loaded.netlist,
                &tech.library,
                &tt,
                &loaded.parasitics,
            )
        })
    });
    let (stages, arcs) = graph
        .as_ref()
        .map_or((0, 0), |g| (g.stages.len(), g.arc_count()));
    out.meta.extend([
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&a| Json::num(a)).collect()),
        ),
        (
            "analysis_samples_s",
            Json::Arr(analyses.iter().map(|&a| Json::num(a)).collect()),
        ),
        ("gates", Json::num(loaded.netlist.gate_count() as f64)),
        ("nets", Json::num(loaded.netlist.net_count() as f64)),
        (
            "coupling_caps",
            Json::num((loaded.parasitics.coupling_count() / 2) as f64),
        ),
        ("stages", Json::num(stages as f64)),
        ("grid_solves", Json::num(grid_solves as f64)),
        ("prewarm_cpu_per_wall", Json::num(median(&prewarm_cpw))),
    ]);

    if tr.on() {
        out.put("netlist.parse_s", span_median(tr, "bench::parse"));
        out.put("layout.place_s", span_median(tr, "place"));
        out.put("layout.route_s", span_median(tr, "route"));
        out.put("layout.extract_s", span_median(tr, "extract"));
        out.put(
            "layout.coupling_caps",
            (loaded.parasitics.coupling_count() / 2) as f64,
        );
        out.put("graph.stages", stages as f64);
        out.put("graph.arcs", arcs as f64);
        out.put("graph.build_s", span_median(tr, "TimingGraph::build"));
        out.put("char.prewarm_s", span_median(tr, "ScenarioMatrix::prewarm"));
        out.put("char.cpu_per_wall", median(&prewarm_cpw));
        layers::char_counters(&mut out, grid_solves);
        // The store as this run leaves it: what the next bring-up replays.
        let replay = tr.span("probe", "layer probes", || {
            tr.span("sta::charstore", "CharStore::open+load", || {
                CharStore::open(&store).and_then(|s| s.load())
            })
        });
        out.put(
            "charstore.replay_s",
            span_median(tr, "CharStore::open+load"),
        );
        if let Ok(r) = replay {
            out.put("charstore.records", r.models as f64);
            out.put("charstore.skipped", r.corrupt as f64);
        }
        out.put("charstore.bytes", file_bytes(&store) as f64);
        let sweep: f64 = tr.durations("characterize_cell_coupled").iter().sum();
        out.put("liberty.sweep_s", sweep);
        let write: f64 = tr.durations("liberty::write").iter().sum::<f64>()
            + tr.durations("fs::write").iter().sum::<f64>();
        out.put("liberty.write_s", write);
        out.put("liberty.cells", *exported.as_ref().unwrap_or(&0) as f64);
        out.put("kernel.cpu_per_wall", median(&kernel_cpw));
        out.put(
            "kernel.warm_pass_s",
            span_median(tr, "ScenarioMatrix::run (warm)"),
        );
        layers::analysis_counters(&mut out, &corner_reports);
        let stage_solves = out.value("kernel.stage_solves").unwrap_or(0.0);
        // Keyed-cache answers: reuse-layer hits minus the table and memo
        // subsets (a scenario matrix exposes no cache counters of its own).
        let keyed: f64 = corner_reports
            .iter()
            .map(|r| (r.cache_hits - r.table_hits - r.warm_hits) as f64)
            .sum();
        out.put("cache.hits", keyed);
        out.put("cache.hit_ratio", ratio(keyed, stage_solves));
        out.notes.push(
            "unavailable on corners_cold: cache.admitted, cache.skipped, cache.evictions \
             (ScenarioMatrix exposes no cache counters); cache.hits is derived from the \
             ModeReports"
                .to_string(),
        );
        out.put(
            "scenario.newton_iters",
            report.corner_iters.iter().sum::<usize>() as f64,
        );
        layers::menu_metrics(&mut out, &tt, &tech.library);
    }
    Ok(out)
}

/// The first per-corner bit difference between two matrix runs.
fn runs_differ(a: &ScenarioReport, b: &ScenarioReport) -> Option<String> {
    a.corners.iter().zip(&b.corners).find_map(|(x, y)| {
        design::bits_differ(&x.reports[0], &y.reports[0])
            .map(|d| format!("corner {}: repeated matrix run: {d}", x.corner))
    })
}

/// Rebuilds each corner alone from the store the bring-up wrote, with no
/// table left in the process: each rebuild must pay zero grid solves and
/// reproduce the matrix's bits. One operation per corner.
fn check_standalone(
    tech: &Tech,
    loaded: &Loaded,
    corners: &[Corner],
    report: &ScenarioReport,
    store: &Path,
) -> Vec<Option<String>> {
    macromodel::clear_store();
    corners
        .iter()
        .zip(&report.corners)
        .map(|(corner, run)| {
            let matrix = &run.reports[0];
            let process = tech.process.corner(corner);
            let grid0 = macromodel::char_solves();
            let solo = Sta::with_config(
                &loaded.netlist,
                &tech.library,
                &process,
                &loaded.parasitics,
                ExecConfig::default().with_char_store(Some(store.to_path_buf())),
            )
            .and_then(|sta| sta.analyze(MODE));
            let grid = macromodel::char_solves() - grid0;
            let mut problems = Vec::new();
            if !matrix.diagnostics.is_empty() {
                problems.push(format!("{} diagnostics", matrix.diagnostics.len()));
            }
            match solo {
                Err(e) => problems.push(format!("standalone run failed: {e}")),
                Ok(solo) => {
                    if let Some(d) = design::bits_differ(matrix, &solo) {
                        problems.push(format!("matrix vs store-warm standalone: {d}"));
                    }
                }
            }
            if grid > 0 {
                problems.push(format!("store-warm rebuild paid {grid} grid solves"));
            }
            (!problems.is_empty())
                .then(|| format!("corner {}: {}", corner.name, problems.join("; ")))
        })
        .collect()
}

/// Characterizes every cell at `process` (or replays it from the store)
/// and writes the `.lib`; returns the number of cells exported.
fn export_liberty(
    tr: &Tracer,
    process: &Process,
    tech: &Tech,
    store: &Path,
    out: &Path,
) -> Result<usize, String> {
    let store = tr
        .span("sta::charstore", "open_char_store+load", || {
            let s = open_char_store(store)?;
            s.load()?;
            Ok::<_, std::io::Error>(s)
        })
        .map_err(|e| e.to_string())?;
    let cell_key = |name: &str| {
        let mut h = StableHasher::default();
        h.write_u64(macromodel::process_sig(process));
        h.write_bytes(name.as_bytes());
        for v in GRID_SLEWS.iter().chain(&GRID_LOADS).chain(&GRID_RATIOS) {
            h.write_u64(v.to_bits());
        }
        h.finish()
    };
    let mut tables = Vec::new();
    for cell in &tech.library {
        let key = cell_key(&cell.name);
        if let Some(t) = store.liberty_tables(key) {
            tables.push(t);
            continue;
        }
        let t = tr
            .span("wave::characterize", "characterize_cell_coupled", || {
                xtalk::wave::characterize::characterize_cell_coupled(
                    process,
                    cell,
                    &GRID_SLEWS,
                    &GRID_LOADS,
                    &GRID_RATIOS,
                )
            })
            .map_err(|e| format!("{}: {e}", cell.name))?;
        tr.span("sta::charstore", "append_liberty", || {
            store.append_liberty(key, &t)
        })
        .map_err(|e| e.to_string())?;
        tables.push(t);
    }
    let text = tr.span("wave::liberty", "liberty::write", || {
        xtalk::wave::liberty::write(process, &tech.library, &tables)
    });
    tr.span("wave::liberty", "fs::write", || std::fs::write(out, &text))
        .map_err(|e| e.to_string())?;
    Ok(tables.len())
}
