//! Macro-benchmarks: full analyses per mode — the runtime columns of the
//! paper's Tables 1–3, at benchable scale.
//!
//! The paper's complexity claims to verify: one-step keeps the BFS linear
//! with two waveform calculations per arc (≈2x a plain pass), the iterative
//! refinement costs at least three passes' worth, and Esperance brings the
//! iterative cost down.
//!
//! Scale is selected with `XTALK_STA_SCALE` (`small` (default), `medium`,
//! `s38417`): criterion-style sampling at the small scale, one-shot
//! measurements for the larger configs. Every run also measures the
//! execution layer on `Iterative`: wall/CPU time and Newton-solve counts
//! with solve reuse off (the pre-cache engine) vs on — one cold
//! analysis and one warm re-analysis on the same analyzer — asserts all
//! three produce bit-identical delays, and appends the numbers to
//! `BENCH_sta.json` at the workspace root. Those three rows run in
//! *signoff* mode (pre-macromodel engine); two more rows measure the
//! characterized-table fast path (`macromodel_cold` / `macromodel_warm`)
//! and assert a macromodel cold run never costs more than the cached cold
//! run and is never optimistic versus signoff.
//!
//! A third section (`solver_layer`) micro-benchmarks the stage solver
//! itself on a fixed menu of solves through three engine variants —
//! cold-start Newton, warm-started Newton, and warm-started Newton over a
//! reused scratch — asserting the warm seed strictly cuts total Newton
//! iterations and that scratch reuse changes nothing but allocations.
//! Each engine's sweep runs three times and reports the minimum (the run
//! least perturbed by scheduler noise).
//!
//! A fourth section (`serve_layer`) runs the same analysis through the
//! timing-service daemon three ways — first-client cold, disk-warm after
//! a daemon restart on the populated solve store, and resident-warm —
//! asserting bit-identity throughout and that the disk-warm restart
//! strictly cuts Newton iterations versus the cold start.
//!
//! A fifth section (`char_layer`) measures macromodel characterization:
//! serial vs pooled prewarm (equal store digests, pooled no slower) and
//! the ss/tt/ff scenario matrix cold vs store-warm against an on-disk
//! characterization store (zero characterization Newton solves and >= 5x
//! end-to-end on the replay, bit-identical results).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use xtalk::prelude::*;
use xtalk_bench::{build_design, exec_config, Design};

fn scale() -> (GeneratorConfig, &'static str, bool) {
    match std::env::var("XTALK_STA_SCALE").as_deref() {
        Ok("s38417") => (GeneratorConfig::s38417_like(), "s38417_like", true),
        Ok("medium") => (GeneratorConfig::medium(4242), "medium", false),
        // ~200 cells: large enough to have real couplings, small enough
        // for statistically meaningful Criterion runs.
        _ => (GeneratorConfig::small(4242), "small", false),
    }
}

const MODES: [AnalysisMode; 6] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
    AnalysisMode::Iterative { esperance: true },
];

fn bench_sta_modes(c: &mut Criterion) {
    let (config, label, one_shot) = scale();
    let d = build_design(&config);

    if !one_shot {
        // Built here rather than above: at one-shot scale this analyzer is
        // never used, and constructing it would characterize the design's
        // macromodel arcs — minutes of Newton work whose heap
        // churn would precede (and perturb) the timed exec-layer rows.
        let sta = d.sta();
        let mut group = c.benchmark_group("sta_modes");
        group.sample_size(10);
        for mode in MODES {
            group.bench_with_input(
                BenchmarkId::from_parameter(mode.to_string().replace(' ', "_")),
                &mode,
                |b, &mode| b.iter(|| black_box(sta.analyze(mode).expect("analysis").longest_delay)),
            );
        }
        group.finish();
    }

    report_exec_layer(&d, label);
}

/// Wall and CPU seconds consumed by one closure call. CPU time comes from
/// `/proc/self/stat` (utime + stime across all threads) and falls back to
/// the wall reading off Linux; it is the noise-resistant number on shared
/// hosts, where single-shot wall clocks of minute-long runs vary by tens
/// of percent.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let value = f();
    let wall = started.elapsed().as_secs_f64();
    let cpu = match (cpu0, cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => wall,
    };
    (value, wall, cpu)
}

fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14/15 (utime/stime, clock ticks) follow the parenthesised
    // command name; split after the closing paren to survive spaces in it.
    let after = stat.rsplit(')').next()?;
    let mut fields = after.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every mainstream Linux configuration.
    Some((utime + stime) / 100.0)
}

/// One-shot measurement of the execution layer on the refinement mode:
/// pre-cache engine (serial, cache off) vs the cached engine — one cold
/// analysis plus one warm re-analysis on the same analyzer — asserting
/// bit-identical results, printing the speedups, and appending a JSON
/// record per measurement to `BENCH_sta.json`.
fn report_exec_layer(d: &Design, label: &str) {
    let mode = AnalysisMode::Iterative { esperance: false };
    let threads = exec_config().threads;

    // The baseline / cached_cold / cached_warm rows run in signoff so they
    // stay comparable with every record taken before the macromodel fast
    // path existed (and so the bit-identity asserts below keep their
    // original meaning). The fast path gets its own rows afterwards.
    let baseline_sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial().with_cache(false).with_signoff(true),
    )
    .expect("sta");
    let (baseline, baseline_wall, baseline_cpu) =
        timed(|| baseline_sta.analyze(mode).expect("baseline"));

    let cached_sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        exec_config().with_signoff(true),
    )
    .expect("sta");
    let (cached, cached_wall, cached_cpu) = timed(|| cached_sta.analyze(mode).expect("cached"));
    // The warm re-analysis: the per-stage memo answers every solve, the
    // workload of repeated what-if / ECO analyses on one analyzer.
    let (warm, warm_wall, warm_cpu) = timed(|| cached_sta.analyze(mode).expect("warm"));

    assert_eq!(
        baseline.longest_delay.to_bits(),
        cached.longest_delay.to_bits()
    );
    assert_eq!(
        baseline.longest_delay.to_bits(),
        warm.longest_delay.to_bits()
    );
    assert!(
        cached.newton_solves < baseline.newton_solves,
        "cache did not reduce Newton solves on refinement passes \
         ({} vs {})",
        cached.newton_solves,
        baseline.newton_solves
    );
    // Cost-aware admission exists so the reuse layers never make a cold run
    // slower than the uncached engine, at any scale. CPU time is the
    // noise-resistant number; wall gets the same bound with headroom for
    // single-shot scheduling scatter on shared hosts.
    assert!(
        cached_cpu <= baseline_cpu * 1.05,
        "cold cached run regressed vs the uncached baseline \
         ({cached_cpu:.3} s cpu vs {baseline_cpu:.3} s cpu)"
    );
    assert!(
        cached_wall <= baseline_wall * 1.10,
        "cold cached run regressed vs the uncached baseline \
         ({cached_wall:.3} s wall vs {baseline_wall:.3} s wall)"
    );
    assert_eq!(warm.newton_solves, 0, "warm re-analysis re-integrated");

    // The macromodel fast path (default engine): characterized delay tables
    // answer in-grid stage solves, Newton covers the rest. Characterization
    // happens inside `Sta::with_config` (build time), so the analysis
    // region times pure solving — the same region the signoff rows time —
    // and the build region, measured from an emptied store, is the prewarm
    // wall the JSON rows report separately (`prewarm_wall_s` vs
    // `solve_wall_s`).
    xtalk::wave::macromodel::clear_store();
    let (fast_sta, prewarm_wall, prewarm_cpu) = timed(|| {
        Sta::with_config(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            exec_config().with_signoff(false),
        )
        .expect("sta")
    });
    let (fast, fast_wall, fast_cpu) = timed(|| fast_sta.analyze(mode).expect("macromodel cold"));
    let (fast_warm, fast_warm_wall, fast_warm_cpu) =
        timed(|| fast_sta.analyze(mode).expect("macromodel warm"));
    assert!(
        fast.table_hits > 0,
        "macromodel tables never engaged at scale {label}"
    );
    // Safety: tables only ever add certified pessimism.
    assert!(
        fast.longest_delay >= baseline.longest_delay - 1e-12,
        "macromodel run optimistic vs signoff ({} vs {})",
        fast.longest_delay,
        baseline.longest_delay
    );
    // The fast path must earn its keep: a macromodel cold run never costs
    // more than the cached cold run it short-circuits (CI smoke gate).
    assert!(
        fast_cpu <= cached_cpu * 1.05,
        "macromodel cold run regressed vs the cached engine \
         ({fast_cpu:.3} s cpu vs {cached_cpu:.3} s cpu)"
    );
    assert!(
        fast_wall <= cached_wall * 1.10,
        "macromodel cold run regressed vs the cached engine \
         ({fast_wall:.3} s wall vs {cached_wall:.3} s wall)"
    );

    println!(
        "sta_exec/{label}: baseline {baseline_wall:.3} s wall / {baseline_cpu:.3} s cpu \
         ({} newton), {} threads",
        baseline.newton_solves, threads,
    );
    for (name, report, wall, cpu) in [
        ("cached/cold", &cached, cached_wall, cached_cpu),
        ("cached/warm", &warm, warm_wall, warm_cpu),
        ("macromodel/cold", &fast, fast_wall, fast_cpu),
        ("macromodel/warm", &fast_warm, fast_warm_wall, fast_warm_cpu),
    ] {
        println!(
            "sta_exec/{label}: {name} {wall:.3} s wall / {cpu:.3} s cpu \
             ({} newton, {} hits, {} table), speedup {:.2}x wall / {:.2}x cpu",
            report.newton_solves,
            report.cache_hits,
            report.table_hits,
            baseline_wall / wall.max(1e-9),
            baseline_cpu / cpu.max(1e-9),
        );
    }
    println!(
        "sta_exec/{label}: macromodel {} table hits / {} fallbacks, \
         residual <= {:.1} ps",
        fast.table_hits,
        fast.table_fallbacks,
        fast.table_residual * 1e12
    );
    println!(
        "sta_exec/{label}: macromodel prewarm {prewarm_wall:.3} s wall / \
         {prewarm_cpu:.3} s cpu (build-time characterization, split out of \
         the solve rows)"
    );
    for (i, p) in cached.pass_stats.iter().enumerate() {
        println!(
            "sta_exec/{label}: pass {} delay {:.3} ns, {} calls, {} newton \
             ({} iters), {} hits ({:.0}%, {} warm), hist {:?}",
            i + 1,
            p.delay * 1e9,
            p.work.stage_solves,
            p.work.newton_solves,
            p.work.newton_iters,
            p.work.cache_hits,
            100.0 * p.work.hit_ratio(),
            p.work.warm_hits,
            p.work.iter_hist,
        );
    }

    let mut rows_json: Vec<String> = Vec::new();
    // The macromodel rows split their time into the characterization
    // (`prewarm_wall_s`, paid once per process+corner and amortized by
    // the on-disk store) and the analysis proper (`solve_wall_s`, what
    // `wall_s` always meant for these rows and still means).
    let rows = [
        ("baseline", &baseline, baseline_wall, baseline_cpu, 0.0, 0.0),
        ("cached_cold", &cached, cached_wall, cached_cpu, 0.0, 0.0),
        ("cached_warm", &warm, warm_wall, warm_cpu, 0.0, 0.0),
        (
            "macromodel_cold",
            &fast,
            fast_wall,
            fast_cpu,
            prewarm_wall,
            prewarm_cpu,
        ),
        (
            "macromodel_warm",
            &fast_warm,
            fast_warm_wall,
            fast_warm_cpu,
            0.0,
            0.0,
        ),
    ];
    for (engine, report, wall, cpu, pw_wall, pw_cpu) in rows.iter() {
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"sta_modes\", \"engine\": \"{engine}\", \
             \"mode\": \"{mode}\", \"scale\": \"{label}\", \
             \"gates\": {}, \"threads\": {}, \"wall_s\": {wall:.6}, \
             \"cpu_s\": {cpu:.6}, \"passes\": {}, \"stage_solves\": {}, \
             \"newton_solves\": {}, \"newton_iters\": {}, \
             \"cache_hits\": {}, \"warm_hits\": {}, \
             \"table_hits\": {}, \"table_fallbacks\": {}",
            d.netlist.gate_count(),
            if *engine == "baseline" { 1 } else { threads },
            report.passes,
            report.stage_solves,
            report.newton_solves,
            report.newton_iters,
            report.cache_hits,
            report.warm_hits,
            report.table_hits,
            report.table_fallbacks,
        );
        if engine.starts_with("macromodel") {
            let _ = write!(
                row,
                ", \"prewarm_wall_s\": {pw_wall:.6}, \"prewarm_cpu_s\": {pw_cpu:.6}, \
                 \"solve_wall_s\": {wall:.6}, \"solve_cpu_s\": {cpu:.6}"
            );
        }
        row.push('}');
        rows_json.push(row);
    }
    rows_json.extend(report_graph_layer(d, label));
    rows_json.extend(report_solver_layer(d, label));
    rows_json.extend(report_serve_layer(d, label));
    rows_json.extend(report_scenario_layer(d, label));
    // Last: the characterization layer clears the process-global model
    // store to measure cold prewarms, so nothing may run after it that
    // expects a warm store.
    rows_json.extend(report_char_layer(d, label));
    write_bench_json(rows_json, label);
}

/// One-shot measurement of the graph layer: timing-graph construction and
/// pure propagation (serial, cache off, one-step coupling policy — the
/// workload that walks fanout, levels and coupling adjacency hardest).
fn report_graph_layer(d: &Design, label: &str) -> Vec<String> {
    // Graph construction, amortized over enough builds for a stable read.
    let iters: usize = match label {
        "small" => 50,
        "medium" => 10,
        _ => 3,
    };
    let (_, build_wall, build_cpu) = timed(|| {
        for _ in 0..iters {
            let sta = d.sta();
            black_box(sta.graph().arc_count());
        }
    });
    let (build_wall, build_cpu) = (build_wall / iters as f64, build_cpu / iters as f64);

    // Pure propagation over the built graph: serial, cache off, signoff —
    // no macromodel short-circuits in the measured region.
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial().with_cache(false).with_signoff(true),
    )
    .expect("sta");
    let (report, prop_wall, prop_cpu) =
        timed(|| sta.analyze(AnalysisMode::OneStep).expect("one-step"));

    println!(
        "graph_layer/{label}: build {:.6} s wall / {:.6} s cpu (x{iters}), \
         one-step propagation {prop_wall:.3} s wall / {prop_cpu:.3} s cpu ({} solves)",
        build_wall, build_cpu, report.stage_solves,
    );

    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"bench\": \"graph_layer\", \"scale\": \"{label}\", \
         \"gates\": {}, \"stages\": {}, \"arcs\": {}, \
         \"build_wall_s\": {build_wall:.6}, \"build_cpu_s\": {build_cpu:.6}, \
         \"onestep_wall_s\": {prop_wall:.6}, \"onestep_cpu_s\": {prop_cpu:.6}, \
         \"stage_solves\": {}}}",
        d.netlist.gate_count(),
        sta.graph().stages.len(),
        sta.graph().arc_count(),
        report.stage_solves,
    );
    vec![row]
}

/// One-shot A/B/C of the stage-solver layer on a fixed menu of solves —
/// two cells, three input slews, three loads, both directions, plus an
/// active-coupling variant per (cell, slew, load) — through three engines:
///
/// - `baseline`: cold-start Newton, fresh scratch every solve (the
///   pre-warm-start integrator);
/// - `warm_start`: trajectory-extrapolated Newton seed, fresh scratch;
/// - `warm_start_scratch`: warm seed plus one reused [`StageScratch`]
///   (zero steady-state allocations — the production kernel path).
///
/// Asserts the warm seed strictly cuts total Newton iterations and that
/// scratch reuse leaves iteration counts and waveform bits untouched.
fn report_solver_layer(d: &Design, label: &str) -> Vec<String> {
    use xtalk::wave::stage::{Coupling, Load, StageScratch, StageSolver};

    let p = &d.process;
    let reps: usize = match label {
        "small" => 20,
        "medium" => 60,
        _ => 200,
    };

    struct Item<'a> {
        stage: &'a xtalk::tech::cell::Stage,
        side: &'a [f64],
        input: Waveform,
        load: Load,
    }
    let nand_side = [0.0, p.vdd];
    let mut menu: Vec<Item<'_>> = Vec::new();
    for name in ["INVX1", "NAND2X1"] {
        let cell = d.library.cell(name).expect("library cell");
        let stage = &cell.stages[0];
        let side: &[f64] = if stage.inputs.len() > 1 {
            &nand_side
        } else {
            &[]
        };
        for slew in [0.05e-9, 0.2e-9, 0.8e-9] {
            for cl in [10e-15, 40e-15, 160e-15] {
                for rising in [false, true] {
                    let (v0, v1) = if rising { (0.0, p.vdd) } else { (p.vdd, 0.0) };
                    menu.push(Item {
                        stage,
                        side,
                        input: Waveform::ramp(0.0, slew, v0, v1).expect("ramp"),
                        load: Load::grounded(cl),
                    });
                }
                // Active coupling exercises the snap restart, which the warm
                // seed must not extrapolate across.
                menu.push(Item {
                    stage,
                    side,
                    input: Waveform::ramp(0.0, slew, p.vdd, 0.0).expect("ramp"),
                    load: Load {
                        cground: cl,
                        couplings: vec![Coupling::new(0.25 * cl, CouplingMode::Active)],
                    },
                });
            }
        }
    }

    let mut rows = Vec::new();
    let mut iters_by_engine = Vec::new();
    // Min-of-3 per engine: single-shot sweeps on a shared host scatter by
    // tens of percent, and the *minimum* is the run least perturbed by
    // scheduling noise. Counters are deterministic, so only time varies.
    const RUNS: usize = 3;
    for (engine, warm, reuse_scratch) in [
        ("baseline", false, false),
        ("warm_start", true, false),
        ("warm_start_scratch", true, true),
    ] {
        let solver = StageSolver::new(p).with_warm_newton(warm);
        let mut wall = f64::INFINITY;
        let mut cpu = f64::INFINITY;
        let mut solves = 0usize;
        let mut iters = 0usize;
        let mut steps = 0usize;
        for _ in 0..RUNS {
            let mut scratch = StageScratch::new();
            solves = 0;
            iters = 0;
            steps = 0;
            let ((), run_wall, run_cpu) = timed(|| {
                for _ in 0..reps {
                    for s in &menu {
                        let (i, st) = if reuse_scratch {
                            let r = solver
                                .solve_with(&mut scratch, s.stage, 0, &s.input, s.side, &s.load)
                                .expect("stage solve");
                            black_box(r.wave.final_value());
                            (r.newton_iters, r.steps)
                        } else {
                            let r = solver
                                .solve(s.stage, 0, &s.input, s.side, s.load.clone())
                                .expect("stage solve");
                            black_box(r.wave.final_value());
                            (r.newton_iters, r.steps)
                        };
                        solves += 1;
                        iters += i;
                        steps += st;
                    }
                }
            });
            wall = wall.min(run_wall);
            cpu = cpu.min(run_cpu);
        }
        println!(
            "solver_layer/{label}: {engine} {solves} solves, {iters} newton iters, \
             {steps} steps, {wall:.3} s wall / {cpu:.3} s cpu (min of {RUNS})"
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"sta_modes\", \"section\": \"solver_layer\", \
             \"engine\": \"{engine}\", \"scale\": \"{label}\", \
             \"solves\": {solves}, \"newton_iters\": {iters}, \"steps\": {steps}, \
             \"wall_s\": {wall:.6}, \"cpu_s\": {cpu:.6}}}"
        );
        rows.push(row);
        iters_by_engine.push(iters);
    }

    assert!(
        iters_by_engine[1] < iters_by_engine[0],
        "warm-started Newton must strictly cut total iterations \
         ({} vs baseline {})",
        iters_by_engine[1],
        iters_by_engine[0]
    );
    assert_eq!(
        iters_by_engine[2], iters_by_engine[1],
        "scratch reuse changed the Newton iteration count"
    );
    // Bit-identity of the production path: one unmeasured verification
    // sweep comparing solve() against solve_with() on a dirty scratch.
    let solver = StageSolver::new(p);
    let mut scratch = StageScratch::new();
    for s in &menu {
        let fresh = solver
            .solve(s.stage, 0, &s.input, s.side, s.load.clone())
            .expect("fresh solve");
        let lean = solver
            .solve_with(&mut scratch, s.stage, 0, &s.input, s.side, &s.load)
            .expect("scratch solve");
        assert_eq!(fresh.wave, lean.wave, "scratch reuse changed waveform bits");
        assert_eq!(fresh.newton_iters, lean.newton_iters);
    }

    rows
}

/// One-shot measurement of the timing-service layer: the refinement-mode
/// analysis served three ways over a Unix socket in-process —
///
/// - `serve_cold`: the first client analysis against a fresh daemon with
///   an empty solve store (pays the full Newton bill, populates the store
///   through the write-behind journal);
/// - `serve_disk_warm`: a fresh daemon restarted on that populated store,
///   first client analysis (replayed entries answer solves from disk);
/// - `serve_resident_warm`: a repeat analysis against the still-resident
///   session (the per-session arrival memo answers everything).
///
/// Asserts all three delays are bit-identical and that the disk-warm
/// restart solves strictly fewer Newton iterations than the cold start.
fn report_serve_layer(d: &Design, label: &str) -> Vec<String> {
    use std::time::Duration;
    use xtalk::sta::serve::{Client, Daemon, Json, ServeConfig};

    let dir = std::env::temp_dir().join(format!("xtalk_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let netlist_path = dir.join(format!("{label}.bench"));
    let text = xtalk::netlist::bench::write(&d.netlist, &d.library).expect("bench text");
    std::fs::write(&netlist_path, text).expect("write netlist");
    let store = dir.join(format!("{label}.store"));
    let _ = std::fs::remove_file(&store);
    let socket = dir.join(format!("{label}.sock"));

    let start = |socket: &std::path::Path, store: &std::path::Path| {
        let daemon = Daemon::bind(
            ServeConfig::new(socket)
                .with_store(Some(store.to_path_buf()))
                .with_exec(exec_config()),
        )
        .expect("bind daemon");
        std::thread::spawn(move || daemon.run().expect("daemon run"))
    };
    let load = |client: &mut Client| {
        let resp = client
            .load("bench", &netlist_path.to_string_lossy(), None)
            .expect("load");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        resp.get("store_replayed")
            .and_then(Json::as_u64)
            .expect("store_replayed")
    };
    // (delay bits, newton iters, cache hits, wall s, cpu s) of one served
    // analysis. CPU covers the daemon too: it runs as threads of this
    // process, so `/proc/self/stat` sees its solver work.
    let analyze = |client: &mut Client| {
        let (resp, wall, cpu) =
            timed(|| client.analyze("bench", Some("iterative")).expect("analyze"));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        let field = |name: &str| resp.get(name).and_then(Json::as_u64).expect("report field");
        let bits = resp
            .str_field("delay_bits")
            .expect("delay_bits")
            .to_string();
        (bits, field("newton_iters"), field("cache_hits"), wall, cpu)
    };

    // Generation 1: cold daemon, empty store.
    let daemon = start(&socket, &store);
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).expect("connect");
    assert_eq!(load(&mut client), 0, "the store starts empty");
    let cold = analyze(&mut client);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");

    // Generation 2: fresh daemon on the store the cold run populated.
    let daemon = start(&socket, &store);
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).expect("connect");
    let replayed = load(&mut client);
    assert!(replayed > 0, "the cold run populated the store");
    let disk_warm = analyze(&mut client);
    let resident_warm = analyze(&mut client);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");

    assert_eq!(cold.0, disk_warm.0, "disk-warm delay diverged from cold");
    assert_eq!(cold.0, resident_warm.0, "resident-warm delay diverged");
    assert!(
        disk_warm.1 < cold.1,
        "a disk-warm daemon restart must solve strictly fewer Newton \
         iterations than a cold start ({} vs {})",
        disk_warm.1,
        cold.1
    );

    let mut rows = Vec::new();
    for (engine, m, gen_replayed) in [
        ("serve_cold", &cold, 0),
        ("serve_disk_warm", &disk_warm, replayed),
        ("serve_resident_warm", &resident_warm, replayed),
    ] {
        println!(
            "serve_layer/{label}: {engine} {:.3} s wall / {:.3} s cpu \
             ({} newton iters, {} hits, {gen_replayed} replayed)",
            m.3, m.4, m.1, m.2
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"sta_modes\", \"section\": \"serve_layer\", \
             \"engine\": \"{engine}\", \"scale\": \"{label}\", \
             \"gates\": {}, \"wall_s\": {:.6}, \"cpu_s\": {:.6}, \
             \"newton_iters\": {}, \"cache_hits\": {}, \
             \"store_replayed\": {gen_replayed}}}",
            d.netlist.gate_count(),
            m.3,
            m.4,
            m.1,
            m.2,
        );
        rows.push(row);
    }
    rows
}

/// One-shot measurement of the scenario layer (DESIGN.md D14): the
/// default ss/tt/ff matrix (one-step, shared executor) against three
/// standalone single-corner runs — asserting each corner's bits are
/// identical to its standalone run and recording per-corner wall time and
/// Newton iterations both ways.
fn report_scenario_layer(d: &Design, label: &str) -> Vec<String> {
    let corners = Corner::default_matrix();
    let mode = AnalysisMode::OneStep;
    let exec = || exec_config();
    let mut rows = Vec::new();

    // The per-corner characterization is timed apart from the solves
    // (`prewarm_wall_s` vs `solve_wall_s`; `wall_s` stays the total so the
    // row remains comparable with records taken before the split).
    let matrix = ScenarioMatrix::new(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        corners.clone(),
        exec(),
    )
    .expect("scenario");
    let (_, matrix_pw_wall, matrix_pw_cpu) = timed(|| matrix.prewarm());
    let (report, solve_wall, solve_cpu) = timed(|| matrix.run(&[mode]).expect("matrix run"));
    let (matrix_wall, matrix_cpu) = (matrix_pw_wall + solve_wall, matrix_pw_cpu + solve_cpu);
    println!(
        "scenario_layer/{label}: ss/tt/ff matrix {matrix_wall:.3} s wall / \
         {matrix_cpu:.3} s cpu ({matrix_pw_wall:.3} s prewarm + {solve_wall:.3} s solve; \
         {} newton iters)",
        report.total_iters()
    );
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"bench\": \"sta_modes\", \"section\": \"scenario_layer\", \
         \"engine\": \"matrix\", \"scale\": \"{label}\", \"gates\": {}, \
         \"corners\": {}, \"wall_s\": {matrix_wall:.6}, \"cpu_s\": {matrix_cpu:.6}, \
         \"prewarm_wall_s\": {matrix_pw_wall:.6}, \"prewarm_cpu_s\": {matrix_pw_cpu:.6}, \
         \"solve_wall_s\": {solve_wall:.6}, \"solve_cpu_s\": {solve_cpu:.6}, \
         \"newton_iters\": {}}}",
        d.netlist.gate_count(),
        corners.len(),
        report.total_iters(),
    );
    rows.push(row);
    for (ci, corner) in corners.iter().enumerate() {
        let process = d.process.corner(corner);
        let sta = Sta::with_config(&d.netlist, &d.library, &process, &d.parasitics, exec())
            .expect("standalone sta");
        let (solo, wall, cpu) = timed(|| sta.analyze(mode).expect("standalone analyze"));
        assert_eq!(
            solo.longest_delay.to_bits(),
            report.corners[ci].reports[0].longest_delay.to_bits(),
            "corner {} inside the matrix diverged from its standalone run",
            corner.name
        );
        println!(
            "scenario_layer/{label}: corner {} standalone {wall:.3} s wall / {cpu:.3} s cpu \
             ({} newton iters; {} in matrix)",
            corner.name, solo.newton_iters, report.corner_iters[ci]
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"sta_modes\", \"section\": \"scenario_layer\", \
             \"engine\": \"corner_standalone\", \"scale\": \"{label}\", \
             \"corner\": \"{}\", \"wall_s\": {wall:.6}, \"cpu_s\": {cpu:.6}, \
             \"newton_iters\": {}, \"matrix_newton_iters\": {}}}",
            corner.name, solo.newton_iters, report.corner_iters[ci],
        );
        rows.push(row);
    }

    rows
}

/// The characterization layer: how the macromodel tables get built and
/// amortized. Two experiments, both from an emptied process-global store:
///
/// 1. *Parallel prewarm*: one `Sta` build with a serial executor vs one
///    with the environment's worker pool. The parallel build must not be
///    slower (characterization is embarrassingly parallel) and must leave
///    a bitwise-identical store ([`store_digest`] equality — the
///    correctness gate on the work-stealing characterization path).
/// 2. *On-disk store amortization*: the full ss/tt/ff scenario matrix run
///    twice against a fresh characterization-store file. The first run
///    characterizes every corner and persists the tables; the second
///    (store-warm) run must replay them — zero characterization Newton
///    solves — and come in at least 5x faster end to end, bit-identical.
fn report_char_layer(d: &Design, label: &str) -> Vec<String> {
    use xtalk::wave::macromodel::{char_solves, clear_store, store_digest};
    let mode = AnalysisMode::OneStep;
    let threads = exec_config().threads;
    let mut rows = Vec::new();

    // Experiment 1: serial vs pooled prewarm (the `Sta` build is the
    // prewarm choke point; graph construction rides along in both arms
    // and is milliseconds against seconds of characterization).
    clear_store();
    let (_, serial_wall, serial_cpu) = timed(|| {
        Sta::with_config(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            ExecConfig::serial(),
        )
        .expect("serial prewarm sta")
    });
    let serial_digest = store_digest();
    clear_store();
    let (_, par_wall, par_cpu) = timed(|| {
        Sta::with_config(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            exec_config(),
        )
        .expect("pooled prewarm sta")
    });
    let par_digest = store_digest();
    assert_eq!(
        serial_digest, par_digest,
        "parallel prewarm produced different table bits than serial"
    );
    if threads > 1 {
        assert!(
            par_wall <= serial_wall * 1.15,
            "parallel prewarm slower than serial ({par_wall:.3} s vs {serial_wall:.3} s \
             on {threads} threads)"
        );
    }
    println!(
        "char_layer/{label}: prewarm serial {serial_wall:.3} s wall, \
         pooled ({threads} threads) {par_wall:.3} s wall, digests equal"
    );
    for (engine, wall, cpu, t) in [
        ("prewarm_serial", serial_wall, serial_cpu, 1),
        ("prewarm_parallel", par_wall, par_cpu, threads),
    ] {
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"sta_modes\", \"section\": \"char_layer\", \
             \"engine\": \"{engine}\", \"scale\": \"{label}\", \"gates\": {}, \
             \"threads\": {t}, \"prewarm_wall_s\": {wall:.6}, \
             \"prewarm_cpu_s\": {cpu:.6}, \"digest\": \"{serial_digest:016x}\"}}",
            d.netlist.gate_count(),
        );
        rows.push(row);
    }

    // Experiment 2: the scenario matrix against a fresh on-disk store,
    // cold then store-warm.
    let store_path =
        std::env::temp_dir().join(format!("xtalk_bench_charstore_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let corners = Corner::default_matrix();
    let matrix_run = || {
        let matrix = ScenarioMatrix::new(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            corners.clone(),
            exec_config().with_char_store(Some(store_path.clone())),
        )
        .expect("char-store scenario");
        timed(move || matrix.run(&[mode]).expect("char-store matrix run"))
    };
    clear_store();
    let solves_before_cold = char_solves();
    let (cold, cold_wall, cold_cpu) = matrix_run();
    let cold_solves = char_solves() - solves_before_cold;
    clear_store();
    let solves_before_warm = char_solves();
    let (warm, warm_wall, warm_cpu) = matrix_run();
    let warm_solves = char_solves() - solves_before_warm;
    let _ = std::fs::remove_file(&store_path);
    assert!(
        cold_solves > 0,
        "cold matrix run characterized nothing — the store experiment is vacuous"
    );
    assert_eq!(
        warm_solves, 0,
        "store-warm matrix run still paid {warm_solves} characterization Newton solves"
    );
    for (c, w) in cold.corners.iter().zip(&warm.corners) {
        assert_eq!(
            c.reports[0].longest_delay.to_bits(),
            w.reports[0].longest_delay.to_bits(),
            "store replay moved corner {} bits",
            c.corner
        );
    }
    assert!(
        warm_wall * 5.0 <= cold_wall,
        "store-warm matrix not >= 5x faster than cold \
         ({warm_wall:.3} s vs {cold_wall:.3} s)"
    );
    println!(
        "char_layer/{label}: ss/tt/ff matrix cold {cold_wall:.3} s \
         ({cold_solves} char solves), store-warm {warm_wall:.3} s \
         ({warm_solves} char solves), {:.1}x",
        cold_wall / warm_wall.max(1e-9)
    );
    for (engine, wall, cpu, solves, report) in [
        ("matrix_char_cold", cold_wall, cold_cpu, cold_solves, &cold),
        ("matrix_char_warm", warm_wall, warm_cpu, warm_solves, &warm),
    ] {
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"sta_modes\", \"section\": \"char_layer\", \
             \"engine\": \"{engine}\", \"scale\": \"{label}\", \"gates\": {}, \
             \"corners\": {}, \"threads\": {threads}, \"wall_s\": {wall:.6}, \
             \"cpu_s\": {cpu:.6}, \"char_solves\": {solves}, \
             \"newton_iters\": {}}}",
            d.netlist.gate_count(),
            corners.len(),
            report.total_iters(),
        );
        rows.push(row);
    }
    rows
}

/// Writes `BENCH_sta.json`: the rows measured by this run plus every
/// already-recorded row of the other scales, so the bench trajectory
/// (expensive s38417 runs) stays alive through re-runs.
fn write_bench_json(mut rows: Vec<String>, label: &str) {
    let path = bench_json_path();
    let scale_tag = format!("\"scale\": \"{label}\"");
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with('{') && !line.contains(&scale_tag) {
                rows.push(line.to_string());
            }
        }
    }
    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(json, "  {row}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("]\n");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// `BENCH_sta.json` at the workspace root (two levels above this crate).
fn bench_json_path() -> PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    root.join("BENCH_sta.json")
}

fn bench_graph_build(c: &mut Criterion) {
    let (config, _, one_shot) = scale();
    if one_shot {
        return;
    }
    let d = build_design(&config);
    c.bench_function("timing_graph_build", |b| {
        b.iter(|| {
            let sta = d.sta();
            black_box(sta.graph().arc_count())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_sta_modes, bench_graph_build
}
criterion_main!(benches);
