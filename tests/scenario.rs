//! Multi-corner scenario engine: cross-layer guarantees and a golden
//! cross-corner snapshot.
//!
//! Three properties pin the scenario layer (DESIGN.md D14):
//!
//! 1. **Per-corner serial == threaded, bitwise, every mode.** A corner run
//!    inside the matrix inherits the engine's schedule-independence: the
//!    wavefront order changes when solves land, never their values.
//! 2. **Warm == cold, bitwise.** A matrix re-run answers from the memo its
//!    first run filled; every served entry is the querying corner's own
//!    exact-match bits, so the warm report equals a fresh matrix's, on the
//!    signoff engine and on the default fast path.
//! 3. **The golden `ScenarioReport`.** The default ss/tt/ff matrix over a
//!    fixed design, serialized with full `f64` bit patterns, committed at
//!    `tests/golden/scenario_small_97.txt`.
//!
//! Regenerate the snapshot (only for an *intentional* numerical change):
//!
//! ```text
//! XTALK_BLESS=1 cargo test -p xtalk --test scenario
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xtalk::prelude::*;

/// The paper's analyses the matrix is exercised under: the four
/// single-pass treatments plus the iterative refinement.
const MODES: [AnalysisMode; 5] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
];

struct Fixture {
    process: Process,
    library: Library,
    netlist: Netlist,
    parasitics: xtalk::layout::extract::Parasitics,
}

fn fixture(seed: u64) -> Fixture {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::generator::generate(&GeneratorConfig::small(seed), &library)
        .expect("generate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    Fixture {
        process,
        library,
        netlist,
        parasitics,
    }
}

fn matrix(f: &Fixture, config: ExecConfig) -> ScenarioMatrix<'_> {
    ScenarioMatrix::new(
        &f.netlist,
        &f.library,
        &f.process,
        &f.parasitics,
        Corner::default_matrix(),
        config,
    )
    .expect("scenario")
}

/// Asserts two scenario reports carry identical bits corner by corner,
/// mode by mode, endpoint by endpoint.
fn assert_bitwise_equal(a: &ScenarioReport, b: &ScenarioReport, label: &str) {
    assert_eq!(a.corners.len(), b.corners.len(), "[{label}] corner count");
    for (ca, cb) in a.corners.iter().zip(&b.corners) {
        assert_eq!(ca.corner, cb.corner, "[{label}] corner order");
        assert_eq!(
            ca.reports.len(),
            cb.reports.len(),
            "[{label}] mode count at corner {}",
            ca.corner
        );
        for (ra, rb) in ca.reports.iter().zip(&cb.reports) {
            assert_eq!(
                ra.longest_delay.to_bits(),
                rb.longest_delay.to_bits(),
                "[{label}] corner {} delay bits",
                ca.corner
            );
            assert_eq!(ra.endpoints.len(), rb.endpoints.len());
            for (ea, eb) in ra.endpoints.iter().zip(&rb.endpoints) {
                assert_eq!(ea.net, eb.net);
                assert_eq!(
                    ea.rise.map(f64::to_bits),
                    eb.rise.map(f64::to_bits),
                    "[{label}] corner {} rise bits",
                    ca.corner
                );
                assert_eq!(
                    ea.fall.map(f64::to_bits),
                    eb.fall.map(f64::to_bits),
                    "[{label}] corner {} fall bits",
                    ca.corner
                );
            }
        }
    }
}

#[test]
fn per_corner_serial_matches_threaded_across_all_modes() {
    let f = fixture(23);
    let serial = matrix(&f, ExecConfig::serial().with_signoff(true))
        .run(&MODES)
        .expect("serial run");
    let threaded = matrix(
        &f,
        ExecConfig::serial()
            .with_signoff(true)
            .with_threads(4)
            .with_serial_cutoff(0),
    )
    .run(&MODES)
    .expect("threaded run");
    assert_bitwise_equal(&serial, &threaded, "serial vs threaded");
}

#[test]
fn warm_rerun_matches_fresh_matrix_across_all_modes() {
    let f = fixture(31);
    for (label, config) in [
        ("signoff", ExecConfig::serial().with_signoff(true)),
        ("fast path", ExecConfig::serial()),
    ] {
        let shared = matrix(&f, config.clone());
        shared.run(&MODES).expect("first run");
        let warm = shared.run(&MODES).expect("warm re-run");
        let fresh = matrix(&f, config).run(&MODES).expect("fresh run");
        assert_bitwise_equal(&warm, &fresh, label);
        // The re-run really was answered by the layers the first run
        // filled, so the equality above covers served entries.
        assert!(
            warm.total_iters() < fresh.total_iters(),
            "[{label}] warm re-run spent {} Newton iterations, fresh {}",
            warm.total_iters(),
            fresh.total_iters()
        );
    }
}

#[test]
fn scenario_corners_match_standalone_single_corner_runs() {
    let f = fixture(23);
    let report = matrix(&f, ExecConfig::serial().with_signoff(true))
        .run(&[AnalysisMode::OneStep])
        .expect("matrix run");
    for (corner, run) in Corner::default_matrix().iter().zip(&report.corners) {
        let process = f.process.corner(corner);
        let standalone = Sta::with_config(
            &f.netlist,
            &f.library,
            &process,
            &f.parasitics,
            ExecConfig::serial().with_signoff(true),
        )
        .expect("sta")
        .analyze(AnalysisMode::OneStep)
        .expect("analyze");
        assert_eq!(
            run.reports[0].longest_delay.to_bits(),
            standalone.longest_delay.to_bits(),
            "corner {} diverged from its standalone run",
            corner.name
        );
    }
}

fn bits(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:016x}", v.to_bits()),
        None => "-".to_string(),
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/scenario_small_97.txt")
}

fn snapshot() -> String {
    let f = fixture(97);
    let report = matrix(&f, ExecConfig::serial().with_signoff(true))
        .run(&[AnalysisMode::OneStep])
        .expect("run");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden scenario snapshot: small(97), {} gates, default corner matrix, mode=onestep",
        f.netlist.gate_count()
    );
    for run in &report.corners {
        let r = &run.reports[0];
        let _ = writeln!(
            out,
            "corner={} delay={} passes={}",
            run.corner,
            bits(Some(r.longest_delay)),
            r.passes
        );
        for e in &r.endpoints {
            let _ = writeln!(
                out,
                "  endpoint={} rise={} fall={}",
                f.netlist.net(e.net).name,
                bits(e.rise),
                bits(e.fall)
            );
        }
    }
    for w in &report.worst_endpoints {
        let _ = writeln!(
            out,
            "worst endpoint={} corner={} worst={}",
            f.netlist.net(w.net).name,
            report.corners[w.worst_corner].corner,
            bits(Some(w.worst))
        );
    }
    out
}

#[test]
fn scenario_report_matches_golden_snapshot() {
    let current = snapshot();
    let path = golden_path();
    if std::env::var("XTALK_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &current).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with XTALK_BLESS=1",
            path.display()
        )
    });
    if golden != current {
        for (i, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
            assert_eq!(g, c, "golden scenario snapshot diverged at line {}", i + 1);
        }
        panic!("golden scenario snapshot diverged in line count");
    }
}
