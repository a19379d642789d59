//! Golden ModeReport snapshot: pins the analyzer's output bit-exactly.
//!
//! A fixed generated design is analyzed under every mode and the resulting
//! arrivals, slacks and work counters are serialized with full `f64` bit
//! patterns, then compared against the committed snapshot in
//! `tests/golden/modes_small_97.txt`. Any change to propagation, coupling
//! treatment, merging or sensitization — however small — flips at least one
//! bit here, so refactors of the engine are guarded step by step.
//!
//! The snapshot was recorded before the layered-engine refactor (CSR graph
//! + kernel/policy split) and must survive it unchanged.
//!
//! Since the macromodel fast path landed, the snapshot is taken under
//! *signoff* configuration (`ExecConfig::with_signoff(true)`, the same
//! switch `--signoff` / `XTALK_SIGNOFF` flips): every stage solve runs the
//! full transistor-level Newton iteration, so the output must stay
//! bit-identical to the pre-macromodel engine — serial and threaded alike.
//!
//! The default fast path has its own snapshot,
//! `tests/golden/fastpath_small_97.txt`: the same design under the default
//! configuration, over the five max-delay modes the characterized tables
//! serve, serial and threaded. It pins the table answers themselves, so a
//! change to *which* arcs get characterized, or *when*, cannot move a bit
//! without failing here.
//!
//! Regenerate (only when an *intentional* numerical change lands) with:
//!
//! ```text
//! XTALK_BLESS=1 cargo test -p xtalk --test golden_modes
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xtalk::prelude::*;

/// Clock period used for the pinned slack column, seconds.
const PERIOD: f64 = 10e-9;

/// All analyses the snapshot covers: the paper's five plus the two
/// extensions (Esperance refinement and min-delay/hold).
const MODES: [AnalysisMode; 7] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
    AnalysisMode::Iterative { esperance: true },
    AnalysisMode::MinDelay,
];

/// The max-delay analyses the fast path's characterized tables serve.
const FAST_MODES: [AnalysisMode; 5] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Hex bit pattern of an `f64` (or `-` for an absent arrival).
fn bits(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:016x}", v.to_bits()),
        None => "-".to_string(),
    }
}

/// The snapshot text of `modes` under `config`, and the table hits the
/// analyses made.
fn snapshot(config: ExecConfig, modes: &[AnalysisMode]) -> (String, usize) {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::generator::generate(&GeneratorConfig::small(97), &library)
        .expect("generate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    let sta = Sta::with_config(&netlist, &library, &process, &parasitics, config).expect("sta");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden mode snapshot: small(97), {} gates, {} nets, period {} ns",
        netlist.gate_count(),
        netlist.net_count(),
        PERIOD * 1e9
    );
    let mut table_hits = 0;
    for &mode in modes {
        let r = sta.analyze(mode).expect("analysis");
        table_hits += r.table_hits;
        assert!(
            r.diagnostics.is_empty(),
            "golden run must be clean, got {:?}",
            r.diagnostics
        );
        let endpoint = r
            .endpoint_net
            .map(|n| netlist.net(n).name.clone())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "mode={mode} delay={} endpoint={endpoint} rising={} passes={} solves={}",
            bits(Some(r.longest_delay)),
            r.endpoint_rising,
            r.passes,
            r.stage_solves
        );
        for (i, d) in r.pass_delays.iter().enumerate() {
            let _ = writeln!(out, "  pass[{i}] delay={}", bits(Some(*d)));
        }
        for e in &r.endpoints {
            let slack = PERIOD - e.latest();
            let _ = writeln!(
                out,
                "  endpoint={} rise={} fall={} slack={}",
                netlist.net(e.net).name,
                bits(e.rise),
                bits(e.fall),
                bits(Some(slack))
            );
        }
        let _ = writeln!(out, "  path_len={}", r.critical_path.len());
        for step in &r.critical_path {
            let _ = writeln!(
                out,
                "  step gate={} cell={} pin={} net={} rising={} arrival={}",
                netlist.gate(step.gate).name,
                step.cell,
                step.pin as isize,
                netlist.net(step.net).name,
                step.rising,
                bits(Some(step.arrival))
            );
        }
    }
    (out, table_hits)
}

/// Fails with the first diverging line rather than one giant string diff.
fn assert_matches_golden(golden: &str, current: &str, label: &str) {
    if golden == current {
        return;
    }
    for (i, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
        assert_eq!(g, c, "[{label}] golden snapshot diverged at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        current.lines().count(),
        "[{label}] golden snapshot line count diverged"
    );
    panic!("[{label}] golden snapshot diverged");
}

/// The committed snapshot `name`, or `None` after blessing it with
/// `current` (`XTALK_BLESS=1`).
fn golden(name: &str, current: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var("XTALK_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, current).expect("write golden");
        eprintln!("blessed {}", path.display());
        return None;
    }
    Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with XTALK_BLESS=1",
            path.display()
        )
    }))
}

#[test]
fn mode_reports_match_golden_snapshot() {
    let (serial, _) = snapshot(ExecConfig::serial().with_signoff(true), &MODES);
    let Some(golden) = golden("modes_small_97.txt", &serial) else {
        return;
    };
    assert_matches_golden(&golden, &serial, "signoff serial");

    // Threaded signoff must reproduce the same bits: the wavefront schedule
    // changes the order stage solves land in, never their values.
    let (threaded, _) = snapshot(
        ExecConfig::serial()
            .with_signoff(true)
            .with_threads(4)
            .with_serial_cutoff(0),
        &MODES,
    );
    assert_matches_golden(&golden, &threaded, "signoff threaded");
}

#[test]
fn fast_path_reports_match_golden_snapshot() {
    let (serial, table_hits) = snapshot(ExecConfig::serial(), &FAST_MODES);
    assert!(
        table_hits > 0,
        "the tables never answered; the fast-path snapshot pins nothing"
    );
    let Some(golden) = golden("fastpath_small_97.txt", &serial) else {
        return;
    };
    assert_matches_golden(&golden, &serial, "fast path serial");

    let (threaded, _) = snapshot(
        ExecConfig::serial().with_threads(4).with_serial_cutoff(0),
        &FAST_MODES,
    );
    assert_matches_golden(&golden, &threaded, "fast path threaded");
}
