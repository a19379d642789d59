//! Robustness properties of the degrade-don't-die analysis path, driven by
//! the deterministic fault-injection harness (`--features fault-injection`).
//!
//! Three invariants from the failure-containment design (DESIGN.md, D8):
//!
//! 1. **Zero-fault transparency** — with the harness compiled in but no
//!    plan installed, results are bit-identical across repeated runs and
//!    across serial/threaded execution, and no diagnostics are emitted.
//! 2. **Degrade, don't die** — under every fault class the analysis still
//!    completes, reports a matching [`FaultClass`] diagnostic, and the
//!    substituted bounds are never optimistic: per endpoint, degraded
//!    arrivals are `>=` the fault-free ones (`<=` for `MinDelay`).
//! 3. **Strict mode restores fail-fast** — the same faulted run returns a
//!    typed error instead of a degraded report.

use xtalk::prelude::*;
use xtalk::sta::{Fault, FaultPlan};

fn build_design(
    seed: u64,
) -> (
    Process,
    Library,
    Netlist,
    xtalk::layout::extract::Parasitics,
) {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let config = GeneratorConfig {
        name: format!("robust_{seed}"),
        seed,
        flip_flops: 4,
        comb_gates: 30,
        depth: 4,
        primary_inputs: 4,
        primary_outputs: 4,
        clock_tree: false,
        clock_leaf_fanout: 8,
    };
    let netlist = xtalk::netlist::generator::generate(&config, &library).expect("generate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    (process, library, netlist, parasitics)
}

/// All analysis modes, with whether the mode bounds *earliest* arrivals
/// (where a conservative substitution must be `<=`, not `>=`).
fn all_modes() -> Vec<(AnalysisMode, bool)> {
    vec![
        (AnalysisMode::BestCase, false),
        (AnalysisMode::OneStep, false),
        (AnalysisMode::WorstCase, false),
        (AnalysisMode::Iterative { esperance: false }, false),
        (AnalysisMode::MinDelay, true),
    ]
}

/// Every bit of numerical output a report carries, for exact comparison.
fn fingerprint(r: &ModeReport) -> Vec<u64> {
    let mut v = vec![r.longest_delay.to_bits(), r.passes as u64];
    for ep in &r.endpoints {
        v.push(ep.rise.map_or(u64::MAX, f64::to_bits));
        v.push(ep.fall.map_or(u64::MAX, f64::to_bits));
    }
    for step in &r.critical_path {
        v.push(step.arrival.to_bits());
    }
    v
}

/// Per-endpoint never-optimistic check: `faulted` must bound `free` from
/// above (or below, for earliest-arrival modes).
fn assert_conservative(free: &ModeReport, faulted: &ModeReport, earliest: bool, what: &str) {
    assert_eq!(
        free.endpoints.len(),
        faulted.endpoints.len(),
        "{what}: endpoint sets must match"
    );
    let eps = 1e-12;
    for (f, d) in free.endpoints.iter().zip(&faulted.endpoints) {
        assert_eq!(f.net, d.net, "{what}: endpoint order must match");
        for (a, b) in [(f.rise, d.rise), (f.fall, d.fall)] {
            let (Some(a), Some(b)) = (a, b) else {
                assert_eq!(a.is_some(), b.is_some(), "{what}: transition presence");
                continue;
            };
            if earliest {
                assert!(b <= a + eps, "{what}: degraded {b} > fault-free {a}");
            } else {
                assert!(b + eps >= a, "{what}: degraded {b} < fault-free {a}");
            }
        }
    }
}

#[test]
fn zero_fault_runs_are_bit_identical() {
    let (process, library, netlist, parasitics) = build_design(11);
    for (mode, _) in all_modes() {
        let serial = Sta::with_config(
            &netlist,
            &library,
            &process,
            &parasitics,
            ExecConfig::serial(),
        )
        .expect("sta");
        serial.set_fault_plan(None);
        let a = serial.analyze(mode).expect("serial analyze");
        assert!(a.diagnostics.is_empty(), "zero-fault run must be clean");

        // A second, fresh serial run.
        let again = Sta::with_config(
            &netlist,
            &library,
            &process,
            &parasitics,
            ExecConfig::serial(),
        )
        .expect("sta");
        let b = again.analyze(mode).expect("repeat analyze");

        // A threaded run with the serial cutoff disabled.
        let threaded = Sta::with_config(
            &netlist,
            &library,
            &process,
            &parasitics,
            ExecConfig::serial().with_threads(4).with_serial_cutoff(0),
        )
        .expect("sta");
        let c = threaded.analyze(mode).expect("threaded analyze");

        assert_eq!(fingerprint(&a), fingerprint(&b), "{mode:?}: repeat run");
        assert_eq!(fingerprint(&a), fingerprint(&c), "{mode:?}: threaded run");
    }
}

#[test]
fn every_fault_class_degrades_without_dying() {
    let (process, library, netlist, parasitics) = build_design(23);
    let cases = [
        (Fault::NanLoad, FaultClass::NonFiniteValue),
        (Fault::TruncatedTable, FaultClass::TruncatedModel),
        (Fault::DivergentStage, FaultClass::SolverDivergence),
        (Fault::MidJobPanic, FaultClass::WorkerPanic),
    ];
    for (fault, expected_class) in cases {
        for (mode, earliest) in [
            (AnalysisMode::OneStep, false),
            (AnalysisMode::MinDelay, true),
        ] {
            let sta = Sta::with_config(
                &netlist,
                &library,
                &process,
                &parasitics,
                ExecConfig::serial(),
            )
            .expect("sta");
            let free = sta.analyze(mode).expect("fault-free analyze");
            assert!(free.diagnostics.is_empty());

            // Inject at every stage: the analysis must still complete.
            sta.set_fault_plan(Some(FaultPlan::new(fault, 7, 1)));
            let faulted = sta
                .analyze(mode)
                .unwrap_or_else(|e| panic!("{fault:?}/{mode:?} must not kill the run: {e}"));
            assert!(
                faulted
                    .diagnostics
                    .iter()
                    .any(|d| d.fault == expected_class),
                "{fault:?}/{mode:?}: expected a {expected_class:?} diagnostic, got {:?}",
                faulted.diagnostics
            );
            assert_eq!(
                faulted.worst_severity(),
                Some(Severity::Error),
                "{fault:?}/{mode:?}: substituted bounds are Error-severity"
            );
            assert_conservative(&free, &faulted, earliest, &format!("{fault:?}/{mode:?}"));
        }
    }
}

#[test]
fn degraded_delays_are_never_optimistic_across_all_modes() {
    for seed in [3, 17] {
        let (process, library, netlist, parasitics) = build_design(seed);
        for (mode, earliest) in all_modes() {
            let sta = Sta::with_config(
                &netlist,
                &library,
                &process,
                &parasitics,
                ExecConfig::serial(),
            )
            .expect("sta");
            let free = sta.analyze(mode).expect("fault-free analyze");
            // Inject at roughly one stage in three.
            sta.set_fault_plan(Some(FaultPlan::new(Fault::NanLoad, seed, 3)));
            let faulted = sta.analyze(mode).expect("degraded analyze");
            assert_conservative(&free, &faulted, earliest, &format!("seed {seed} {mode:?}"));
        }
    }
}

#[test]
fn strict_mode_restores_fail_fast() {
    let (process, library, netlist, parasitics) = build_design(29);
    for fault in [
        Fault::NanLoad,
        Fault::TruncatedTable,
        Fault::DivergentStage,
        Fault::MidJobPanic,
    ] {
        let sta = Sta::with_config(
            &netlist,
            &library,
            &process,
            &parasitics,
            ExecConfig::serial().with_strict(true),
        )
        .expect("sta");
        sta.set_fault_plan(Some(FaultPlan::new(fault, 7, 1)));
        let err = sta
            .analyze(AnalysisMode::OneStep)
            .expect_err("strict mode must fail fast");
        // The error is typed and printable, not a panic.
        assert!(!err.to_string().is_empty(), "{fault:?}");
    }
}

#[test]
fn cli_strict_flag_turns_degraded_runs_into_errors() {
    let dir = std::env::temp_dir().join("xtalk_robustness_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bench = dir.join("c17.bench");
    std::fs::write(&bench, xtalk::netlist::data::C17_BENCH).expect("write bench");
    let path = bench.to_string_lossy().into_owned();
    let args = |extra: &[&str]| -> Vec<String> {
        let mut v = vec!["report".to_string(), path.clone()];
        v.extend(extra.iter().map(|s| (*s).to_string()));
        v
    };

    // Degraded run: completes, reports diagnostics, exits 3 (Error severity).
    let out = xtalk::cli::run_with_code(&args(&["--inject", "nan-load:0:1"]))
        .expect("degraded run completes");
    assert_eq!(out.exit_code, 3, "substituted bounds must exit 3");
    assert!(out.text.contains("diagnostics:"), "{}", out.text);

    // Same run under --strict: a typed CLI error, no report.
    let err = xtalk::cli::run_with_code(&args(&["--inject", "nan-load:0:1", "--strict"]))
        .expect_err("strict faulted run must fail");
    assert!(!err.to_string().is_empty());

    let _ = std::fs::remove_file(&bench);
}
