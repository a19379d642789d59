//! Macromodel fast path vs signoff: safety of the table approximation.
//!
//! The characterized-table fast path (`DESIGN.md` D12) answers in-grid
//! stage solves from pessimistically padded delay tables instead of the
//! transistor-level Newton iteration. That approximation must be *safe*:
//!
//! 1. **Never optimistic** — every endpoint arrival the default engine
//!    reports is at least the signoff arrival (tables only add delay).
//! 2. **Bounded** — the added pessimism stays within the certified
//!    per-stage interpolation bound accumulated along the critical path.
//! 3. **Engaged** — the tables actually answer solves on this design, so
//!    the two assertions above are not vacuous.
//! 4. **Min-delay untouched** — tables are disabled for earliest-arrival
//!    analysis (pessimistic maximum-delay tables would be optimistic
//!    there), so `MinDelay` must match signoff bit for bit.

use xtalk::prelude::*;
use xtalk::wave::macromodel::{SLEW_ROWS, TOL_DELAY, TOL_SLEW};

/// Max-delay analyses where the fast path may engage.
const MAX_MODES: [AnalysisMode; 5] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
];

struct Design {
    netlist: xtalk::netlist::Netlist,
    library: Library,
    process: Process,
    parasitics: xtalk::layout::extract::Parasitics,
}

fn design(seed: u64) -> Design {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::generator::generate(&GeneratorConfig::small(seed), &library)
        .expect("generate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    Design {
        netlist,
        library,
        process,
        parasitics,
    }
}

fn analyze(d: &Design, mode: AnalysisMode, signoff: bool) -> ModeReport {
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial().with_signoff(signoff),
    )
    .expect("sta");
    sta.analyze(mode).expect("analysis")
}

#[test]
fn fast_path_never_optimistic_and_pessimism_bounded() {
    assert_never_optimistic_and_bounded(&design(4242));
}

/// At `ff` about a quarter of the design's arcs certify only once their
/// slowest slew row is trimmed. Every characterizable arc must still bind
/// a model, and the tables they now serve must keep both safety
/// properties.
#[test]
fn ff_corner_binds_every_arc_and_stays_never_optimistic() {
    let mut d = design(4242);
    d.process = d.process.corner(&Corner::ff());
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial(),
    )
    .expect("sta");
    let mut trimmed = 0usize;
    for cs in sta.graph().cell_stages() {
        for (slot, pair) in cs.arcs.iter().enumerate() {
            for arc in pair.iter().filter(|arc| arc.key.is_some()) {
                let model = arc.model.as_ref().unwrap_or_else(|| {
                    panic!("{} stage {} slot {slot}: no bound model", cs.cell, cs.stage)
                });
                trimmed += usize::from(model.served_rows() < SLEW_ROWS);
            }
        }
    }
    assert!(trimmed > 0, "no bound model serves a trimmed slew range");
    assert_never_optimistic_and_bounded(&d);
}

/// Checks, in every max-delay mode, that each endpoint's fast-path arrival
/// is never below signoff and at most the certified budget above it, and
/// that the tables answered some solves.
fn assert_never_optimistic_and_bounded(d: &Design) {
    let mut any_hits = 0usize;
    for mode in MAX_MODES {
        let exact = analyze(d, mode, true);
        let fast = analyze(d, mode, false);
        any_hits += fast.table_hits;
        assert_eq!(
            exact.table_hits, 0,
            "{mode}: signoff must never touch the tables"
        );

        // Per-stage worst case: certified delay bound plus the certified
        // slew bound (an inflated slew can only further slow the stage it
        // feeds; downstream delay sensitivity to input slew is below one
        // for the characterized arcs). Accumulated over the path depth
        // this bounds the total pessimism the tables may inject.
        let depth = fast.critical_path.len().max(exact.critical_path.len()) + 2;
        let budget = depth as f64 * (TOL_DELAY + TOL_SLEW);

        assert!(
            fast.longest_delay >= exact.longest_delay - 1e-12,
            "{mode}: fast path optimistic on longest delay ({} < {})",
            fast.longest_delay,
            exact.longest_delay
        );
        assert!(
            fast.longest_delay <= exact.longest_delay + budget,
            "{mode}: fast-path pessimism {} exceeds budget {}",
            fast.longest_delay - exact.longest_delay,
            budget
        );
        // The reported residual is the per-hit bound, so it can never
        // exceed the admission tolerance.
        assert!(
            fast.table_residual <= TOL_DELAY + 1e-15,
            "{mode}: residual {} above admission tolerance",
            fast.table_residual
        );

        assert_eq!(exact.endpoints.len(), fast.endpoints.len());
        for (e, f) in exact.endpoints.iter().zip(&fast.endpoints) {
            assert_eq!(e.net, f.net);
            for (ex, fa) in [(e.rise, f.rise), (e.fall, f.fall)] {
                assert_eq!(
                    ex.is_some(),
                    fa.is_some(),
                    "{mode}: endpoint {:?} transition set diverged",
                    e.net
                );
                if let (Some(ex), Some(fa)) = (ex, fa) {
                    assert!(
                        fa >= ex - 1e-12,
                        "{mode}: endpoint {:?} optimistic ({fa} < {ex})",
                        e.net
                    );
                    assert!(
                        fa <= ex + budget,
                        "{mode}: endpoint {:?} pessimism {} exceeds budget {budget}",
                        e.net,
                        fa - ex
                    );
                }
            }
        }
    }
    assert!(
        any_hits > 0,
        "tables never engaged; the safety assertions above are vacuous"
    );
}

#[test]
fn min_delay_ignores_tables_bit_exactly() {
    let d = design(4242);
    let exact = analyze(&d, AnalysisMode::MinDelay, true);
    let fast = analyze(&d, AnalysisMode::MinDelay, false);
    assert_eq!(
        fast.table_hits, 0,
        "tables must not serve earliest arrivals"
    );
    assert_eq!(exact.longest_delay.to_bits(), fast.longest_delay.to_bits());
    assert_eq!(exact.endpoints.len(), fast.endpoints.len());
    for (e, f) in exact.endpoints.iter().zip(&fast.endpoints) {
        assert_eq!(e.net, f.net);
        assert_eq!(e.rise.map(f64::to_bits), f.rise.map(f64::to_bits));
        assert_eq!(e.fall.map(f64::to_bits), f.fall.map(f64::to_bits));
    }
}
