//! Property test: incremental ECO re-analysis is equivalent to a fresh
//! batch analysis — for random circuits, random edit sequences, and every
//! analysis mode.
//!
//! This is the subsystem's acceptance gate. The incremental engine caches
//! per-pass node arrivals and re-evaluates only the coupling-aware dirty
//! cone, with exact (bit-level) early termination; therefore every report
//! it produces must match what `Sta::analyze` on the post-edit design
//! computes, bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xtalk::prelude::*;
use xtalk_sta::incremental::Edit;

fn tiny_config(seed: u64, gates: usize, depth: usize) -> GeneratorConfig {
    GeneratorConfig {
        name: format!("eco_{seed}"),
        seed,
        flip_flops: 4,
        comb_gates: gates,
        depth,
        primary_inputs: 4,
        primary_outputs: 4,
        clock_tree: false,
        clock_leaf_fanout: 8,
    }
}

fn build_incremental<'a>(
    seed: u64,
    gates: usize,
    depth: usize,
    library: &'a Library,
    process: &'a Process,
) -> IncrementalSta<'a> {
    let netlist = xtalk::netlist::generator::generate(&tiny_config(seed, gates, depth), library)
        .expect("generate");
    let placement = xtalk::layout::place::place(&netlist, library, process);
    let routes = xtalk::layout::route::route(&netlist, &placement, process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, process);
    IncrementalSta::new(netlist, library, process, parasitics).expect("incremental sta")
}

/// Same-interface drive-strength swaps available in the c05um library.
fn resize_target(cell: &str) -> Option<&'static str> {
    Some(match cell {
        "INVX1" => "INVX4",
        "INVX2" => "INVX8",
        "INVX4" => "INVX1",
        "INVX8" => "INVX2",
        "BUFX2" => "BUFX4",
        "BUFX4" => "BUFX2",
        "NAND2X1" => "NAND2X2",
        "NAND2X2" => "NAND2X1",
        "NOR2X1" => "NOR2X2",
        "NOR2X2" => "NOR2X1",
        _ => return None,
    })
}

/// Draws a random applicable edit for the current design, if one exists.
fn random_edit(rng: &mut StdRng, eco: &IncrementalSta<'_>) -> Option<Edit> {
    let netlist = eco.netlist();
    let nets = netlist.nets();
    for _ in 0..32 {
        match rng.gen_range(0u32..4) {
            0 => {
                let gates = netlist.gates();
                let gate = &gates[rng.gen_range(0..gates.len())];
                if let Some(cell) = resize_target(&gate.cell) {
                    return Some(Edit::ResizeCell {
                        gate: gate.name.clone(),
                        cell: cell.to_string(),
                    });
                }
            }
            1 => {
                let net = &nets[rng.gen_range(0..nets.len())];
                if net.driver.is_some() || !net.loads.is_empty() {
                    return Some(Edit::RerouteNet {
                        net: net.name.clone(),
                        scale: rng.gen_range(0.25f64..4.0),
                    });
                }
            }
            2 => {
                let net = &nets[rng.gen_range(0..nets.len())];
                // Leave the clock alone: rebuffering the launch net is a
                // clock-tree change, not a signal ECO.
                if net.driver.is_some() && !net.loads.is_empty() && !net.is_clock {
                    return Some(Edit::InsertBuffer {
                        net: net.name.clone(),
                        cell: None,
                    });
                }
            }
            _ => {
                let ni = rng.gen_range(0..nets.len());
                if let Some(cc) = eco.parasitics().nets[ni].couplings.first() {
                    return Some(Edit::RemoveCoupling {
                        a: nets[ni].name.clone(),
                        b: nets[cc.other.index()].name.clone(),
                    });
                }
            }
        }
    }
    None
}

/// Draws a buffer insertion — the edit that renumbers stages — if the
/// design has a driven, loaded signal net to take one.
fn random_buffer(rng: &mut StdRng, eco: &IncrementalSta<'_>) -> Option<Edit> {
    let nets = eco.netlist().nets();
    (0..32).find_map(|_| {
        let net = &nets[rng.gen_range(0..nets.len())];
        (net.driver.is_some() && !net.loads.is_empty() && !net.is_clock).then(|| {
            Edit::InsertBuffer {
                net: net.name.clone(),
                cell: None,
            }
        })
    })
}

/// Every mode the incremental engine caches (esperance delegates to the
/// batch engine, so there is nothing to verify for it).
fn cached_modes() -> [AnalysisMode; 6] {
    [
        AnalysisMode::BestCase,
        AnalysisMode::StaticDoubled,
        AnalysisMode::WorstCase,
        AnalysisMode::OneStep,
        AnalysisMode::Iterative { esperance: false },
        AnalysisMode::MinDelay,
    ]
}

fn assert_reports_match(
    mode: AnalysisMode,
    incremental: &ModeReport,
    fresh: &ModeReport,
) -> Result<(), String> {
    if incremental.longest_delay.to_bits() != fresh.longest_delay.to_bits() {
        return Err(format!(
            "{mode}: delay {:.6e} != batch {:.6e}",
            incremental.longest_delay, fresh.longest_delay
        ));
    }
    if incremental.endpoint_net != fresh.endpoint_net
        || incremental.endpoint_rising != fresh.endpoint_rising
    {
        return Err(format!("{mode}: endpoint mismatch"));
    }
    if incremental.passes != fresh.passes
        || incremental.pass_delays.len() != fresh.pass_delays.len()
    {
        return Err(format!(
            "{mode}: pass structure {:?} != {:?}",
            incremental.pass_delays, fresh.pass_delays
        ));
    }
    for (a, b) in incremental.pass_delays.iter().zip(&fresh.pass_delays) {
        if a.to_bits() != b.to_bits() {
            return Err(format!("{mode}: pass delay {a:.6e} != {b:.6e}"));
        }
    }
    if incremental.critical_path.len() != fresh.critical_path.len() {
        return Err(format!("{mode}: critical path length mismatch"));
    }
    for (a, b) in incremental.critical_path.iter().zip(&fresh.critical_path) {
        if a.gate != b.gate
            || a.net != b.net
            || a.rising != b.rising
            || a.arrival.to_bits() != b.arrival.to_bits()
        {
            return Err(format!("{mode}: critical path step mismatch"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4, // each case runs dozens of full and incremental analyses
        .. ProptestConfig::default()
    })]

    /// Random edit sequences: after each edit, incremental re-analysis of a
    /// random mode stays consistent; after the whole sequence, every cached
    /// mode matches a fresh batch analysis bit for bit.
    #[test]
    fn incremental_matches_batch_for_every_mode(
        seed in 0u64..10_000,
        gates in 20usize..60,
        depth in 3usize..7,
        edit_seed in 0u64..1_000_000,
    ) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let mut eco = build_incremental(seed, gates, depth, &library, &process);
        let mut rng = StdRng::seed_from_u64(edit_seed);

        // Warm every cache from scratch.
        for mode in cached_modes() {
            eco.analyze(mode).expect("warm analysis");
        }

        let edits = rng.gen_range(1usize..4);
        let mut applied = 0usize;
        for _ in 0..edits {
            let Some(edit) = random_edit(&mut rng, &eco) else { continue };
            eco.apply(&edit).unwrap_or_else(|e| panic!("apply {edit:?}: {e}"));
            applied += 1;
            // Interleave: re-analyze one random mode now, leaving the other
            // caches to catch up across several dirt-log entries at once.
            let mode = cached_modes()[rng.gen_range(0..6usize)];
            eco.analyze(mode).expect("interleaved analysis");
        }
        prop_assert!(applied > 0, "no applicable edit drawn");

        for mode in cached_modes() {
            let incremental = eco.analyze(mode).expect("incremental analysis");
            let fresh = eco.fresh_sta().analyze(mode).expect("batch analysis");
            if let Err(msg) = assert_reports_match(mode, &incremental, &fresh) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// A what-if round trip restores the analyzer: after a checkpoint,
    /// edits (one a buffer insertion, which renumbers stages), an analysis
    /// and a rollback, every cache survives; each mode that was in sync at
    /// the checkpoint replays cleanly with its pre-checkpoint bits, and
    /// every mode matches a fresh batch analysis.
    #[test]
    fn rollback_restores_the_checkpointed_caches(
        seed in 0u64..10_000,
        gates in 20usize..60,
        depth in 3usize..7,
        edit_seed in 0u64..1_000_000,
    ) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let mut eco = build_incremental(seed, gates, depth, &library, &process);
        let mut rng = StdRng::seed_from_u64(edit_seed);

        // Warm every cache; `before` holds each in-sync mode's report.
        let mut before: Vec<Option<ModeReport>> = cached_modes()
            .into_iter()
            .map(|mode| Some(eco.analyze(mode).expect("warm analysis")))
            .collect();
        // Optionally commit an edit only some modes consume, so the
        // checkpoint holds unconsumed dirt.
        if rng.gen_bool(0.5) {
            if let Some(edit) = random_edit(&mut rng, &eco) {
                eco.apply(&edit).unwrap_or_else(|e| panic!("apply {edit:?}: {e}"));
                for (mode, slot) in cached_modes().into_iter().zip(&mut before) {
                    *slot = rng
                        .gen_bool(0.5)
                        .then(|| eco.analyze(mode).expect("committed analysis"));
                }
            }
        }

        let checkpoint = eco.checkpoint();
        let buffer = random_buffer(&mut rng, &eco).expect("a bufferable net");
        eco.apply(&buffer).unwrap_or_else(|e| panic!("apply {buffer:?}: {e}"));
        for _ in 0..rng.gen_range(0usize..3) {
            let Some(edit) = random_edit(&mut rng, &eco) else { continue };
            eco.apply(&edit).unwrap_or_else(|e| panic!("apply {edit:?}: {e}"));
        }
        let what_if = cached_modes()[rng.gen_range(0..6usize)];
        eco.analyze(what_if).expect("what-if analysis");
        eco.rollback(checkpoint).expect("rollback");

        for (mode, before) in cached_modes().into_iter().zip(&before) {
            let restored = eco.analyze(mode).expect("restored analysis");
            let stats = eco.last_stats();
            prop_assert!(!stats.full, "{mode}: the rollback must restore the cache");
            if let Some(before) = before {
                prop_assert_eq!(stats.stages_evaluated, 0, "{}: in-sync replay", mode);
                if let Err(msg) = assert_reports_match(mode, &restored, before) {
                    prop_assert!(false, "pre-checkpoint {}", msg);
                }
            }
            let fresh = eco.fresh_sta().analyze(mode).expect("batch analysis");
            if let Err(msg) = assert_reports_match(mode, &restored, &fresh) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// A clean replay (no edits since the cache was filled) re-evaluates
    /// zero stages in every cached mode and reproduces the cached report.
    #[test]
    fn clean_replay_is_free(seed in 0u64..10_000) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let mut eco = build_incremental(seed, 30, 4, &library, &process);
        for mode in cached_modes() {
            let first = eco.analyze(mode).expect("first");
            let second = eco.analyze(mode).expect("second");
            let stats = eco.last_stats();
            prop_assert!(!stats.full, "{mode}: replay must hit the cache");
            prop_assert_eq!(stats.stages_evaluated, 0, "{}: clean replay", mode);
            prop_assert_eq!(
                first.longest_delay.to_bits(),
                second.longest_delay.to_bits(),
                "{}: replay changed the answer", mode
            );
        }
    }
}
