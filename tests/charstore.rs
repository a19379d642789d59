//! Design-driven characterization and the on-disk characterization store
//! (`DESIGN.md` D15): however and whenever the macromodel tables get
//! built — for the design's arcs only or library-wide, serial or on the
//! worker pool, at build time or when an ECO brings in a new cell,
//! characterized fresh or replayed from disk — the served bits must be
//! identical, and a store-warm analyzer build must pay zero
//! characterization Newton solves.
//!
//! The tests share the process-global model store and the process-wide
//! characterization counters, so they serialize on one mutex and reset
//! the in-memory store at each boundary.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use xtalk::prelude::*;
use xtalk::sta::{CharStore, Edit, IncrementalSta};
use xtalk::wave::macromodel::{char_solves, clear_store, prewarm_library, stats, ArcModel};

/// Max-delay analyses where the fast path may engage (mirrors
/// `tests/macromodel.rs`).
const MAX_MODES: [AnalysisMode; 5] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
];

/// Characterization samples of one arc: 768 grid solves, 196 grid-cell
/// midpoint probes and 16 realistic-shape probes.
const SAMPLES_PER_ARC: usize = 980;

/// Serializes the tests: they all mutate the process-global model store.
fn store_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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
    placed(netlist, library, process)
}

fn placed(netlist: xtalk::netlist::Netlist, library: Library, process: Process) -> Design {
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

/// Builds an analyzer over whatever the model store holds and runs every
/// max-delay mode, returning the per-mode reports, the characterization
/// solves the build paid and the design's distinct characterizable arcs.
fn run_all(d: &Design, config: ExecConfig) -> (Vec<ModeReport>, usize, usize) {
    let before = char_solves();
    let sta =
        Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config).expect("sta");
    let paid = char_solves() - before;
    let arcs = sta
        .graph()
        .cell_stages()
        .flat_map(|cs| cs.arcs.iter().flatten())
        .filter(|arc| arc.key.is_some())
        .count();
    let reports = MAX_MODES
        .iter()
        .map(|&mode| sta.analyze(mode).expect("analysis"))
        .collect();
    (reports, paid, arcs)
}

/// Full-bit equality of two reports: the headline delay and every
/// endpoint arrival. Counters are deliberately not compared — a design-
/// driven build legitimately characterizes fewer arcs than a library-wide
/// sweep; it must not *serve* different bits.
fn assert_bits_equal(a: &ModeReport, b: &ModeReport, what: &str) {
    assert_eq!(
        a.longest_delay.to_bits(),
        b.longest_delay.to_bits(),
        "{what}: longest delay diverged"
    );
    assert_eq!(a.endpoints.len(), b.endpoints.len(), "{what}: endpoints");
    for (ea, eb) in a.endpoints.iter().zip(&b.endpoints) {
        assert_eq!(ea.net, eb.net, "{what}: endpoint order");
        assert_eq!(
            ea.rise.map(f64::to_bits),
            eb.rise.map(f64::to_bits),
            "{what}: endpoint {:?} rise",
            ea.net
        );
        assert_eq!(
            ea.fall.map(f64::to_bits),
            eb.fall.map(f64::to_bits),
            "{what}: endpoint {:?} fall",
            ea.net
        );
    }
}

fn tmp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "xtalk_test_charstore_{tag}_{}.bin",
        std::process::id()
    ))
}

/// Characterizing only the design's arcs must serve exactly the bits a
/// library-wide sweep serves, mode by mode, on the serial engine and on
/// the worker pool: both build each arc the design binds by the same
/// deterministic sweep. Cold builds are deterministic in cost too: two of
/// them pay equal characterization solves, and the store one writes
/// replays exactly the design's distinct arcs.
#[test]
fn design_driven_matches_library_wide_bit_for_bit_serial_and_threaded() {
    let _guard = store_lock();
    let d = design(4242);
    let store = tmp_store("design");
    let _ = std::fs::remove_file(&store);

    clear_store();
    let (serial, serial_paid, arcs) = run_all(
        &d,
        ExecConfig::serial().with_char_store(Some(store.clone())),
    );
    clear_store();
    let (threaded, threaded_paid, _) = run_all(&d, ExecConfig::serial().with_threads(4));
    // Reference arm: every library arc characterized before the build.
    clear_store();
    let before = char_solves();
    prewarm_library(&d.process, &d.library, 4);
    let library_paid_prewarm = char_solves() - before;
    let library_arcs = stats().models;
    let (library_wide, library_paid, _) = run_all(&d, ExecConfig::serial());

    assert!(serial_paid > 0, "the cold build characterized nothing");
    // The library's 148 keyed arcs are 62 electrically distinct ones, each
    // characterized once at 980 samples — less ten realistic-shape probes
    // of INVX4 and INVX8, whose mirrored outputs are faster than the slew
    // grid and are never solved.
    assert_eq!(library_arcs, 148, "library-wide models");
    assert_eq!(
        library_paid_prewarm,
        62 * SAMPLES_PER_ARC - 10,
        "the library-wide sweep characterized a twin arc again"
    );
    assert_eq!(
        serial_paid, threaded_paid,
        "two cold builds paid different characterization solves"
    );
    assert_eq!(
        library_paid, 0,
        "a library-wide sweep left a design arc out"
    );
    assert!(
        arcs < library_arcs,
        "the design binds every library arc ({arcs}); the comparison is vacuous"
    );
    let replayed = CharStore::open(&store).expect("open").load().expect("load");
    let _ = std::fs::remove_file(&store);
    assert_eq!(
        replayed.models as usize, arcs,
        "the store holds other than the design's arcs"
    );

    let mut any_hits = 0usize;
    for (i, mode) in MAX_MODES.iter().enumerate() {
        any_hits += library_wide[i].table_hits;
        for (arm, reports) in [("design serial", &serial), ("design threaded", &threaded)] {
            assert_bits_equal(&library_wide[i], &reports[i], &format!("{mode} vs {arm}"));
        }
    }
    assert!(
        any_hits > 0,
        "tables never engaged; the identity assertions are vacuous"
    );
}

/// Electrically identical arcs are characterized once. The AND, OR, XOR
/// and XNOR cells are built from NAND2X1, NOR2X1 and INVX1 stages, so a
/// cold design-driven build pays 980 samples per distinct arc, not per
/// keyed arc, and every twin binds the very model of the arc it twins.
/// Each key still gets its own store record.
#[test]
fn twin_arcs_are_characterized_once_and_share_one_model() {
    let _guard = store_lock();
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::bench::parse(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
         n1 = NAND(a, b)\nn2 = NOR(b, c)\nn3 = NOT(c)\n\
         n4 = AND(n1, n2)\nn5 = OR(n2, n3)\nn6 = XOR(n4, n5)\n\
         y = XNOR(n6, a)\nz = NOT(n6)\n",
        &library,
    )
    .expect("parse");
    let d = placed(netlist, library, process);
    let store = tmp_store("twins");
    let _ = std::fs::remove_file(&store);

    clear_store();
    let before = char_solves();
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial().with_char_store(Some(store.clone())),
    )
    .expect("sta");
    let paid = char_solves() - before;

    let mut keyed = 0usize;
    let mut distinct: Vec<Arc<ArcModel>> = Vec::new();
    for arc in sta
        .graph()
        .cell_stages()
        .flat_map(|cs| cs.arcs.iter().flatten())
    {
        if arc.key.is_none() {
            continue;
        }
        keyed += 1;
        let model = arc.model.as_ref().expect("every arc binds a usable model");
        if !distinct.iter().any(|m| Arc::ptr_eq(m, model)) {
            distinct.push(Arc::clone(model));
        }
    }
    assert!(
        distinct.len() < keyed,
        "no twin arcs ({keyed} keyed); the test is vacuous"
    );
    assert_eq!(
        paid,
        distinct.len() * SAMPLES_PER_ARC,
        "a cold build paid other than one characterization per distinct arc"
    );

    let model = |cell: &str, stage: usize, slot: usize, rising: bool| -> Arc<ArcModel> {
        let cs = sta
            .graph()
            .cell_stages()
            .find(|cs| cs.cell == cell && cs.stage == stage)
            .unwrap_or_else(|| panic!("{cell} stage {stage} is not in the design"));
        Arc::clone(
            cs.arcs[slot][rising as usize]
                .model
                .as_ref()
                .expect("bound"),
        )
    };
    for rising in [false, true] {
        for slot in 0..2 {
            let nand = model("NAND2X1", 0, slot, rising);
            for (cell, stage) in [("AND2X1", 0), ("XOR2X1", 0), ("XNOR2X1", 3)] {
                assert!(
                    Arc::ptr_eq(&nand, &model(cell, stage, slot, rising)),
                    "{cell} stage {stage} slot {slot} does not share NAND2X1's model"
                );
            }
            assert!(Arc::ptr_eq(
                &model("NOR2X1", 0, slot, rising),
                &model("OR2X1", 0, slot, rising)
            ));
        }
        let inv = model("INVX1", 0, 0, rising);
        for (cell, stage) in [("AND2X1", 1), ("OR2X1", 1), ("XNOR2X1", 4)] {
            assert!(
                Arc::ptr_eq(&inv, &model(cell, stage, 0, rising)),
                "{cell} stage {stage} does not share INVX1's model"
            );
        }
    }
    let replayed = CharStore::open(&store).expect("open").load().expect("load");
    let _ = std::fs::remove_file(&store);
    assert_eq!(
        replayed.models as usize, keyed,
        "every key gets its own store record"
    );
}

/// An ECO that brings in a cell the design never used characterizes that
/// cell's arcs when it is applied — and only then: the post-ECO analysis
/// equals a fresh batch run bit for bit with the new arcs answered through
/// their tables, a second edit to the same cell pays nothing, and so does
/// a fresh analyzer of the edited design over the same store.
#[test]
fn eco_to_an_unused_cell_binds_its_arcs_and_matches_batch() {
    let _guard = store_lock();
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::bench::parse(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
         w = NOT(a)\nx = NAND(w, b)\ny = NOT(x)\nz = NOT(w)\n",
        &library,
    )
    .expect("parse");
    assert!(netlist.gates().iter().all(|g| g.cell != "INVX8"));
    let d = placed(netlist, library, process);
    let store = tmp_store("eco");
    let _ = std::fs::remove_file(&store);
    let config = || ExecConfig::serial().with_char_store(Some(store.clone()));
    let mode = AnalysisMode::OneStep;

    clear_store();
    let mut eco = IncrementalSta::with_config(
        d.netlist.clone(),
        &d.library,
        &d.process,
        d.parasitics.clone(),
        config(),
    )
    .expect("eco");
    eco.analyze(mode).expect("baseline");

    let before = char_solves();
    eco.apply(&Edit::parse_line("resize g_y INVX8", 1).expect("edit"))
        .expect("resize");
    assert!(
        char_solves() > before,
        "the new cell's arcs were not characterized on apply"
    );
    let report = eco.analyze(mode).expect("post-eco");
    assert!(report.stage_solves > 0, "the edit re-timed nothing");
    assert_eq!(
        report.table_hits, report.stage_solves,
        "a solve of the edited cone was not a table hit"
    );
    let batch = Sta::with_config(
        eco.netlist(),
        &d.library,
        &d.process,
        eco.parasitics(),
        config(),
    )
    .expect("batch")
    .analyze(mode)
    .expect("batch analysis");
    assert_bits_equal(&batch, &report, "incremental vs batch after the resize");

    let before = char_solves();
    eco.apply(&Edit::parse_line("resize g_z INVX8", 2).expect("edit"))
        .expect("second resize");
    let again = eco.analyze(mode).expect("second post-eco");
    assert_eq!(
        char_solves(),
        before,
        "a second INVX8 resize paid grid solves"
    );

    clear_store();
    let before = char_solves();
    let fresh = Sta::with_config(
        eco.netlist(),
        &d.library,
        &d.process,
        eco.parasitics(),
        config(),
    )
    .expect("fresh")
    .analyze(mode)
    .expect("fresh analysis");
    assert_eq!(
        char_solves(),
        before,
        "a fresh analyzer over the store paid grid solves"
    );
    assert_bits_equal(&fresh, &again, "fresh analyzer vs incremental");
    let _ = std::fs::remove_file(&store);
}

/// A second analyzer build against a populated store must replay every
/// table instead of characterizing — zero characterization Newton solves
/// — and report the same bits.
#[test]
fn store_warm_build_pays_zero_char_solves() {
    let _guard = store_lock();
    let d = design(97);
    let store = tmp_store("warm");
    let _ = std::fs::remove_file(&store);
    let mode = AnalysisMode::OneStep;

    clear_store();
    let cold_chars = {
        let before = char_solves();
        let sta = Sta::with_config(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            ExecConfig::serial().with_char_store(Some(store.clone())),
        )
        .expect("cold sta");
        let report = sta.analyze(mode).expect("cold analysis");
        (report, char_solves() - before)
    };
    assert!(
        cold_chars.1 > 0,
        "cold build characterized nothing; the replay test is vacuous"
    );

    clear_store();
    let before = char_solves();
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial().with_char_store(Some(store.clone())),
    )
    .expect("warm sta");
    let warm = sta.analyze(mode).expect("warm analysis");
    assert_eq!(
        char_solves() - before,
        0,
        "store-warm build still ran characterization Newton solves"
    );
    assert_bits_equal(&cold_chars.0, &warm, "store-warm replay");
    let _ = std::fs::remove_file(&store);
}

/// Damaged store records — a flipped payload byte (checksum mismatch) and
/// a truncated tail (broken framing) — must be skipped on replay, never
/// served, and the affected arcs re-characterized to the same bits.
#[test]
fn corrupt_store_records_are_skipped_and_rebuilt() {
    let _guard = store_lock();
    let d = design(1234);
    let store = tmp_store("corrupt");
    let _ = std::fs::remove_file(&store);
    let mode = AnalysisMode::OneStep;

    clear_store();
    let analyze = |config: ExecConfig| {
        let sta = Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config)
            .expect("sta");
        sta.analyze(mode).expect("analysis")
    };
    let reference = analyze(ExecConfig::serial().with_char_store(Some(store.clone())));

    // Flip a byte inside the first record's payload (after the 16-byte
    // magic, the 4-byte length and the 8-byte checksum) and drop the last
    // five bytes of the final record.
    let mut bytes = std::fs::read(&store).expect("read store");
    assert!(bytes.len() > 40, "store unexpectedly small");
    bytes[16 + 12 + 2] ^= 0x5a;
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&store, &bytes).expect("rewrite store");

    clear_store();
    let rebuilt = analyze(ExecConfig::serial().with_char_store(Some(store.clone())));
    assert_bits_equal(&reference, &rebuilt, "corrupt-store rebuild");
    let _ = std::fs::remove_file(&store);
}

/// A crash that tears the store's last record must not strand later
/// appends behind the tear: the next analyzer build re-characterizes the
/// torn arc, and its append lands where every later replay reaches it.
#[test]
fn torn_tail_is_healed_by_the_next_append() {
    let _guard = store_lock();
    let d = design(4321);
    let store = tmp_store("torn_src");
    let _ = std::fs::remove_file(&store);
    let build = |path: &PathBuf| {
        clear_store();
        Sta::with_config(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            ExecConfig::serial().with_char_store(Some(path.clone())),
        )
        .expect("sta");
    };

    build(&store);
    let filled = CharStore::open(&store).expect("open").load().expect("load");
    assert!(filled.models > 0, "the build characterized nothing");
    assert_eq!(filled.corrupt, 0);

    // A path no handle in this process has opened yet: `open_shared`
    // caches one handle per path.
    let torn = tmp_store("torn_copy");
    let bytes = std::fs::read(&store).expect("read store");
    std::fs::write(&torn, &bytes[..bytes.len() - 5]).expect("write torn copy");

    build(&torn);
    let healed = CharStore::open(&torn)
        .expect("reopen")
        .load()
        .expect("load");
    assert_eq!(
        healed.models, filled.models,
        "the re-characterized arc was appended behind the torn tail"
    );
    assert_eq!(healed.corrupt, 0, "the torn tail is still on disk");
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&torn);
}

/// `xtalk sdf --char-store` ends with the characterization line, as
/// `report` and `eco` do. Run twice in fresh processes on one store, the
/// first run characterizes and the rerun replays every table, writing the
/// same SDF bytes.
#[test]
fn sdf_char_store_rerun_replays_every_table() {
    let store = tmp_store("sdf");
    let _ = std::fs::remove_file(&store);
    let xtalk = |args: &[&str]| -> String {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtalk"))
            .args(args)
            .output()
            .expect("run xtalk");
        assert!(
            out.status.success(),
            "xtalk {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let bench = store.with_extension("bench").to_string_lossy().into_owned();
    xtalk(&["generate", "--preset", "small", "--seed", "7", &bench]);
    let store_arg = store.to_string_lossy().into_owned();
    let grid_solves = |out: &str| -> usize {
        let last = out.lines().last().unwrap_or_default();
        last.strip_prefix("characterization: ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no characterization line last: {out}"))
    };
    let mut runs = Vec::new();
    for tag in ["cold", "warm"] {
        let sdf = store.with_extension(format!("{tag}.sdf"));
        let sdf_arg = sdf.to_string_lossy().into_owned();
        let out = xtalk(&["sdf", &bench, &sdf_arg, "--char-store", &store_arg]);
        runs.push((grid_solves(&out), std::fs::read(&sdf).expect("sdf file")));
    }
    assert!(runs[0].0 > 0, "the first run characterizes");
    assert_eq!(runs[1].0, 0, "the rerun replays every table from the store");
    assert_eq!(runs[0].1, runs[1].1, "the store must not change the SDF");
}
