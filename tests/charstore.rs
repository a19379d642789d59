//! Characterization schedules and the on-disk characterization store
//! (`DESIGN.md` D15): however and whenever the macromodel tables get
//! built — prewarmed up front, demand-driven (lazy), serial or on the
//! worker pool, characterized fresh or replayed from disk — the served
//! bits must be identical, and a store-warm analyzer build must pay zero
//! characterization Newton solves.
//!
//! The tests share the process-global model store and the process-wide
//! characterization counters, so they serialize on one mutex and reset
//! the in-memory store at each boundary.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use xtalk::prelude::*;
use xtalk::sta::{CharStore, CharacterizeMode};
use xtalk::wave::macromodel::{char_solves, clear_store};

/// Max-delay analyses where the fast path may engage (mirrors
/// `tests/macromodel.rs`).
const MAX_MODES: [AnalysisMode; 5] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
];

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

/// Builds an analyzer from an emptied model store and runs every
/// max-delay mode, returning the per-mode reports.
fn run_all(d: &Design, config: ExecConfig) -> Vec<ModeReport> {
    clear_store();
    let sta =
        Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config).expect("sta");
    MAX_MODES
        .iter()
        .map(|&mode| sta.analyze(mode).expect("analysis"))
        .collect()
}

/// Full-bit equality of two reports: the headline delay and every
/// endpoint arrival. Counters are deliberately not compared — a lazy run
/// legitimately characterizes fewer arcs than a prewarm run; it must not
/// *serve* different bits.
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

/// Lazy characterization must route and serve exactly as prewarm, mode by
/// mode, on the serial engine and on the worker pool: the schedules build
/// the same arc universe from the same deterministic sweep, so when a
/// model is built cannot show in the bits.
#[test]
fn lazy_matches_prewarm_bit_for_bit_serial_and_threaded() {
    let _guard = store_lock();
    let d = design(4242);
    let store = tmp_store("lazy");
    let _ = std::fs::remove_file(&store);

    // Reference arm: serial prewarm, persisted so the threaded prewarm
    // arm replays instead of paying a second full characterization.
    let prewarm_serial = run_all(
        &d,
        ExecConfig::serial().with_char_store(Some(store.clone())),
    );
    let prewarm_threaded = run_all(
        &d,
        ExecConfig::serial()
            .with_threads(4)
            .with_char_store(Some(store.clone())),
    );
    let lazy_serial = run_all(
        &d,
        ExecConfig::serial().with_characterize(CharacterizeMode::Lazy),
    );
    let lazy_threaded = run_all(
        &d,
        ExecConfig::serial()
            .with_threads(4)
            .with_characterize(CharacterizeMode::Lazy),
    );
    let _ = std::fs::remove_file(&store);

    let mut any_hits = 0usize;
    for (i, mode) in MAX_MODES.iter().enumerate() {
        any_hits += prewarm_serial[i].table_hits;
        for (arm, reports) in [
            ("prewarm threaded", &prewarm_threaded),
            ("lazy serial", &lazy_serial),
            ("lazy threaded", &lazy_threaded),
        ] {
            assert_bits_equal(&prewarm_serial[i], &reports[i], &format!("{mode} vs {arm}"));
        }
    }
    assert!(
        any_hits > 0,
        "tables never engaged; the schedule-identity assertions are vacuous"
    );
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
