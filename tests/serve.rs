//! End-to-end tests of the timing-service daemon and its on-disk solve
//! store: protocol round-trips, concurrent-client bit-identity against
//! the batch CLI, daemon-restart warm starts, corrupt-store replay, and
//! what-if rollback.
//!
//! Every daemon here runs with a serial [`ExecConfig`] — concurrency under
//! test is *between* sessions and clients, not inside the solver — and on
//! a socket/store under a per-process temp directory.

use std::path::{Path, PathBuf};
use std::time::Duration;

use xtalk::cli;
use xtalk::prelude::*;
use xtalk::sta::serve::{Client, Daemon, Json, ServeConfig, ServeSummary};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtalk_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Generates a small coupled design and writes it as a `.bench` file.
fn make_bench(name: &str, seed: u64) -> PathBuf {
    let path = tmp(name);
    let out = cli::run(&[
        "generate".into(),
        "--preset".into(),
        "small".into(),
        "--seed".into(),
        seed.to_string(),
        path.to_string_lossy().into_owned(),
    ])
    .expect("generate");
    assert!(out.contains("generated"));
    path
}

/// Binds a daemon (so clients cannot race the bind) and runs it on a
/// background thread until a client sends `shutdown`.
fn start_daemon(socket: &Path, store: Option<&Path>) -> std::thread::JoinHandle<ServeSummary> {
    start_daemon_with(socket, store, ExecConfig::serial())
}

fn start_daemon_with(
    socket: &Path,
    store: Option<&Path>,
    exec: ExecConfig,
) -> std::thread::JoinHandle<ServeSummary> {
    start_daemon_config(
        ServeConfig::new(socket)
            .with_store(store.map(Path::to_path_buf))
            .with_exec(exec),
    )
}

fn start_daemon_config(config: ServeConfig) -> std::thread::JoinHandle<ServeSummary> {
    let daemon = Daemon::bind(config).expect("bind daemon");
    std::thread::spawn(move || daemon.run().expect("daemon run"))
}

fn connect(socket: &Path) -> Client {
    Client::connect_retry(socket, Duration::from_secs(5)).expect("connect")
}

fn ok(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {resp}"
    );
    resp
}

fn delay_bits(resp: &Json) -> String {
    resp.str_field("delay_bits")
        .expect("delay_bits")
        .to_string()
}

fn newton_iters(resp: &Json) -> u64 {
    resp.get("newton_iters")
        .and_then(Json::as_u64)
        .expect("newton_iters")
}

/// The batch CLI's bit-exact delay for `netlist` under `mode`, via
/// `xtalk report --bits`.
fn batch_bits(netlist: &Path, mode: &str) -> String {
    let out = cli::run(&[
        "report".into(),
        netlist.to_string_lossy().into_owned(),
        "--mode".into(),
        mode.into(),
        "--bits".into(),
        "--threads".into(),
        "1".into(),
    ])
    .expect("batch report");
    out.lines()
        .find_map(|l| l.strip_prefix("delay bits: "))
        .expect("--bits line")
        .to_string()
}

/// A net that is driven, loaded and coupled — a worthwhile edit target.
fn busy_net(bench_path: &Path) -> String {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let text = std::fs::read_to_string(bench_path).expect("bench");
    let netlist = xtalk::netlist::bench::parse(&text, &library).expect("parse");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    netlist
        .nets()
        .iter()
        .enumerate()
        .find(|(ni, net)| {
            net.driver.is_some()
                && !net.loads.is_empty()
                && !parasitics.nets[*ni].couplings.is_empty()
        })
        .map(|(_, net)| net.name.clone())
        .expect("a coupled net")
}

#[test]
fn concurrent_clients_are_bit_identical_to_the_batch_cli() {
    let bench = make_bench("conc.bench", 21);
    let socket = tmp("conc.sock");
    let daemon = start_daemon(&socket, None);
    let reference = batch_bits(&bench, "onestep");

    let mut threads = Vec::new();
    for i in 0..3 {
        let socket = socket.clone();
        let bench = bench.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = connect(&socket);
            let design = format!("conc{i}");
            let path = bench.to_string_lossy().into_owned();
            ok(&client.load(&design, &path, None).expect("load"));
            let resp = client.analyze(&design, Some("onestep")).expect("analyze");
            delay_bits(ok(&resp))
        }));
    }
    for t in threads {
        let bits = t.join().expect("client thread");
        assert_eq!(
            bits, reference,
            "a concurrent client's delay diverged from the serial batch CLI"
        );
    }

    let mut client = connect(&socket);
    let stats = client.stats().expect("stats");
    assert_eq!(
        ok(&stats)
            .get("sessions")
            .and_then(Json::as_arr)
            .map(<[_]>::len),
        Some(3),
        "three resident sessions: {stats}"
    );
    ok(&client.shutdown().expect("shutdown"));
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.requests >= 8, "all requests counted: {summary:?}");
    assert!(!socket.exists(), "socket file removed on clean shutdown");
}

#[test]
fn restarted_daemon_starts_warm_from_the_store_and_stays_bit_identical() {
    let bench = make_bench("warm.bench", 22);
    let store = tmp("warm.store");
    let _ = std::fs::remove_file(&store);
    let socket = tmp("warm.sock");
    let path = bench.to_string_lossy().into_owned();

    // Generation 1: a cold daemon populates the store.
    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    let load = client.load("d", &path, None).expect("load");
    assert_eq!(
        ok(&load).get("store_replayed").and_then(Json::as_u64),
        Some(0),
        "an empty store replays nothing: {load}"
    );
    let cold = client.analyze("d", Some("onestep")).expect("cold analyze");
    let cold_bits = delay_bits(ok(&cold));
    let cold_iters = newton_iters(&cold);
    assert!(cold_iters > 0, "a cold analysis integrates: {cold}");
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 1");
    assert!(store.exists(), "write-behind populated the store");

    // Generation 2: a fresh daemon on the populated store.
    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    let load = client.load("d", &path, None).expect("reload");
    let replayed = ok(&load)
        .get("store_replayed")
        .and_then(Json::as_u64)
        .expect("replayed");
    assert!(
        replayed > 0,
        "the store replays into the fresh session: {load}"
    );
    let warm = client.analyze("d", Some("onestep")).expect("warm analyze");
    let warm_bits = delay_bits(ok(&warm));
    let warm_iters = newton_iters(&warm);
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 2");

    assert_eq!(
        warm_bits, cold_bits,
        "disk-warm analysis must be bit-identical to the cold one"
    );
    assert_eq!(
        warm_bits,
        batch_bits(&bench, "onestep"),
        "disk-warm analysis must be bit-identical to the batch CLI"
    );
    assert!(
        warm_iters < cold_iters,
        "a disk-warm start must solve strictly fewer Newton iterations \
         ({warm_iters} vs {cold_iters})"
    );
}

/// A store-backed daemon keeps one keyed solve cache: a second session's
/// first analysis of the same design answers from what the first solved,
/// bit-identical to the batch CLI, and a restarted daemon reads its store
/// once, at bind, however many sessions and corner replicas follow.
#[test]
fn sessions_share_one_cache_and_the_store_is_read_once() {
    let bench = make_bench("shared.bench", 29);
    let store = tmp("shared.store");
    let _ = std::fs::remove_file(&store);
    let socket = tmp("shared.sock");
    let path = bench.to_string_lossy().into_owned();
    let reference = batch_bits(&bench, "onestep");
    // A `stats` counter of the store, or of the first session row.
    let counter = |stats: &Json, section: &str, key: &str| {
        let section = ok(stats).get(section).expect("stats section");
        let row = section.as_arr().map_or(section, |rows| &rows[0]);
        row.get(key).and_then(Json::as_u64).expect("stats counter")
    };

    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    ok(&client.load("d1", &path, None).expect("load d1"));
    let first = client.analyze("d1", Some("onestep")).expect("analyze d1");
    let before = counter(&client.stats().expect("stats"), "sessions", "cache_hits");
    ok(&client.load("d2", &path, None).expect("load d2"));
    let second = client.analyze("d2", Some("onestep")).expect("analyze d2");
    let stats = client.stats().expect("stats");
    assert!(
        counter(&stats, "sessions", "cache_hits") > before,
        "d2's first analysis hits what d1 solved: {stats}"
    );
    assert!(newton_iters(&second) < newton_iters(&first));
    assert_eq!(delay_bits(ok(&first)), reference);
    assert_eq!(delay_bits(ok(&second)), reference);
    let records = counter(&stats, "store", "appended");
    assert!(records > 0, "write-behind populated the store: {stats}");
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 1");

    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    for design in ["d1", "d2"] {
        let load = client.load(design, &path, None).expect("reload");
        assert_eq!(
            ok(&load).get("store_replayed").and_then(Json::as_u64),
            Some(records),
            "every load reports the one replay at bind: {load}"
        );
    }
    client.set_corner(Some("ss"));
    ok(&client.analyze("d1", Some("onestep")).expect("analyze ss"));
    client.set_corner(None);
    let stats = client.stats().expect("stats");
    assert_eq!(
        counter(&stats, "store", "replayed"),
        records,
        "two sessions and a corner replica read the store once: {stats}"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 2");
}

/// One connection's write-behind append is never missing from another
/// connection's `stats`: `stats` waits for an append in progress and
/// flushes what is still pending before it reads the store counters, so
/// it counts every record a restart replays.
#[test]
fn stats_on_another_connection_counts_every_appended_record() {
    let bench = make_bench("flush.bench", 31);
    let store = tmp("flush.store");
    let _ = std::fs::remove_file(&store);
    let socket = tmp("flush.sock");
    let path = bench.to_string_lossy().into_owned();
    let store_counter = |stats: &Json, key: &str| {
        ok(stats)
            .get("store")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .expect("store counter")
    };

    let daemon = start_daemon(&socket, Some(&store));
    let mut solver = connect(&socket);
    let mut watcher = connect(&socket);
    ok(&solver.load("d", &path, None).expect("load"));
    ok(&solver.analyze("d", Some("onestep")).expect("analyze"));
    let appended = store_counter(&watcher.stats().expect("stats"), "appended");
    assert!(
        appended > 0,
        "the analysis appended nothing; the test is vacuous"
    );
    ok(&solver.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 1");

    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    let replayed = store_counter(&client.stats().expect("stats"), "replayed");
    assert_eq!(
        appended, replayed,
        "stats on the second connection missed records the first appended"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 2");
}

#[test]
fn corrupt_store_entries_are_skipped_never_served() {
    let bench = make_bench("corrupt.bench", 23);
    let store = tmp("corrupt.store");
    let _ = std::fs::remove_file(&store);
    let socket = tmp("corrupt.sock");
    let path = bench.to_string_lossy().into_owned();

    // Populate the store, then flip a byte inside the first record's
    // payload (magic 17 bytes, then [len u32][checksum u64][payload]).
    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    ok(&client.load("d", &path, None).expect("load"));
    let bits = delay_bits(ok(&client.analyze("d", Some("best")).expect("analyze")));
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 1");

    let mut bytes = std::fs::read(&store).expect("store bytes");
    let magic = b"XTALKSOLVESTORE1\n".len();
    bytes[magic + 12 + 5] ^= 0x40;
    std::fs::write(&store, &bytes).expect("corrupt store");

    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    let load = client.load("d", &path, None).expect("reload");
    let skipped = ok(&load)
        .get("store_corrupt_skipped")
        .and_then(Json::as_u64)
        .expect("corrupt_skipped");
    assert_eq!(skipped, 1, "exactly the damaged record is skipped: {load}");
    assert!(
        load.get("store_replayed").and_then(Json::as_u64) > Some(0),
        "records after the damaged one still replay: {load}"
    );
    // The surviving entries serve correct values: still bit-identical.
    let after = delay_bits(ok(&client.analyze("d", Some("best")).expect("analyze")));
    assert_eq!(after, bits, "corruption may cost warmth, never correctness");
    // The skip surfaces as a diagnostic counter in `stats` too.
    let stats = client.stats().expect("stats");
    let store_stats = ok(&stats).get("store").expect("store stats");
    assert_eq!(
        store_stats.get("corrupt_skipped").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 2");
}

#[test]
fn what_if_rolls_back_to_baseline_bits_and_matches_a_committed_eco() {
    let bench = make_bench("whatif.bench", 24);
    let socket = tmp("whatif.sock");
    let net = busy_net(&bench);
    let edit = format!("reroute {net} 2.5");
    let path = bench.to_string_lossy().into_owned();

    // Signoff: the premise below — rerouting one coupled net must move the
    // *longest* delay — holds for the exact engine, but the macromodel's
    // padded tables can promote an unrelated path to the maximum in both
    // runs and mask the edit. The what-if/rollback/eco equivalence under
    // test is engine-independent.
    let daemon = start_daemon_with(&socket, None, ExecConfig::serial().with_signoff(true));
    let mut client = connect(&socket);
    // Session A evaluates the edit hypothetically; session B commits it.
    ok(&client.load("a", &path, None).expect("load a"));
    ok(&client.load("b", &path, None).expect("load b"));
    let baseline = delay_bits(ok(&client.analyze("a", Some("onestep")).expect("baseline")));

    let what_if = client
        .what_if("a", &[edit.as_str()], Some("onestep"))
        .expect("what-if");
    assert_eq!(
        ok(&what_if).get("rolled_back").and_then(Json::as_bool),
        Some(true)
    );
    let hypothetical = delay_bits(&what_if);
    assert_ne!(
        hypothetical, baseline,
        "a 2.5x reroute of a coupled net must move the delay"
    );

    // The rollback restored session A exactly: same bits as before.
    let after = delay_bits(ok(&client.analyze("a", Some("onestep")).expect("after")));
    assert_eq!(after, baseline, "what-if must leave the session untouched");

    // Committing the same edit on session B reproduces the what-if bits.
    let eco = client.eco("b", &[edit.as_str()]).expect("eco");
    assert_eq!(ok(&eco).get("applied").and_then(Json::as_u64), Some(1));
    let committed = delay_bits(ok(&client
        .analyze("b", Some("onestep"))
        .expect("committed")));
    assert_eq!(
        committed, hypothetical,
        "what-if and committed-eco timings must agree"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon");
}

#[test]
fn expired_deadlines_cancel_cleanly_and_leave_the_session_consistent() {
    let bench = make_bench("deadline.bench", 26);
    let socket = tmp("deadline.sock");
    let path = bench.to_string_lossy().into_owned();
    let net = busy_net(&bench);
    let edit = format!("reroute {net} 2.0");
    let daemon = start_daemon(&socket, None);
    let mut client = connect(&socket);
    ok(&client.load("d", &path, None).expect("load"));

    // A zero budget expires on arrival: the analysis is cancelled
    // cooperatively and the failure is typed and retryable.
    client.set_deadline_ms(Some(0));
    let resp = client.analyze("d", Some("onestep")).expect("analyze");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.str_field("kind"), Some("deadline"), "{resp}");
    assert_eq!(resp.get("retryable").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("exit_code").and_then(Json::as_u64), Some(4));

    // An ECO under an expired deadline rolls back: nothing stays applied.
    let resp = client.eco("d", &[edit.as_str()]).expect("eco");
    assert_eq!(resp.str_field("kind"), Some("deadline"), "{resp}");

    // A query on the still-uncached session must analyze, so the same
    // budget bounds it.
    let text = std::fs::read_to_string(&bench).expect("bench");
    let endpoint = text
        .lines()
        .find_map(|l| l.strip_prefix("OUTPUT(")?.strip_suffix(')'))
        .expect("a primary output");
    let resp = client
        .query("d", endpoint, Some("onestep"), None)
        .expect("query");
    assert_eq!(resp.str_field("kind"), Some("deadline"), "{resp}");

    // The daemon kept serving and the session stayed consistent: without
    // the deadline the same session reproduces the batch CLI bit for bit.
    client.set_deadline_ms(None);
    let clean = client.analyze("d", Some("onestep")).expect("clean analyze");
    assert_eq!(
        delay_bits(ok(&clean)),
        batch_bits(&bench, "onestep"),
        "a session that survived deadline cancellations must stay bit-identical"
    );

    let stats = client.stats().expect("stats");
    assert!(
        ok(&stats).get("deadline_hits").and_then(Json::as_u64) >= Some(2),
        "both expiries counted: {stats}"
    );
    let sessions = stats.get("sessions").and_then(Json::as_arr).expect("rows");
    assert_eq!(
        sessions[0].get("edits").and_then(Json::as_u64),
        Some(0),
        "the rolled-back ECO left zero committed edits: {stats}"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon");
}

#[test]
fn over_capacity_connections_get_a_typed_busy_response() {
    let socket = tmp("busy.sock");
    let daemon = start_daemon_config(
        ServeConfig::new(&socket)
            .with_exec(ExecConfig::serial())
            .with_max_connections(1),
    );
    // The first connection occupies the only slot by staying open.
    let held = connect(&socket);

    // The second is answered with a typed, retryable busy and closed.
    let mut second = Client::connect_retry(&socket, Duration::from_secs(5)).expect("connect 2");
    let resp = second.stats().expect("busy frame");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.str_field("kind"), Some("busy"), "{resp}");
    assert_eq!(resp.get("retryable").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("queue_depth").and_then(Json::as_u64), Some(1));
    assert_eq!(resp.get("limit").and_then(Json::as_u64), Some(1));
    assert_eq!(resp.get("exit_code").and_then(Json::as_u64), Some(5));

    // Releasing the slot lets a retrying client in — the daemon kept
    // serving the whole time.
    drop(held);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = connect(&socket);
        if let Ok(stats) = retry.stats() {
            if stats.get("ok").and_then(Json::as_bool) == Some(true) {
                assert!(
                    stats.get("busy_rejections").and_then(Json::as_u64) >= Some(1),
                    "the rejection is counted: {stats}"
                );
                ok(&retry.shutdown().expect("shutdown"));
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never readmitted after the held connection closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.join().expect("daemon");
}

#[test]
fn compacted_store_restarts_warm_and_bit_identical() {
    let bench = make_bench("compact.bench", 27);
    let store = tmp("compact.store");
    let _ = std::fs::remove_file(&store);
    let socket = tmp("compact.sock");
    let path = bench.to_string_lossy().into_owned();

    // Generation 1: populate the store cold, then compact it on demand.
    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    ok(&client.load("d", &path, None).expect("load"));
    let cold = client.analyze("d", Some("onestep")).expect("cold analyze");
    let cold_bits = delay_bits(ok(&cold));
    let cold_iters = newton_iters(&cold);
    let compact = client.compact().expect("compact");
    assert!(
        ok(&compact).get("live").and_then(Json::as_u64) > Some(0),
        "the populated log carries live records: {compact}"
    );
    assert_eq!(compact.get("dropped").and_then(Json::as_u64), Some(0));
    let stats = client.stats().expect("stats");
    let store_stats = ok(&stats).get("store").expect("store stats");
    assert_eq!(
        store_stats.get("compactions").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 1");

    // Generation 2: a daemon restarted on the *compacted* store is still
    // disk-warm (strictly fewer Newton iterations) and bit-identical.
    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    let load = client.load("d", &path, None).expect("reload");
    assert!(
        ok(&load).get("store_replayed").and_then(Json::as_u64) > Some(0),
        "the compacted store replays: {load}"
    );
    let warm = client.analyze("d", Some("onestep")).expect("warm analyze");
    assert_eq!(delay_bits(ok(&warm)), cold_bits);
    assert_eq!(cold_bits, batch_bits(&bench, "onestep"));
    assert!(
        newton_iters(&warm) < cold_iters,
        "compaction must not cost the disk-warm fast path"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon 2");
}

#[test]
fn killed_daemon_leaves_a_recoverable_store_and_reclaimable_socket() {
    let bench = make_bench("kill.bench", 28);
    let store = tmp("kill.store");
    let _ = std::fs::remove_file(&store);
    let socket = tmp("kill.sock");
    let _ = std::fs::remove_file(&socket);
    let path = bench.to_string_lossy().into_owned();
    let net = busy_net(&bench);
    let edit = format!("reroute {net} 1.5");

    // Run the daemon as a real subprocess (an in-process thread cannot be
    // killed abruptly) with per-append fsync, then SIGKILL it mid-session
    // — after an ECO, with no shutdown handshake and no socket cleanup.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_xtalk"))
        .args([
            "serve",
            "--socket",
            &socket.to_string_lossy(),
            "--store",
            &store.to_string_lossy(),
            "--store-sync",
            "always",
            "--threads",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut client = Client::connect_retry(&socket, Duration::from_secs(30)).expect("connect");
    ok(&client.load("d", &path, None).expect("load"));
    let cold = client.analyze("d", Some("onestep")).expect("cold analyze");
    let cold_bits = delay_bits(ok(&cold));
    ok(&client.eco("d", &[edit.as_str()]).expect("eco"));
    child.kill().expect("kill -9");
    let _ = child.wait();
    assert!(socket.exists(), "abrupt death leaves a stale socket file");

    // A restarted daemon reclaims the stale socket, replays the store,
    // and reproduces the batch CLI bit for bit.
    let daemon = start_daemon(&socket, Some(&store));
    let mut client = connect(&socket);
    let load = client.load("d", &path, None).expect("reload");
    assert!(
        ok(&load).get("store_replayed").and_then(Json::as_u64) > Some(0),
        "the fsynced store survived the kill: {load}"
    );
    let warm = client.analyze("d", Some("onestep")).expect("warm analyze");
    assert_eq!(
        delay_bits(ok(&warm)),
        cold_bits,
        "recovery must reproduce the pre-kill timing exactly"
    );
    assert_eq!(cold_bits, batch_bits(&bench, "onestep"));
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon");
}

/// `xtalk client eco` and `what-if` send a script's lines as written, and
/// the daemon reads them by the grammar `xtalk eco` uses: comment lines,
/// blank lines and trailing comments are skipped, and a bad edit is
/// reported by its line in the file.
#[test]
fn client_scripts_follow_the_eco_script_grammar() {
    let bench = make_bench("grammar.bench", 26);
    let path = bench.to_string_lossy().into_owned();
    let net = busy_net(&bench);
    let text = format!("# lengthen one net\n\nreroute {net} 1.5 # longer\n");
    let script = tmp("grammar.eco");
    std::fs::write(&script, &text).expect("write script");
    let bad = tmp("grammar_bad.eco");
    std::fs::write(
        &bad,
        format!("# two edits\nreroute {net} 1.5\nreroute {net}\n"),
    )
    .expect("write script");

    // What `xtalk eco` computes: the script through the incremental engine.
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let (netlist, parasitics) =
        xtalk::sta::design::load_design(&path, None, &process, &library).expect("load");
    let mut eco = IncrementalSta::with_config(
        netlist,
        &library,
        &process,
        parasitics,
        ExecConfig::serial(),
    )
    .expect("eco");
    assert_eq!(eco.apply_script(&text).expect("script").len(), 1);
    let report = eco.analyze(AnalysisMode::OneStep).expect("analyze");
    let expected = format!("delay bits: {:016x}", report.longest_delay.to_bits());

    let socket = tmp("grammar.sock");
    let daemon = start_daemon(&socket, None);
    let socket_arg = socket.to_string_lossy().into_owned();
    let client = |args: &[&str]| {
        let argv: Vec<String> = ["client", "--socket", &socket_arg]
            .iter()
            .chain(args)
            .map(|a| a.to_string())
            .collect();
        cli::run(&argv)
    };
    let script = script.to_string_lossy().into_owned();
    client(&["load", "d", &path]).expect("load");
    let what_if = client(&["what-if", "d", &script, "--mode", "onestep"]).expect("what-if");
    assert!(what_if.contains(&expected), "{what_if}");
    let applied = client(&["eco", "d", &script]).expect("eco");
    assert!(applied.starts_with("applied 1 edits"), "{applied}");
    let analyzed = client(&["analyze", "d", "--mode", "onestep"]).expect("analyze");
    assert!(analyzed.contains(&expected), "{analyzed}");
    let e = client(&["eco", "d", &bad.to_string_lossy()]).expect_err("bad edit");
    assert!(
        e.to_string()
            .contains("edit script line 3: reroute takes <net> <scale>"),
        "{e}"
    );
    client(&["shutdown"]).expect("shutdown");
    daemon.join().expect("daemon");
}

#[test]
fn protocol_errors_are_typed_responses_not_hangups() {
    let bench = make_bench("errors.bench", 25);
    let socket = tmp("errors.sock");
    let path = bench.to_string_lossy().into_owned();
    let daemon = start_daemon(&socket, None);
    let mut client = connect(&socket);

    // Unknown command.
    let resp = client
        .request(&Json::obj(vec![("cmd", Json::str("frobnicate"))]))
        .expect("request");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(resp
        .str_field("error")
        .expect("error")
        .contains("unknown command"));

    // Missing cmd field.
    let resp = client
        .request(&Json::obj(vec![("design", Json::str("d"))]))
        .expect("request");
    assert!(resp.str_field("error").expect("error").contains("no `cmd`"));

    // Analysis against a session that was never loaded.
    let resp = client.analyze("ghost", None).expect("request");
    assert!(resp
        .str_field("error")
        .expect("error")
        .contains("no session"));

    // Unknown mode and bad netlist path are rejected per-request; the
    // connection stays usable throughout.
    ok(&client.load("d", &path, None).expect("load"));
    let resp = client.analyze("d", Some("warp")).expect("request");
    assert!(resp
        .str_field("error")
        .expect("error")
        .contains("unknown mode"));
    let resp = client
        .load("x", "/nonexistent.bench", None)
        .expect("request");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    // A failing ECO edit reports which edit died and how many applied.
    let resp = client
        .eco("d", &["resize no_such_gate INVX4"])
        .expect("request");
    assert!(resp
        .str_field("error")
        .expect("error")
        .contains("unknown gate"));

    // Clean requests still carry exit_code 0; a query on a real endpoint
    // works after all those failures.
    let analyze = client.analyze("d", Some("best")).expect("analyze");
    assert_eq!(
        ok(&analyze).get("exit_code").and_then(Json::as_u64),
        Some(0)
    );
    let endpoint = analyze.str_field("endpoint").expect("endpoint").to_string();
    let query = client
        .query("d", &endpoint, Some("best"), Some(1000.0))
        .expect("query");
    assert!(
        ok(&query)
            .get("slack_ns")
            .and_then(Json::as_f64)
            .expect("slack")
            > 0.0,
        "a 1000 ns period leaves positive slack: {query}"
    );
    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon");
}

/// The batch scenario runner's bit-exact per-corner delay for `netlist`,
/// via `xtalk report --corners <corner> --bits`.
fn batch_corner_bits(netlist: &Path, mode: &str, corner: &str) -> String {
    let out = cli::run(&[
        "report".into(),
        netlist.to_string_lossy().into_owned(),
        "--mode".into(),
        mode.into(),
        "--corners".into(),
        corner.into(),
        "--bits".into(),
        "--threads".into(),
        "1".into(),
    ])
    .expect("batch corner report");
    let prefix = format!("delay bits {corner}: ");
    out.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .expect("--bits corner line")
        .to_string()
}

#[test]
fn corner_requests_select_isolated_bit_identical_replicas() {
    let bench = make_bench("corner.bench", 44);
    let socket = tmp("corner.sock");
    let daemon = start_daemon(&socket, None);
    let mut client = connect(&socket);
    ok(&client
        .load("d", &bench.to_string_lossy(), None)
        .expect("load"));

    // Base analyzer answers corner-less requests, bit-identical to batch.
    let base = delay_bits(ok(&client.analyze("d", Some("onestep")).expect("analyze")));
    assert_eq!(base, batch_bits(&bench, "onestep"));

    // A corner request lazily materializes that corner's replica and
    // reproduces the batch scenario runner's bits for the same corner.
    client.set_corner(Some("ss"));
    let resp = client.analyze("d", Some("onestep")).expect("analyze ss");
    let ss = delay_bits(ok(&resp));
    assert_eq!(
        resp.str_field("corner"),
        Some("ss"),
        "response is stamped with the corner it answered for: {resp}"
    );
    assert_ne!(ss, base, "a derated corner cannot share the base bits");
    assert_eq!(ss, batch_corner_bits(&bench, "onestep", "ss"));

    // A query addresses the same replica: the analyze's endpoint answers
    // for ss, stamped as such, not for the base corner.
    let endpoint = resp.str_field("endpoint").expect("endpoint").to_string();
    let ss_query = client
        .query("d", &endpoint, Some("onestep"), None)
        .expect("query ss");
    assert_eq!(
        ok(&ss_query).str_field("corner"),
        Some("ss"),
        "query is stamped with the corner it answered for: {ss_query}"
    );
    client.set_corner(None);
    let base_query = client
        .query("d", &endpoint, Some("onestep"), None)
        .expect("query base");
    assert_ne!(
        ok(&ss_query).str_field("arrival_bits"),
        ok(&base_query).str_field("arrival_bits"),
        "an ss query cannot share the base arrival bits"
    );
    client.set_corner(Some("ss"));

    // Corner edits land on that replica only: the base answer is
    // untouched afterwards.
    let net = busy_net(&bench);
    ok(&client
        .eco("d", &[&format!("reroute {net} 1.6")])
        .expect("eco ss"));
    client.set_corner(None);
    let base_after = delay_bits(ok(&client.analyze("d", Some("onestep")).expect("analyze")));
    assert_eq!(base_after, base, "a corner ECO must not leak into base");

    // An unknown corner gets the typed error, not a dead session.
    client.set_corner(Some("sf"));
    let resp = client.analyze("d", Some("onestep")).expect("transport");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        resp.str_field("error")
            .expect("error")
            .contains("unknown corner `sf`"),
        "typed unknown-corner message: {resp}"
    );

    // `stats` exposes the per-session corner matrix: base plus the
    // materialized ss replica, with its committed edit.
    client.set_corner(None);
    let stats = client.stats().expect("stats");
    let sessions = ok(&stats)
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("sessions");
    let corners = sessions[0]
        .get("corners")
        .and_then(Json::as_arr)
        .expect("corner matrix");
    let row = |name: &str| {
        corners
            .iter()
            .find(|r| r.str_field("corner") == Some(name))
            .unwrap_or_else(|| panic!("corner row {name}: {stats}"))
    };
    assert_eq!(row("base").get("edits").and_then(Json::as_u64), Some(0));
    assert_eq!(row("ss").get("edits").and_then(Json::as_u64), Some(1));

    ok(&client.shutdown().expect("shutdown"));
    daemon.join().expect("daemon");
}
