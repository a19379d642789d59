//! The resident timing-service daemon.
//!
//! `xtalk serve` binds a Unix-domain socket and keeps everything that is
//! expensive to build **resident across requests**: parsed netlists,
//! extracted parasitics, CSR timing graphs, per-mode arrival caches and
//! per-stage solve memos — the state a batch CLI run rebuilds from
//! scratch every invocation. Clients speak the length-prefixed JSON
//! protocol of [`crate::serve::proto`]; concurrent connections each get a
//! handler thread, and per-design sessions serialize on their own mutex,
//! so two clients can analyze two designs in parallel but never race one
//! design's incremental state.
//!
//! # Sessions
//!
//! A `load` request parses a design and installs an [`IncrementalSta`]
//! session under a client-chosen name. Subsequent `analyze` / `eco` /
//! `what-if` / `query` requests address the session by that name and hit
//! its warm caches: a repeated analysis replays cached passes (zero stage
//! evaluations), an ECO re-times only its dirty cone, and a what-if runs
//! against a [`IncrementalSta::checkpoint`] and rolls back, leaving the
//! session's timing state exactly as before.
//!
//! # The persistent solve store
//!
//! With a store configured, the daemon keeps one keyed stage-solve cache
//! (`crate::exec::cache`), replays the store into it once at
//! [`Daemon::bind`] with corrupt entries skipped, and attaches it to every
//! session and corner replica. Cost-admitted solves are journaled by that
//! cache and appended — checksummed and deduplicated — to the on-disk log
//! ([`crate::serve::store`]) after the request that produced them
//! (write-behind: the client's response is not delayed by disk I/O for
//! entries it already has). So a session answers what another session
//! already solved, and a daemon restarted on a populated store answers
//! its first analysis with strictly fewer Newton integrations than a cold
//! batch run — and, because the cache is exact-match on bit-canonical
//! solver inputs (cell, stage, slot, flags, corner and input bits), with
//! bit-identical arrivals.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use xtalk_tech::{Corner, Library, Process};

use crate::diag::Severity;
use crate::engine::StaError;
use crate::exec::cache::SolveCache;
use crate::exec::ExecConfig;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{ServeFault, ServeFaultPlan};
use crate::incremental::{Edit, IncrementalSta};
use crate::mode::AnalysisMode;
use crate::report::{ModeReport, SolveCounters};
use crate::serve::json::Json;
use crate::serve::proto::{
    self, busy_response, deadline_response, error_response, exit_code_for, f64_bits_hex,
    mode_token, quarantine_response, severity_token,
};
use crate::serve::store::{SolveStore, SyncPolicy};

/// The technology singletons backing every session. Sessions are
/// `'static` (they outlive any one request), so the library and process
/// they borrow must be too; both are immutable after construction.
fn tech() -> &'static (Process, Library) {
    static TECH: OnceLock<(Process, Library)> = OnceLock::new();
    TECH.get_or_init(|| {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        (process, library)
    })
}

/// The per-corner process singletons. Sessions borrow their process for
/// `'static`, so each named corner's derived [`Process`] is built once
/// and leaked — bounded by the corner vocabulary (ss/tt/ff), not by
/// request volume. Returns `None` for an unknown corner name.
fn corner_process(name: &str) -> Option<&'static Process> {
    static CORNERS: OnceLock<Mutex<HashMap<String, &'static Process>>> = OnceLock::new();
    let corner = Corner::by_name(name)?;
    let registry = CORNERS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut registry = lock(registry);
    Some(
        registry
            .entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(tech().0.corner(&corner)))),
    )
}

/// Daemon configuration. Built with [`ServeConfig::new`] plus `with_*`
/// setters; the defaults run an unbounded-deadline daemon with interval
/// fsync and generous admission limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix-domain socket to bind. A stale file at this path
    /// (from a crashed daemon) is removed before binding.
    socket: PathBuf,
    /// Path of the on-disk solve store; `None` runs memory-only.
    store: Option<PathBuf>,
    /// Execution configuration inherited by every session.
    exec: ExecConfig,
    /// Daemon-wide default request deadline; `None` means unbounded.
    request_timeout: Option<Duration>,
    /// Solve-store append durability policy.
    store_sync: SyncPolicy,
    /// Solve-store size (bytes) past which appends trigger compaction.
    compact_threshold: Option<u64>,
    /// Concurrent connections admitted before new ones get `busy`.
    max_connections: usize,
    /// Concurrent in-flight requests admitted before `busy` (control
    /// commands — `stats`, `shutdown` — are exempt).
    max_inflight: usize,
    /// Deterministic service-layer fault plan (tests only).
    #[cfg(any(test, feature = "fault-injection"))]
    serve_faults: Option<ServeFaultPlan>,
}

impl ServeConfig {
    /// A daemon on `socket` with defaults: no store, default exec config,
    /// no request timeout, interval fsync, no compaction threshold, up to
    /// 64 connections and 8 in-flight requests.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            store: None,
            exec: ExecConfig::default(),
            request_timeout: None,
            store_sync: SyncPolicy::default(),
            compact_threshold: None,
            max_connections: 64,
            max_inflight: 8,
            #[cfg(any(test, feature = "fault-injection"))]
            serve_faults: None,
        }
    }

    /// Sets the on-disk solve store path (`None` runs memory-only).
    #[must_use]
    pub fn with_store(mut self, store: Option<PathBuf>) -> Self {
        self.store = store;
        self
    }

    /// Sets the execution configuration inherited by every session.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the daemon-wide default request deadline. Requests may
    /// override it per-call with `deadline_ms`; `None` means unbounded.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Sets the solve-store append durability policy.
    #[must_use]
    pub fn with_store_sync(mut self, sync: SyncPolicy) -> Self {
        self.store_sync = sync;
        self
    }

    /// Sets (or clears) the store size threshold, in bytes, past which an
    /// append triggers an automatic compaction.
    #[must_use]
    pub fn with_compact_threshold(mut self, bytes: Option<u64>) -> Self {
        self.compact_threshold = bytes;
        self
    }

    /// Caps concurrent connections; further connects get a typed `busy`
    /// response and are closed. Clamped to at least 1.
    #[must_use]
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Caps concurrent in-flight requests across all connections; excess
    /// requests get a typed `busy` response (the connection stays open).
    /// Control commands — `stats`, `shutdown` — bypass the budget so an
    /// overloaded daemon can still be inspected and stopped. Clamped to
    /// at least 1.
    #[must_use]
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Installs a deterministic service-layer fault plan (tests only).
    #[cfg(any(test, feature = "fault-injection"))]
    #[must_use]
    pub fn with_serve_faults(mut self, plan: Option<ServeFaultPlan>) -> Self {
        self.serve_faults = plan;
        self
    }
}

/// What a finished daemon run served.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Requests answered over the daemon's lifetime.
    pub requests: u64,
    /// Sessions resident at shutdown.
    pub sessions: usize,
}

/// One resident design session: the base-process analyzer plus lazily
/// materialized per-corner replicas. A replica is built from the netlist
/// file on the first request naming its corner and thereafter keeps its
/// own incremental state (edits applied through a `corner` field land on
/// that replica only).
struct Session {
    sta: IncrementalSta<'static>,
    corners: BTreeMap<String, IncrementalSta<'static>>,
    netlist_path: String,
    spef_path: Option<String>,
}

/// State shared between the accept loop and every connection thread.
struct Shared {
    exec: ExecConfig,
    store: Option<SolveStore>,
    /// The one keyed solve cache every session and corner replica shares:
    /// present with a store and solve reuse on.
    cache: Option<Arc<SolveCache>>,
    /// `(replayed, corrupt_skipped)` of the store replay at bind.
    replay: (u64, u64),
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// Daemon-wide default request deadline (`deadline_ms` overrides).
    request_timeout: Option<Duration>,
    /// In-flight request budget: admitted count and its cap.
    inflight: AtomicUsize,
    max_inflight: usize,
    /// Designs whose sessions were dropped after a request panic.
    quarantined: Mutex<Vec<String>>,
    /// Degradation counters, surfaced through `stats`.
    deadline_hits: AtomicU64,
    busy_rejections: AtomicU64,
    store_write_failures: AtomicU64,
    /// Held across a journal drain and its append, so whoever takes it
    /// next finds the append done.
    flushing: Mutex<()>,
    /// Solver work of every completed served analysis (analyze, what-if,
    /// query), surfaced as the `stats` response's table counters.
    work: Mutex<SolveCounters>,
    /// Live connections (reader clones), for the graceful shutdown drain:
    /// `shutdown(Read)` unblocks handler threads parked in `read_frame`
    /// while their in-flight responses still write.
    conns: Mutex<HashMap<u64, UnixStream>>,
    next_conn: AtomicU64,
    #[cfg(any(test, feature = "fault-injection"))]
    serve_faults: Option<ServeFaultPlan>,
}

impl Shared {
    /// Whether the configured fault plan injects `fault` at this request.
    #[cfg(any(test, feature = "fault-injection"))]
    fn injects(&self, fault: ServeFault, request_index: u64) -> bool {
        self.serve_faults
            .is_some_and(|p| p.fault() == fault && p.injects_at(request_index))
    }
}

/// A bound, not-yet-running daemon. [`Daemon::bind`] then [`Daemon::run`];
/// the socket file is removed again on clean shutdown.
pub struct Daemon {
    listener: UnixListener,
    socket: PathBuf,
    max_connections: usize,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the service socket and opens the solve store (if configured),
    /// replaying it into the daemon's cache. Clients may connect during
    /// the replay; their requests wait for [`Daemon::run`].
    ///
    /// # Errors
    ///
    /// I/O errors from socket binding or store opening (including a store
    /// file with bad magic — refusing to serve off garbage).
    pub fn bind(config: ServeConfig) -> std::io::Result<Daemon> {
        // A leftover socket file from a crashed daemon would fail the bind
        // with AddrInUse; connecting clients would have failed against it
        // anyway, so replacing it is safe.
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        if let Some(parent) = config.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let store = match &config.store {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Some(
                    SolveStore::open(path)?
                        .with_sync_policy(config.store_sync)
                        .with_compact_threshold(config.compact_threshold),
                )
            }
            None => None,
        };
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        let mut replay = (0, 0);
        let cache = match &store {
            Some(store) if config.exec.cache => {
                let cache = SolveCache::new();
                // A store that cannot be read back costs warmth, not service.
                replay = store.replay(&cache).unwrap_or_default();
                Some(Arc::new(cache))
            }
            _ => None,
        };
        Ok(Daemon {
            listener,
            socket: config.socket,
            max_connections: config.max_connections,
            shared: Arc::new(Shared {
                exec: config.exec,
                store,
                cache,
                replay,
                sessions: Mutex::new(HashMap::new()),
                requests: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                request_timeout: config.request_timeout,
                inflight: AtomicUsize::new(0),
                max_inflight: config.max_inflight,
                quarantined: Mutex::new(Vec::new()),
                deadline_hits: AtomicU64::new(0),
                busy_rejections: AtomicU64::new(0),
                store_write_failures: AtomicU64::new(0),
                flushing: Mutex::new(()),
                work: Mutex::new(SolveCounters::default()),
                conns: Mutex::new(HashMap::new()),
                next_conn: AtomicU64::new(0),
                #[cfg(any(test, feature = "fault-injection"))]
                serve_faults: config.serve_faults,
            }),
        })
    }

    /// Serves requests until a `shutdown` request arrives, then drains
    /// in-flight requests (handlers finish their current response; blocked
    /// readers are unblocked via `shutdown(Read)`), joins the connection
    /// threads and removes the socket file.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O errors only; per-connection and per-request
    /// failures are answered as protocol error responses instead.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    handlers.retain(|h| !h.is_finished());
                    if handlers.len() >= self.max_connections {
                        // Connection-level admission control: answer with
                        // a typed, retryable `busy` and close; the daemon
                        // never queues unbounded peers.
                        self.shared.busy_rejections.fetch_add(1, Ordering::AcqRel);
                        let resp =
                            busy_response(handlers.len() as u64, self.max_connections as u64);
                        let _ = proto::write_frame(&mut stream, &resp);
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || {
                        serve_connection(stream, &shared)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    return Err(e);
                }
            }
        }
        // Graceful drain: unblock every handler parked in `read_frame`
        // (they see EOF and exit); a handler mid-request keeps its write
        // half and still delivers its response before joining.
        for conn in lock(&self.shared.conns).values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        for h in handlers {
            let _ = h.join();
        }
        // Flush any journal entries the last requests produced.
        flush_journal(&self.shared, u64::MAX);
        let _ = std::fs::remove_file(&self.socket);
        Ok(ServeSummary {
            requests: self.shared.requests.load(Ordering::Acquire),
            sessions: lock_sessions(&self.shared).len(),
        })
    }
}

/// Poison-tolerant lock: the daemon must keep serving after a panicked
/// (now quarantined) request.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Adds a completed analysis's solver work to the daemon's lifetime totals.
fn absorb_work(shared: &Shared, report: &ModeReport) {
    lock(&shared.work).absorb(SolveCounters::total(&report.pass_stats));
}

/// Poison-tolerant session-map lock.
fn lock_sessions(
    shared: &Shared,
) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Mutex<Session>>>> {
    lock(&shared.sessions)
}

/// One connection: read frames, answer them, until EOF or shutdown.
fn serve_connection(stream: UnixStream, shared: &Shared) {
    let reader_clone = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    // Register a second clone so the shutdown drain can unblock our
    // blocking `read_frame` with `shutdown(Read)`.
    let conn_id = shared.next_conn.fetch_add(1, Ordering::AcqRel);
    if let Ok(drain_handle) = stream.try_clone() {
        lock(&shared.conns).insert(conn_id, drain_handle);
    }
    serve_frames(reader_clone, stream, shared);
    lock(&shared.conns).remove(&conn_id);
}

/// The framed request/response loop of one registered connection.
fn serve_frames(mut reader: UnixStream, mut writer: UnixStream, shared: &Shared) {
    loop {
        let request = match proto::read_frame(&mut reader) {
            Ok(Some(doc)) => doc,
            Ok(None) => break, // client hung up cleanly
            Err(e) => {
                // Framing is unrecoverable mid-stream: answer and drop.
                let resp = error_response(&format!("bad frame: {e}"), None);
                let _ = proto::write_frame(&mut writer, &resp);
                break;
            }
        };
        let request_index = shared.requests.fetch_add(1, Ordering::AcqRel);
        let cmd = request.str_field("cmd").unwrap_or("").to_string();

        // Request-level admission control. Control commands bypass the
        // budget: an overloaded daemon must still answer `stats` and obey
        // `shutdown`.
        let metered = !matches!(cmd.as_str(), "stats" | "shutdown");
        let admitted = !metered || acquire_inflight(shared);
        let response = if admitted {
            #[cfg(any(test, feature = "fault-injection"))]
            if shared.injects(ServeFault::StalledClient, request_index) {
                // Stall while *holding* the in-flight slot, as a
                // drip-feeding peer would; admission control is what
                // protects the other connections.
                std::thread::sleep(Duration::from_millis(1500));
            }
            let r = handle_request(shared, &request, request_index);
            if metered {
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
            }
            r
        } else {
            shared.busy_rejections.fetch_add(1, Ordering::AcqRel);
            busy_response(
                shared.inflight.load(Ordering::Acquire) as u64,
                shared.max_inflight as u64,
            )
        };

        let stop = cmd == "shutdown" && response.get("ok").and_then(Json::as_bool) == Some(true);

        #[cfg(any(test, feature = "fault-injection"))]
        if shared.injects(ServeFault::TornFrame, request_index) {
            // Write the length word and half the payload, then hang up:
            // the peer sees a torn frame and must recover by reconnecting.
            let payload = response.write();
            let half = payload.len() / 2;
            let _ = writer.write_all(&(payload.len() as u32).to_le_bytes());
            let _ = writer.write_all(&payload.as_bytes()[..half]);
            let _ = writer.flush();
            break;
        }

        if proto::write_frame(&mut writer, &response).is_err() {
            break;
        }
        let _ = writer.flush();
        // Persist what this request solved before accepting the next one.
        flush_journal(shared, request_index);
        if stop {
            shared.shutdown.store(true, Ordering::Release);
            break;
        }
    }
}

/// Tries to take one in-flight slot; `false` when the budget is spent.
fn acquire_inflight(shared: &Shared) -> bool {
    let mut cur = shared.inflight.load(Ordering::Acquire);
    loop {
        if cur >= shared.max_inflight {
            return false;
        }
        match shared.inflight.compare_exchange_weak(
            cur,
            cur + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// Write-behind: drains the shared cache's solve journal into the store,
/// under one lock from drain to append.
fn flush_journal(shared: &Shared, _request_index: u64) {
    let (Some(store), Some(cache)) = (&shared.store, &shared.cache) else {
        return;
    };
    let _flushing = lock(&shared.flushing);
    let entries = cache.drain_journal();
    if entries.is_empty() {
        return;
    }
    #[cfg(any(test, feature = "fault-injection"))]
    if shared.injects(ServeFault::StoreWriteFail, _request_index) {
        // Simulated full/failing disk: the entries are lost, the failure
        // is counted, and the daemon keeps serving.
        shared.store_write_failures.fetch_add(1, Ordering::AcqRel);
        return;
    }
    // A full disk costs persistence, not service: the daemon keeps
    // answering from memory.
    if store.append(&entries).is_err() {
        shared.store_write_failures.fetch_add(1, Ordering::AcqRel);
    }
}

/// Dispatches one request to its command handler. Never panics a
/// connection thread: every failure becomes an `ok: false` response — a
/// panic inside a session command quarantines that design's session
/// (dropped from the map; the next `load` rebuilds it from the netlist,
/// over the daemon's shared cache) and answers with a typed `quarantined`
/// failure.
fn handle_request(shared: &Shared, request: &Json, request_index: u64) -> Json {
    let Some(cmd) = request.str_field("cmd") else {
        return error_response("request has no `cmd` field", None);
    };
    match cmd {
        "load" => cmd_load(shared, request),
        "analyze" | "eco" | "what-if" | "query" => {
            let body = std::panic::catch_unwind(AssertUnwindSafe(|| {
                #[cfg(any(test, feature = "fault-injection"))]
                if shared.injects(ServeFault::MidRequestPanic, request_index) {
                    panic!("fault injection: mid-request panic");
                }
                #[cfg(not(any(test, feature = "fault-injection")))]
                let _ = request_index;
                match cmd {
                    "analyze" => cmd_analyze(shared, request),
                    "eco" => cmd_eco(shared, request),
                    "what-if" => cmd_what_if(shared, request),
                    _ => cmd_query(shared, request),
                }
            }));
            match body {
                Ok(response) => response,
                Err(_) => {
                    let design = request.str_field("design").unwrap_or("?");
                    lock_sessions(shared).remove(design);
                    lock(&shared.quarantined).push(design.to_string());
                    quarantine_response(design)
                }
            }
        }
        "compact" => cmd_compact(shared),
        "stats" => cmd_stats(shared, request_index),
        "shutdown" => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("bye", Json::Bool(true)),
            ("exit_code", Json::num(0.0)),
        ]),
        other => error_response(&format!("unknown command `{other}`"), None),
    }
}

/// On-demand solve-store compaction (the `compact` protocol command).
fn cmd_compact(shared: &Shared) -> Json {
    let Some(store) = &shared.store else {
        return error_response("daemon runs without a solve store", None);
    };
    match store.compact() {
        Ok(cs) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("live", Json::num(cs.live as f64)),
            ("dropped", Json::num(cs.dropped as f64)),
            ("bytes_before", Json::num(cs.bytes_before as f64)),
            ("bytes_after", Json::num(cs.bytes_after as f64)),
            ("exit_code", Json::num(0.0)),
        ]),
        Err(e) => error_response(&format!("compaction failed: {e}"), Some(Severity::Error)),
    }
}

/// Builds a session analyzer at `process` over a design loaded with the
/// batch CLI's loader (placed and routed at the base process), attached to
/// the daemon's shared cache.
fn session_sta(
    shared: &Shared,
    netlist_path: &str,
    spef: Option<&str>,
    process: &'static Process,
) -> Result<IncrementalSta<'static>, String> {
    let (base, library) = tech();
    let (netlist, parasitics) =
        crate::design::load_design(netlist_path, spef, base, library).map_err(|e| e.to_string())?;
    let mut sta =
        IncrementalSta::with_config(netlist, library, process, parasitics, shared.exec.clone())
            .map_err(|e| e.to_string())?;
    if let Some(cache) = &shared.cache {
        sta.attach_cache(Arc::clone(cache));
    }
    Ok(sta)
}

fn cmd_load(shared: &Shared, request: &Json) -> Json {
    let Some(design) = request.str_field("design") else {
        return error_response("load needs a `design` session name", None);
    };
    let Some(netlist_path) = request.str_field("netlist") else {
        return error_response("load needs a `netlist` file path", None);
    };
    let spef = request.str_field("spef");
    let sta = match session_sta(shared, netlist_path, spef, &tech().0) {
        Ok(sta) => sta,
        Err(msg) => return error_response(&msg, None),
    };
    let gates = sta.netlist().gate_count();
    let nets = sta.netlist().net_count();
    let couplings = sta.parasitics().coupling_count() / 2;
    let session = Session {
        sta,
        corners: BTreeMap::new(),
        netlist_path: netlist_path.to_string(),
        spef_path: spef.map(str::to_string),
    };
    let replaced = lock_sessions(shared)
        .insert(design.to_string(), Arc::new(Mutex::new(session)))
        .is_some();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("design", Json::str(design)),
        ("gates", Json::num(gates as f64)),
        ("nets", Json::num(nets as f64)),
        ("coupling_caps", Json::num(couplings as f64)),
        ("store_replayed", Json::num(shared.replay.0 as f64)),
        ("store_corrupt_skipped", Json::num(shared.replay.1 as f64)),
        ("replaced", Json::Bool(replaced)),
        ("exit_code", Json::num(0.0)),
    ])
}

/// Looks up the session named in `request`, or an error response.
fn session_for(shared: &Shared, request: &Json) -> Result<Arc<Mutex<Session>>, Json> {
    let Some(design) = request.str_field("design") else {
        return Err(error_response(
            "request needs a `design` session name",
            None,
        ));
    };
    lock_sessions(shared)
        .get(design)
        .cloned()
        .ok_or_else(|| error_response(&format!("no session `{design}` (load it first)"), None))
}

/// The request's deadline budget in milliseconds: the per-request
/// `deadline_ms` field wins; otherwise the daemon-wide default; `None`
/// is unbounded.
fn deadline_ms_for(shared: &Shared, request: &Json) -> Option<u64> {
    request
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .or_else(|| shared.request_timeout.map(|d| d.as_millis() as u64))
}

/// Arms `sta`'s executor with the absolute deadline `ms` milliseconds
/// from now (saturating; an unrepresentable instant means unbounded).
fn arm_deadline(sta: &IncrementalSta<'_>, ms: u64) {
    let at = Instant::now().checked_add(Duration::from_millis(ms));
    sta.executor().set_deadline(at);
}

/// The requested analysis mode (default: iterative without Esperance).
fn mode_for(request: &Json) -> Result<AnalysisMode, Json> {
    match request.str_field("mode") {
        None => Ok(AnalysisMode::Iterative { esperance: false }),
        Some(token) => proto::parse_mode(token)
            .ok_or_else(|| error_response(&format!("unknown mode `{token}`"), None)),
    }
}

/// Resolves the request's optional `corner` field to the session's
/// analyzer for that corner, materializing the replica on first use.
/// Without a `corner` field (or with `corner: "base"`) the base
/// analyzer answers — the pre-scenario behaviour, bit for bit. Replicas
/// share the daemon's cache; corner-keyed solve keys guarantee only
/// entries of the matching corner can ever hit.
fn corner_sta<'s>(
    shared: &Shared,
    guard: &'s mut Session,
    request: &Json,
) -> Result<(&'s mut IncrementalSta<'static>, Option<String>), Json> {
    let Some(token) = request.str_field("corner") else {
        return Ok((&mut guard.sta, None));
    };
    if token == "base" {
        return Ok((&mut guard.sta, Some("base".to_string())));
    }
    if !guard.corners.contains_key(token) {
        let Some(process) = corner_process(token) else {
            return Err(error_response(
                &format!("unknown corner `{token}` (expected one of ss, tt, ff, base)"),
                None,
            ));
        };
        let sta = session_sta(
            shared,
            &guard.netlist_path,
            guard.spef_path.as_deref(),
            process,
        )
        .map_err(|msg| error_response(&msg, None))?;
        guard.corners.insert(token.to_string(), sta);
    }
    let sta = guard
        .corners
        .get_mut(token)
        .expect("corner replica just ensured");
    Ok((sta, Some(token.to_string())))
}

/// The shared success payload of an analysis: delay (decimal and
/// bit-exact), work counters, and the diagnostics/severity/exit-code
/// block mirroring the batch CLI.
fn report_fields(report: &ModeReport) -> Vec<(&'static str, Json)> {
    let severity = report.worst_severity();
    let mut fields = vec![
        ("mode", Json::str(mode_token(report.mode))),
        ("delay_ns", Json::num(report.longest_delay * 1e9)),
        ("delay_bits", Json::str(f64_bits_hex(report.longest_delay))),
        ("passes", Json::num(report.passes as f64)),
        ("stage_solves", Json::num(report.stage_solves as f64)),
        ("newton_solves", Json::num(report.newton_solves as f64)),
        ("newton_iters", Json::num(report.newton_iters as f64)),
        ("cache_hits", Json::num(report.cache_hits as f64)),
        ("warm_hits", Json::num(report.warm_hits as f64)),
        ("runtime_s", Json::num(report.runtime.as_secs_f64())),
    ];
    if !report.diagnostics.is_empty() {
        fields.push((
            "diagnostics",
            Json::Arr(
                report
                    .diagnostics
                    .iter()
                    .map(|d| Json::str(d.to_string()))
                    .collect(),
            ),
        ));
    }
    if let Some(s) = severity {
        fields.push(("severity", Json::str(severity_token(s))));
    }
    fields.push(("exit_code", Json::num(exit_code_for(severity) as f64)));
    fields
}

/// Analyzes `mode` on `sta` within the request's deadline, answering a
/// cancellation with the typed `deadline` response and any other failure
/// with an error response.
fn analyze_within(
    shared: &Shared,
    sta: &mut IncrementalSta<'static>,
    mode: AnalysisMode,
    request: &Json,
) -> Result<ModeReport, Json> {
    let deadline_ms = deadline_ms_for(shared, request);
    if let Some(ms) = deadline_ms {
        arm_deadline(sta, ms);
    }
    let result = sta.analyze(mode);
    sta.executor().set_deadline(None);
    if let Ok(report) = &result {
        absorb_work(shared, report);
    }
    result.map_err(|e| match e {
        StaError::DeadlineExceeded => {
            // The cancelled pass never committed: the mode cache was
            // poisoned on error, so the session replays cleanly next time.
            shared.deadline_hits.fetch_add(1, Ordering::AcqRel);
            deadline_response(deadline_ms.unwrap_or(0))
        }
        e => error_response(&e.to_string(), Some(Severity::Error)),
    })
}

fn cmd_analyze(shared: &Shared, request: &Json) -> Json {
    let session = match session_for(shared, request) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let mode = match mode_for(request) {
        Ok(m) => m,
        Err(resp) => return resp,
    };
    let mut guard = session
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (sta, corner) = match corner_sta(shared, &mut guard, request) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let report = match analyze_within(shared, sta, mode, request) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let stats = sta.last_stats();
    let endpoint = report
        .endpoint_net
        .map(|net| sta.netlist().net(net).name.clone());
    drop(guard);
    let mut fields = vec![("ok", Json::Bool(true))];
    if let Some(c) = &corner {
        fields.push(("corner", Json::str(c.clone())));
    }
    fields.extend(report_fields(&report));
    fields.push(("full", Json::Bool(stats.full)));
    fields.push(("stages_evaluated", Json::num(stats.stages_evaluated as f64)));
    if let Some(name) = endpoint {
        fields.push(("endpoint", Json::str(name)));
    }
    Json::obj(fields)
}

/// Parses the request's `edits` array, the lines of an edit script, by the
/// script grammar `xtalk eco` uses ([`Edit::parse_script`]), so a bad edit
/// reports its line in the script.
fn edits_for(request: &Json) -> Result<Vec<Edit>, Json> {
    let Some(lines) = request.get("edits").and_then(Json::as_arr) else {
        return Err(error_response("request needs an `edits` array", None));
    };
    let Some(lines) = lines.iter().map(Json::as_str).collect::<Option<Vec<_>>>() else {
        return Err(error_response("`edits` must hold strings", None));
    };
    Edit::parse_script(&lines.join("\n")).map_err(|e| error_response(&e.to_string(), None))
}

fn cmd_eco(shared: &Shared, request: &Json) -> Json {
    let session = match session_for(shared, request) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let edits = match edits_for(request) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    let mut guard = session
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (sta, corner) = match corner_sta(shared, &mut guard, request) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    // With a deadline armed, the whole ECO becomes transactional: a
    // checkpoint up front, expiry checks between edits, and a rollback to
    // the last committed state when the budget runs out.
    let deadline_ms = deadline_ms_for(shared, request);
    let checkpoint = deadline_ms.map(|ms| {
        arm_deadline(sta, ms);
        sta.checkpoint()
    });
    let mut applied = 0usize;
    let mut new_gates = 0usize;
    for edit in &edits {
        if sta.executor().deadline_expired() {
            sta.executor().set_deadline(None);
            if let Some(cp) = checkpoint {
                sta.restore(cp);
            }
            shared.deadline_hits.fetch_add(1, Ordering::AcqRel);
            return deadline_response(deadline_ms.unwrap_or(0));
        }
        match sta.apply(edit) {
            Ok(outcome) => {
                applied += 1;
                new_gates += usize::from(outcome.new_gate.is_some());
            }
            Err(e) => {
                sta.executor().set_deadline(None);
                // Mirror the batch CLI's script semantics: stop at the
                // first failing edit, earlier ones stay applied.
                return error_response(
                    &format!("edit {} failed after {applied} applied: {e}", applied + 1),
                    None,
                );
            }
        }
    }
    sta.executor().set_deadline(None);
    let total = sta.edits_applied();
    drop(guard);
    let mut fields = vec![("ok", Json::Bool(true))];
    if let Some(c) = corner {
        fields.push(("corner", Json::str(c)));
    }
    fields.extend([
        ("applied", Json::num(applied as f64)),
        ("new_gates", Json::num(new_gates as f64)),
        ("edits_total", Json::num(total as f64)),
        ("exit_code", Json::num(0.0)),
    ]);
    Json::obj(fields)
}

fn cmd_what_if(shared: &Shared, request: &Json) -> Json {
    let session = match session_for(shared, request) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let edits = match edits_for(request) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    let mode = match mode_for(request) {
        Ok(m) => m,
        Err(resp) => return resp,
    };
    let mut guard = session
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let deadline_ms = deadline_ms_for(shared, request);
    let (sta, corner) = match corner_sta(shared, &mut guard, request) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    if let Some(ms) = deadline_ms {
        arm_deadline(sta, ms);
    }
    // The rollback restores the pre-edit graph and arrival caches, so the
    // session's next analysis replays them instead of re-timing.
    let checkpoint = sta.checkpoint();
    for (i, edit) in edits.iter().enumerate() {
        if let Err(e) = sta.apply(edit) {
            sta.executor().set_deadline(None);
            sta.restore(checkpoint);
            return error_response(&format!("what-if edit {} rejected: {e}", i + 1), None);
        }
    }
    let result = sta.analyze(mode);
    sta.executor().set_deadline(None);
    sta.restore(checkpoint);
    drop(guard);
    if let Ok(report) = &result {
        absorb_work(shared, report);
    }
    let report = match result {
        Ok(r) => r,
        Err(StaError::DeadlineExceeded) => {
            shared.deadline_hits.fetch_add(1, Ordering::AcqRel);
            return deadline_response(deadline_ms.unwrap_or(0));
        }
        Err(e) => return error_response(&e.to_string(), Some(Severity::Error)),
    };
    let mut fields = vec![("ok", Json::Bool(true))];
    if let Some(c) = corner {
        fields.push(("corner", Json::str(c)));
    }
    fields.extend(report_fields(&report));
    fields.push(("edits", Json::num(edits.len() as f64)));
    fields.push(("rolled_back", Json::Bool(true)));
    Json::obj(fields)
}

fn cmd_query(shared: &Shared, request: &Json) -> Json {
    let session = match session_for(shared, request) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let Some(net_name) = request.str_field("net") else {
        return error_response("query needs a `net` endpoint name", None);
    };
    let mode = match mode_for(request) {
        Ok(m) => m,
        Err(resp) => return resp,
    };
    let period = request.get("period_ns").and_then(Json::as_f64);
    let mut guard = session
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (sta, corner) = match corner_sta(shared, &mut guard, request) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    // A warm session replays this from its arrival caches (zero stage
    // evaluations) — also right after a what-if, whose rollback restores
    // them — so per-endpoint queries are cheap after the first.
    let report = match analyze_within(shared, sta, mode, request) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let endpoint = report
        .endpoints
        .iter()
        .find(|e| sta.netlist().net(e.net).name == net_name)
        .copied();
    drop(guard);
    let Some(endpoint) = endpoint else {
        return error_response(
            &format!("`{net_name}` is not an endpoint of this design"),
            None,
        );
    };
    let severity = report.worst_severity();
    let latest = endpoint.latest();
    let mut fields = vec![("ok", Json::Bool(true))];
    if let Some(c) = corner {
        fields.push(("corner", Json::str(c)));
    }
    fields.extend([
        ("net", Json::str(net_name)),
        ("mode", Json::str(mode_token(mode))),
        ("arrival_ns", Json::num(latest * 1e9)),
        ("arrival_bits", Json::str(f64_bits_hex(latest))),
    ]);
    if let Some(rise) = endpoint.rise {
        fields.push(("rise_ns", Json::num(rise * 1e9)));
    }
    if let Some(fall) = endpoint.fall {
        fields.push(("fall_ns", Json::num(fall * 1e9)));
    }
    if let Some(period_ns) = period {
        let slack_ns = period_ns - latest * 1e9;
        fields.push(("slack_ns", Json::num(slack_ns)));
        fields.push(("violated", Json::Bool(slack_ns < 0.0)));
    }
    fields.push(("diagnostics_n", Json::num(report.diagnostics.len() as f64)));
    if let Some(s) = severity {
        fields.push(("severity", Json::str(severity_token(s))));
    }
    fields.push(("exit_code", Json::num(exit_code_for(severity) as f64)));
    Json::obj(fields)
}

fn cmd_stats(shared: &Shared, request_index: u64) -> Json {
    // Another connection may have answered and not yet appended: wait for
    // an append in progress and flush what is pending, so the store
    // counters below count every solve already answered.
    flush_journal(shared, request_index);
    let sessions: Vec<(String, Arc<Mutex<Session>>)> = lock_sessions(shared)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    // Every session row reports the daemon's one shared cache.
    let cache = shared
        .cache
        .as_deref()
        .map(SolveCache::stats)
        .unwrap_or_default();
    let mut rows = Vec::with_capacity(sessions.len());
    for (name, session) in sessions {
        let guard = session
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The per-session corner matrix: one row per resident analyzer, the
        // base first, then the materialized corner replicas in name order.
        let corners: Vec<Json> = std::iter::once(("base", &guard.sta))
            .chain(guard.corners.iter().map(|(k, v)| (k.as_str(), v)))
            .map(|(corner, sta)| {
                Json::obj(vec![
                    ("corner", Json::str(corner)),
                    ("edits", Json::num(sta.edits_applied() as f64)),
                ])
            })
            .collect();
        rows.push(Json::obj(vec![
            ("design", Json::str(name)),
            ("netlist", Json::str(guard.netlist_path.clone())),
            ("gates", Json::num(guard.sta.netlist().gate_count() as f64)),
            ("edits", Json::num(guard.sta.edits_applied() as f64)),
            ("cache_hits", Json::num(cache.hits as f64)),
            ("cache_misses", Json::num(cache.misses as f64)),
            ("cache_admitted", Json::num(cache.admitted as f64)),
            ("cache_skipped", Json::num(cache.skipped as f64)),
            ("corners", Json::Arr(corners)),
        ]));
    }
    let quarantined: Vec<Json> = lock(&shared.quarantined)
        .iter()
        .map(|d| Json::str(d.clone()))
        .collect();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        (
            "requests",
            Json::num(shared.requests.load(Ordering::Acquire) as f64),
        ),
        ("sessions", Json::Arr(rows)),
        (
            "inflight",
            Json::num(shared.inflight.load(Ordering::Acquire) as f64),
        ),
        ("max_inflight", Json::num(shared.max_inflight as f64)),
        (
            "deadline_hits",
            Json::num(shared.deadline_hits.load(Ordering::Acquire) as f64),
        ),
        (
            "busy_rejections",
            Json::num(shared.busy_rejections.load(Ordering::Acquire) as f64),
        ),
        (
            "store_write_failures",
            Json::num(shared.store_write_failures.load(Ordering::Acquire) as f64),
        ),
        ("quarantined_n", Json::num(quarantined.len() as f64)),
        ("quarantined", Json::Arr(quarantined)),
        ("macromodel", {
            let m = xtalk_wave::macromodel::stats();
            let work = *lock(&shared.work);
            let mut fields = vec![
                ("models", Json::num(m.models as f64)),
                ("usable", Json::num(m.usable as f64)),
                ("trimmed", Json::num(m.trimmed as f64)),
                ("table_hits", Json::num(work.table_hits as f64)),
                ("table_fallbacks", Json::num(work.table_fallbacks as f64)),
                ("char_solves", Json::num(m.char_solves as f64)),
            ];
            for reason in xtalk_wave::macromodel::FallbackReason::all() {
                fields.push((
                    reason.label(),
                    Json::num(work.table_fb_reasons[reason as usize] as f64),
                ));
            }
            Json::obj(fields)
        }),
    ];
    if let Some(store) = &shared.store {
        let s = store.stats();
        fields.push((
            "store",
            Json::obj(vec![
                ("path", Json::str(store.path().display().to_string())),
                ("replayed", Json::num(s.replayed as f64)),
                ("corrupt_skipped", Json::num(s.corrupt_skipped as f64)),
                ("stale_skipped", Json::num(s.stale_skipped as f64)),
                ("appended", Json::num(s.appended as f64)),
                ("deduped", Json::num(s.deduped as f64)),
                ("compactions", Json::num(s.compactions as f64)),
                ("compact_dropped", Json::num(s.compact_dropped as f64)),
            ]),
        ));
    }
    fields.push(("exit_code", Json::num(0.0)));
    Json::obj(fields)
}
