//! A blocking client for the timing-service daemon.
//!
//! Wraps one Unix-domain connection and the request/response framing;
//! callers build requests as [`Json`] documents (or use the typed
//! convenience methods) and get the daemon's response document back.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use xtalk_wave::StableHasher;

use crate::serve::json::Json;
use crate::serve::proto;

/// One connection to a running daemon.
pub struct Client {
    stream: UnixStream,
    /// Stamped into `analyze` / `eco` / `what-if` / `query` requests as
    /// `deadline_ms` when set.
    deadline_ms: Option<u64>,
    /// Stamped into `analyze` / `eco` / `what-if` / `query` requests as
    /// `corner` when set — selects the session's per-corner analyzer.
    corner: Option<String>,
}

/// The retry backoff before attempt `attempt` (0-based): capped binary
/// exponential growth from 1 ms, plus a deterministic jitter derived by
/// stable hash from `(pid, attempt)` — no two processes hammer a
/// starting daemon in lockstep, yet a given process retries identically
/// run to run.
fn backoff(attempt: u32) -> Duration {
    let base = 1u64 << attempt.min(6); // 1, 2, 4, ... capped at 64 ms
    let mut h = StableHasher::new();
    h.write_u64(u64::from(std::process::id()));
    h.write_u64(u64::from(attempt));
    let jitter = h.finish() % (base / 2 + 1); // up to half the base
    Duration::from_millis(base + jitter)
}

impl Client {
    /// Connects to the daemon socket at `path`.
    ///
    /// # Errors
    ///
    /// Standard connection errors (`NotFound` before the daemon has bound,
    /// `ConnectionRefused` against a stale socket file).
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
            deadline_ms: None,
            corner: None,
        })
    }

    /// Connects, retrying with capped exponential backoff (deterministic
    /// per-process jitter, no RNG) until `timeout` elapses — for callers
    /// that just started the daemon and race its bind.
    ///
    /// # Errors
    ///
    /// The last connection error once the timeout is exhausted.
    pub fn connect_retry(path: &Path, timeout: Duration) -> std::io::Result<Client> {
        let deadline = Instant::now() + timeout;
        let mut attempt = 0u32;
        loop {
            match Self::connect(path) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    // Never sleep past the deadline: the next attempt
                    // must still happen inside the budget.
                    let sleep =
                        backoff(attempt).min(deadline.saturating_duration_since(Instant::now()));
                    std::thread::sleep(sleep);
                    attempt += 1;
                }
            }
        }
    }

    /// Sets (or clears) the per-request deadline stamped into subsequent
    /// `analyze` / `eco` / `what-if` / `query` requests. An expired
    /// deadline gets a typed, retryable `kind: "deadline"` response and
    /// rolls the session back to its last committed state.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Sets (or clears) the PVT corner stamped into subsequent
    /// `analyze` / `eco` / `what-if` / `query` requests. The daemon answers
    /// an unknown corner name with a typed `ok: false` response; `None`
    /// (and `"base"`) address the session's base-process analyzer.
    pub fn set_corner(&mut self, corner: Option<&str>) {
        self.corner = corner.map(str::to_string);
    }

    /// Appends the sticky per-request fields (deadline, corner).
    fn stamp(&self, fields: &mut Vec<(&'static str, Json)>) {
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::num(ms as f64)));
        }
        if let Some(corner) = &self.corner {
            fields.push(("corner", Json::str(corner.clone())));
        }
    }

    /// Sends one request document and reads the response document.
    ///
    /// # Errors
    ///
    /// I/O errors, including `UnexpectedEof` when the daemon closed the
    /// connection without answering.
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        proto::write_frame(&mut self.stream, request)?;
        proto::read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection without a response",
            )
        })
    }

    /// `load`: installs `netlist` (with optional SPEF parasitics) as the
    /// session named `design`.
    ///
    /// # Errors
    ///
    /// Transport errors only; a rejected load is an `ok: false` response.
    pub fn load(
        &mut self,
        design: &str,
        netlist: &str,
        spef: Option<&str>,
    ) -> std::io::Result<Json> {
        let mut fields = vec![
            ("cmd", Json::str("load")),
            ("design", Json::str(design)),
            ("netlist", Json::str(netlist)),
        ];
        if let Some(spef) = spef {
            fields.push(("spef", Json::str(spef)));
        }
        self.request(&Json::obj(fields))
    }

    /// `analyze`: runs (or replays) the session's analysis under `mode`
    /// (a protocol mode token; `None` = iterative).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn analyze(&mut self, design: &str, mode: Option<&str>) -> std::io::Result<Json> {
        let mut fields = vec![("cmd", Json::str("analyze")), ("design", Json::str(design))];
        if let Some(mode) = mode {
            fields.push(("mode", Json::str(mode)));
        }
        self.stamp(&mut fields);
        self.request(&Json::obj(fields))
    }

    /// `eco`: applies edit-script lines to the session.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn eco(&mut self, design: &str, edits: &[&str]) -> std::io::Result<Json> {
        let mut fields = vec![
            ("cmd", Json::str("eco")),
            ("design", Json::str(design)),
            (
                "edits",
                Json::Arr(edits.iter().map(|e| Json::str(*e)).collect()),
            ),
        ];
        self.stamp(&mut fields);
        self.request(&Json::obj(fields))
    }

    /// `what-if`: applies edits, analyzes, and rolls the session back.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn what_if(
        &mut self,
        design: &str,
        edits: &[&str],
        mode: Option<&str>,
    ) -> std::io::Result<Json> {
        let mut fields = vec![
            ("cmd", Json::str("what-if")),
            ("design", Json::str(design)),
            (
                "edits",
                Json::Arr(edits.iter().map(|e| Json::str(*e)).collect()),
            ),
        ];
        if let Some(mode) = mode {
            fields.push(("mode", Json::str(mode)));
        }
        self.stamp(&mut fields);
        self.request(&Json::obj(fields))
    }

    /// `query`: one endpoint's arrivals (and slack against `period_ns`).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn query(
        &mut self,
        design: &str,
        net: &str,
        mode: Option<&str>,
        period_ns: Option<f64>,
    ) -> std::io::Result<Json> {
        let mut fields = vec![
            ("cmd", Json::str("query")),
            ("design", Json::str(design)),
            ("net", Json::str(net)),
        ];
        if let Some(mode) = mode {
            fields.push(("mode", Json::str(mode)));
        }
        if let Some(p) = period_ns {
            fields.push(("period_ns", Json::num(p)));
        }
        self.stamp(&mut fields);
        self.request(&Json::obj(fields))
    }

    /// `compact`: rewrites the daemon's solve store into a fresh
    /// generation, dropping corrupt records and torn tails.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn compact(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj(vec![("cmd", Json::str("compact"))]))
    }

    /// `stats`: daemon, session, cache and store counters.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj(vec![("cmd", Json::str("stats"))]))
    }

    /// `shutdown`: asks the daemon to stop after answering.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj(vec![("cmd", Json::str("shutdown"))]))
    }
}
