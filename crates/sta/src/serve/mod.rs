//! The persistent timing service: a resident daemon, its wire protocol,
//! and the cross-process on-disk solve store.
//!
//! The batch CLI pays the full cost of its state on every invocation:
//! parse, place/route/extract, graph build, and — dominating everything —
//! cold transistor-level stage solves. This module keeps that state alive
//! instead:
//!
//! - [`daemon`] — `xtalk serve`: a long-lived process holding loaded
//!   designs and their [`crate::IncrementalSta`] sessions, answering
//!   concurrent clients over a Unix-domain socket;
//! - [`proto`] — the length-prefixed JSON protocol (`load`, `analyze`,
//!   `eco`, `what-if`, `query`, `stats`, `shutdown`) and the
//!   severity/exit-code mapping shared with the batch CLI;
//! - [`store`] — the checksummed append-only solve log: written behind
//!   live requests, replayed (skipping corrupt entries) into the daemon's
//!   one shared solve cache at bind, so even a restarted daemon starts
//!   warm;
//! - [`client`] — a blocking client used by `xtalk client`, the tests and
//!   the benches;
//! - [`json`] — the dependency-free JSON value type under all of it.
//!
//! The service degrades, it does not die: requests carry cooperative
//! deadlines (`deadline_ms`, enforced inside the solver's wavefront
//! scheduler), a panicked request quarantines only that design's session
//! (rebuilt on the next `load`, over the still-warm shared cache),
//! admission control answers overload with typed retryable `busy`
//! responses instead of queueing unboundedly, and the store compacts its
//! log in crash-safe generations ([`SolveStore::compact`]) under a
//! configurable fsync policy ([`SyncPolicy`]).
//!
//! The invariant the whole subsystem leans on: the daemon's solve cache
//! is exact-match on bit-canonical solver inputs, so *nothing here changes
//! numbers*. Resident sessions, replayed stores and concurrent clients
//! reproduce the batch CLI's results bit for bit; the service only changes
//! how much work producing them takes.

pub mod client;
pub mod daemon;
pub mod json;
pub mod proto;
pub mod store;

pub use client::Client;
pub use daemon::{Daemon, ServeConfig, ServeSummary};
pub use json::Json;
pub use store::{CompactStats, SolveStore, StoreStats, SyncPolicy};
