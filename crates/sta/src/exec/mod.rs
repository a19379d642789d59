//! The persistent execution layer of the STA engine.
//!
//! Two cooperating pieces, both built once per analyzer and reused across
//! every pass, mode and ECO sweep:
//!
//! - a **wavefront scheduler** (`wavefront`): a long-lived worker pool
//!   (`pool::WorkerPool`) driving dependency-counter wavefront
//!   propagation with work-stealing deques, replacing the
//!   spawn-per-level/barrier-per-level scheme;
//! - a **stage-solve cache** (`cache::SolveCache`): a sharded concurrent
//!   memo table over the pure inputs of a transistor-level stage solve,
//!   letting refinement passes and repeated modes skip Newton integration
//!   when the inputs are bit-identical.
//!
//! [`ExecConfig`] is the user-facing knob set: thread count
//! (`--threads` / `XTALK_THREADS`; 1 preserves the fully serial path),
//! the small-batch serial cutoff, the cache switch/capacity
//! (`XTALK_CACHE`, `XTALK_CACHE_CAPACITY`), fail-fast mode (`--strict` /
//! `XTALK_STRICT`), signoff mode (`--signoff` / `XTALK_SIGNOFF`), the PVT
//! corner list (`--corners` / `XTALK_CORNERS`), the characterization
//! schedule (`--characterize` / `XTALK_CHARACTERIZE`) and the
//! characterization store path (`--char-store` / `XTALK_CHAR_STORE`).
//! Malformed environment values are a typed [`ConfigError`].

pub(crate) mod cache;
pub(crate) mod memo;
pub(crate) mod pool;
pub(crate) mod wavefront;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use xtalk_tech::{Corner, Library, Process};
use xtalk_wave::macromodel;

pub use cache::CacheStats;

/// When the analyzer characterizes macromodel tables.
///
/// Characterization is a deterministic pure function of `(process, arc)`
/// and the model store insert is first-wins, so the mode changes *when*
/// tables get built, never their bits: prewarm, lazy and store-warm paths
/// all serve identical tables (gated by tests and the `--signoff`
/// snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CharacterizeMode {
    /// Sweep the full arc library at analyzer build (the default). With a
    /// worker pool configured, arcs characterize in parallel.
    #[default]
    Prewarm,
    /// Characterize an arc's grid on its first in-admission table miss,
    /// so workloads touching small cones (ECO sweeps, serve sessions)
    /// never pay for the full library.
    Lazy,
}

impl CharacterizeMode {
    /// Parses a `--characterize` / `XTALK_CHARACTERIZE` value.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the rejected value.
    pub fn parse(var: &'static str, value: &str) -> Result<Self, ConfigError> {
        match value {
            "prewarm" => Ok(CharacterizeMode::Prewarm),
            "lazy" => Ok(CharacterizeMode::Lazy),
            other => Err(env_err(var, other, "`prewarm` or `lazy`")),
        }
    }
}

impl fmt::Display for CharacterizeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizeMode::Prewarm => write!(f, "prewarm"),
            CharacterizeMode::Lazy => write!(f, "lazy"),
        }
    }
}

/// The process-wide time origin the deadline token counts from. `Instant`
/// cannot be stored in an atomic directly, so deadlines travel as
/// nanoseconds since this fixed epoch (0 = no deadline installed).
fn deadline_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A rejected execution-configuration value.
///
/// Environment overrides used to fall back to defaults silently when a
/// variable held junk (`XTALK_THREADS=banana` quietly ran with auto
/// threads). A long-lived service cannot afford that: a typo in a deploy
/// manifest must fail loudly at startup, not degrade performance for weeks.
/// [`ExecConfig::from_env`] therefore rejects malformed values with this
/// typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// An environment variable held a value that does not parse.
    InvalidEnv {
        /// The variable name (e.g. `XTALK_THREADS`).
        var: &'static str,
        /// The rejected value, verbatim.
        value: String,
        /// What the variable accepts.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidEnv {
                var,
                value,
                expected,
            } => {
                write!(f, "{var}: invalid value `{value}` (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

fn env_err(var: &'static str, value: &str, expected: &'static str) -> ConfigError {
    ConfigError::InvalidEnv {
        var,
        value: value.to_string(),
        expected,
    }
}

/// Parses an on/off switch value (`1`/`on`/`true`/`yes` vs
/// `0`/`off`/`false`/`no`).
fn parse_switch(var: &'static str, value: &str) -> Result<bool, ConfigError> {
    match value {
        "1" | "on" | "true" | "yes" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        other => Err(env_err(
            var,
            other,
            "one of 1/on/true/yes or 0/off/false/no",
        )),
    }
}

/// Execution configuration of an analyzer: parallelism and caching.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker count for parallel passes. `1` runs the engine on the fully
    /// serial code path (no pool is ever built); `n > 1` uses the calling
    /// thread plus `n - 1` pool workers.
    pub threads: usize,
    /// Stage-count threshold below which a pass (or a dirty batch) runs
    /// inline on the calling thread even when a pool exists — scheduling
    /// overhead dominates tiny batches.
    pub serial_cutoff: usize,
    /// Enables the cross-pass stage-solve cache.
    pub cache: bool,
    /// Total stage-solve cache capacity, in entries.
    pub cache_capacity: usize,
    /// Fail fast on the first recoverable fault instead of degrading to a
    /// conservative bound with a [`crate::diag::Diagnostic`].
    pub strict: bool,
    /// Signoff mode: disable the characterized-macromodel fast path so
    /// every stage solve runs the full transistor-level Newton iteration,
    /// reproducing the pre-macromodel results bit for bit.
    pub signoff: bool,
    /// PVT corners for a scenario-matrix run (`--corners` /
    /// `XTALK_CORNERS`). `None` analyzes the single base process — the
    /// pre-scenario behaviour, bit for bit.
    pub corners: Option<Vec<Corner>>,
    /// When macromodel tables get characterized (`--characterize` /
    /// `XTALK_CHARACTERIZE`): full-library prewarm at build, or lazily on
    /// first in-admission miss.
    pub characterize: CharacterizeMode,
    /// Path of the on-disk characterization store (`--char-store` /
    /// `XTALK_CHAR_STORE`). `None` characterizes fresh every process —
    /// the pre-store behaviour, bit for bit.
    pub char_store: Option<PathBuf>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            serial_cutoff: 32,
            cache: true,
            cache_capacity: 1 << 20,
            strict: false,
            signoff: false,
            corners: None,
            characterize: CharacterizeMode::default(),
            char_store: None,
        }
    }
}

impl ExecConfig {
    /// The default configuration with environment overrides applied:
    /// `XTALK_THREADS` (integer; `1` = serial, `0`/unset = auto),
    /// `XTALK_CACHE` (on/off switch for the stage-solve cache),
    /// `XTALK_CACHE_CAPACITY` (entry count), `XTALK_STRICT` (on/off
    /// switch), `XTALK_SIGNOFF` (on/off switch for the bit-exact
    /// full-solver mode), `XTALK_CORNERS` (comma-separated corner list),
    /// `XTALK_CHARACTERIZE` (`prewarm` | `lazy`) and `XTALK_CHAR_STORE`
    /// (store path; empty = none).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a variable is set to a value that does not
    /// parse — malformed overrides are rejected, never silently replaced
    /// by defaults. (A variable holding non-Unicode bytes is treated as
    /// unset.)
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`ExecConfig::from_env`] over an explicit variable lookup — the
    /// testable core, so unit tests never mutate the process environment.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a looked-up value does not parse.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, ConfigError> {
        let mut config = ExecConfig::default();
        if let Some(threads) = get("XTALK_THREADS") {
            match threads.trim().parse::<usize>() {
                // 0 keeps the auto (available-parallelism) default.
                Ok(0) => {}
                Ok(n) => config.threads = n,
                Err(_) => {
                    return Err(env_err(
                        "XTALK_THREADS",
                        &threads,
                        "a non-negative integer (0 = auto)",
                    ))
                }
            }
        }
        if let Some(cache) = get("XTALK_CACHE") {
            config.cache = parse_switch("XTALK_CACHE", cache.trim())?;
        }
        if let Some(capacity) = get("XTALK_CACHE_CAPACITY") {
            config.cache_capacity = capacity.trim().parse::<usize>().map_err(|_| {
                env_err(
                    "XTALK_CACHE_CAPACITY",
                    &capacity,
                    "a non-negative entry count (0 disables the cache)",
                )
            })?;
        }
        if let Some(strict) = get("XTALK_STRICT") {
            config.strict = parse_switch("XTALK_STRICT", strict.trim())?;
        }
        if let Some(signoff) = get("XTALK_SIGNOFF") {
            config.signoff = parse_switch("XTALK_SIGNOFF", signoff.trim())?;
        }
        if let Some(corners) = get("XTALK_CORNERS") {
            config.corners = Some(parse_corners("XTALK_CORNERS", &corners)?);
        }
        if let Some(mode) = get("XTALK_CHARACTERIZE") {
            config.characterize = CharacterizeMode::parse("XTALK_CHARACTERIZE", mode.trim())?;
        }
        if let Some(path) = get("XTALK_CHAR_STORE") {
            let path = path.trim();
            // An empty value means "no store", so deploy manifests can
            // blank the variable without deleting it.
            config.char_store = (!path.is_empty()).then(|| PathBuf::from(path));
        }
        Ok(config)
    }

    /// A fully serial configuration (single thread, cache on).
    #[must_use]
    pub fn serial() -> Self {
        ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        }
    }

    /// Overrides the worker count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the small-batch serial cutoff.
    #[must_use]
    pub fn with_serial_cutoff(mut self, cutoff: usize) -> Self {
        self.serial_cutoff = cutoff;
        self
    }

    /// Enables or disables the stage-solve cache.
    #[must_use]
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Enables or disables strict (fail-fast) mode.
    #[must_use]
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Enables or disables signoff mode (macromodel fast path off).
    #[must_use]
    pub fn with_signoff(mut self, signoff: bool) -> Self {
        self.signoff = signoff;
        self
    }

    /// Sets (or clears) the scenario-matrix corner list.
    #[must_use]
    pub fn with_corners(mut self, corners: Option<Vec<Corner>>) -> Self {
        self.corners = corners;
        self
    }

    /// Overrides the characterization mode.
    #[must_use]
    pub fn with_characterize(mut self, mode: CharacterizeMode) -> Self {
        self.characterize = mode;
        self
    }

    /// Sets (or clears) the on-disk characterization store path.
    #[must_use]
    pub fn with_char_store(mut self, path: Option<PathBuf>) -> Self {
        self.char_store = path;
        self
    }
}

/// Parses a comma-separated corner list through the typed-error path
/// shared by `--corners` and `XTALK_CORNERS`: an unknown (or duplicate, or
/// empty) corner name is a [`ConfigError`], never a silent default.
///
/// # Errors
///
/// [`ConfigError::InvalidEnv`] naming the offending token.
pub fn parse_corners(var: &'static str, spec: &str) -> Result<Vec<Corner>, ConfigError> {
    Corner::parse_list(spec).map_err(|bad| {
        env_err(
            var,
            &bad,
            "a comma-separated list of distinct corner names from {ss, tt, ff}",
        )
    })
}

/// The per-analyzer execution state: the lazily built worker pool, the
/// stage-solve cache, the diagnostic sink of the current analysis, and (in
/// fault-injection builds) the active fault plan.
pub(crate) struct Executor {
    config: ExecConfig,
    pool: OnceLock<pool::WorkerPool>,
    cache: cache::SolveCache,
    memo: memo::ArcMemo,
    diagnostics: std::sync::Mutex<Vec<crate::diag::Diagnostic>>,
    /// Characterization-store faults (unopenable file, failed replay).
    /// They happen at build/prewarm time — before any analysis begins its
    /// diagnostic window — and describe a condition that persists for the
    /// analyzer's lifetime, so unlike per-analysis diagnostics they are
    /// re-reported into every drain rather than consumed by the first.
    sticky_diagnostics: std::sync::Mutex<Vec<crate::diag::Diagnostic>>,
    /// The cooperative cancellation token: a request deadline as
    /// nanoseconds past [`deadline_epoch`], 0 when none is installed. The
    /// kernel polls it between dependency levels (serial and incremental
    /// paths) and at every wavefront task, so an expired deadline aborts
    /// the pass within one stage solve.
    deadline: AtomicU64,
    /// The shared on-disk characterization store handle, when configured
    /// and openable. `None` degrades to characterize-fresh (a store
    /// failure can cost solves, never correctness).
    char_store: Option<Arc<crate::charstore::CharStore>>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_plan: std::sync::Mutex<Option<crate::fault::FaultPlan>>,
}

impl Executor {
    pub(crate) fn new(config: ExecConfig) -> Self {
        let cache = cache::SolveCache::new(config.cache, config.cache_capacity);
        let memo = memo::ArcMemo::new(config.cache);
        let mut store_fault = None;
        let char_store =
            config
                .char_store
                .as_ref()
                .and_then(|path| match crate::charstore::open_shared(path) {
                    Ok(store) => Some(store),
                    Err(e) => {
                        store_fault = Some(crate::diag::Diagnostic {
                            severity: crate::diag::Severity::Warning,
                            node: path.display().to_string(),
                            fault: crate::diag::FaultClass::CacheCorruption,
                            substituted_bound: None,
                            detail: format!(
                                "characterization store unavailable ({e}); characterizing fresh"
                            ),
                        });
                        None
                    }
                });
        Executor {
            config,
            pool: OnceLock::new(),
            cache,
            memo,
            diagnostics: std::sync::Mutex::new(Vec::new()),
            sticky_diagnostics: std::sync::Mutex::new(store_fault.into_iter().collect()),
            deadline: AtomicU64::new(0),
            char_store,
            #[cfg(any(test, feature = "fault-injection"))]
            fault_plan: std::sync::Mutex::new(None),
        }
    }

    /// The shared characterization-store handle, if one is open.
    pub(crate) fn char_store(&self) -> Option<&Arc<crate::charstore::CharStore>> {
        self.char_store.as_ref()
    }

    /// Builds the macromodel tables this configuration wants ready before
    /// analysis: replays the on-disk characterization store (every mode
    /// except signoff — lazy builds also want disk-warm tables), then in
    /// prewarm mode characterizes whatever the store did not cover — on
    /// the worker pool when one is configured — and appends the fresh
    /// models back to the store.
    ///
    /// Every path is bit-identical: characterization is a deterministic
    /// pure function of `(process, arc)` and the model-store insert is
    /// first-wins, so replay order and worker interleaving can change
    /// *when* a table exists, never its contents.
    pub(crate) fn prewarm_tables(&self, process: &Process, library: &Library) {
        if self.config.signoff {
            return;
        }
        if let Some(store) = &self.char_store {
            if let Err(e) = store.load() {
                self.push_sticky_diagnostic(crate::diag::Diagnostic {
                    severity: crate::diag::Severity::Warning,
                    node: store.path().display().to_string(),
                    fault: crate::diag::FaultClass::CacheCorruption,
                    substituted_bound: None,
                    detail: format!(
                        "characterization store replay failed ({e}); characterizing fresh"
                    ),
                });
            }
        }
        if self.config.characterize != CharacterizeMode::Prewarm {
            return;
        }
        let work = macromodel::prewarm_work(process, library);
        if work.is_empty() {
            return;
        }
        match self.pool_for(work.len()) {
            None => {
                for item in &work {
                    macromodel::ensure_model(
                        item.key,
                        process,
                        item.stage,
                        item.slot,
                        &item.side,
                        item.out_rising,
                    );
                }
            }
            Some(pool) => {
                let next = AtomicUsize::new(0);
                pool.run(&|_worker| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = work.get(i) else {
                        break;
                    };
                    macromodel::ensure_model(
                        item.key,
                        process,
                        item.stage,
                        item.slot,
                        &item.side,
                        item.out_rising,
                    );
                });
            }
        }
        if let Some(store) = &self.char_store {
            let fresh: Vec<(u64, Vec<u8>)> = work
                .iter()
                .filter_map(|item| {
                    macromodel::model_for(item.key).map(|m| (item.key, m.to_bytes()))
                })
                .collect();
            if let Err(e) = store.append_models(&fresh) {
                self.push_sticky_diagnostic(crate::diag::Diagnostic {
                    severity: crate::diag::Severity::Warning,
                    node: store.path().display().to_string(),
                    fault: crate::diag::FaultClass::CacheCorruption,
                    substituted_bound: None,
                    detail: format!("characterization store append failed ({e})"),
                });
            }
        }
    }

    /// Installs (or clears, with `None`) the cooperative deadline for the
    /// analyses that follow. An already-expired instant is representable
    /// (the first kernel check trips immediately) — that is how a
    /// `deadline_ms: 0` request cancels deterministically.
    pub(crate) fn set_deadline(&self, deadline: Option<Instant>) {
        let nanos = match deadline {
            None => 0,
            Some(at) => {
                let since = at
                    .saturating_duration_since(deadline_epoch())
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64;
                // An instant at (or before) the epoch itself would encode
                // as 0 = "no deadline"; clamp to the smallest armed value.
                since.max(1)
            }
        };
        self.deadline.store(nanos, Ordering::Release);
    }

    /// Whether the installed deadline (if any) has expired. Cheap enough
    /// to poll from every wavefront task: one atomic load plus, only when
    /// a deadline is armed, one monotonic clock read.
    pub(crate) fn deadline_expired(&self) -> bool {
        let armed = self.deadline.load(Ordering::Acquire);
        if armed == 0 {
            return false;
        }
        deadline_epoch().elapsed().as_nanos() >= u128::from(armed)
    }

    pub(crate) fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Records a contained fault. Callable from any worker thread.
    pub(crate) fn push_diagnostic(&self, diag: crate::diag::Diagnostic) {
        self.diagnostics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(diag);
    }

    /// Records a characterization-store fault: reported into every
    /// subsequent drain (the degraded store outlives any one analysis).
    pub(crate) fn push_sticky_diagnostic(&self, diag: crate::diag::Diagnostic) {
        self.sticky_diagnostics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(diag);
    }

    /// Drains the diagnostics accumulated since the last drain (plus the
    /// sticky store faults, which every analysis re-reports), sorted for
    /// determinism (worker arrival order is scheduling-dependent).
    pub(crate) fn drain_diagnostics(&self) -> Vec<crate::diag::Diagnostic> {
        let mut diags = self
            .sticky_diagnostics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        diags.extend(std::mem::take(
            &mut *self
                .diagnostics
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        ));
        diags.sort_by(|a, b| {
            (a.node.as_str(), a.fault as u8, a.severity)
                .cmp(&(b.node.as_str(), b.fault as u8, b.severity))
                .then_with(|| a.detail.cmp(&b.detail))
        });
        diags.dedup();
        diags
    }

    /// Installs (or clears) the fault plan driving injection.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn set_fault_plan(&self, plan: Option<crate::fault::FaultPlan>) {
        *self
            .fault_plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = plan;
    }

    /// The fault to inject at `gate`, if the active plan selects it.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn fault_for(&self, gate: &str) -> Option<crate::fault::Fault> {
        self.fault_plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .filter(|plan| plan.injects_at(gate))
            .map(|plan| plan.fault())
    }

    /// The pool to use for a batch of `stages` stages: `None` selects the
    /// serial path (single-threaded config, or a batch under the cutoff).
    pub(crate) fn pool_for(&self, stages: usize) -> Option<&pool::WorkerPool> {
        if self.config.threads <= 1 || stages < self.config.serial_cutoff {
            return None;
        }
        Some(
            self.pool
                .get_or_init(|| pool::WorkerPool::new(self.config.threads)),
        )
    }

    pub(crate) fn cache(&self) -> &cache::SolveCache {
        &self.cache
    }

    pub(crate) fn memo(&self) -> &memo::ArcMemo {
        &self.memo
    }

    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub(crate) fn clear_cache(&self) {
        self.cache.clear();
        self.memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_compose() {
        let c = ExecConfig::serial()
            .with_threads(4)
            .with_serial_cutoff(0)
            .with_cache(false);
        assert_eq!(c.threads, 4);
        assert_eq!(c.serial_cutoff, 0);
        assert!(!c.cache);
        assert_eq!(ExecConfig::serial().threads, 1);
        assert_eq!(ExecConfig::default().with_threads(0).threads, 1);
    }

    fn lookup<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn env_overrides_parse_valid_values() {
        let c = ExecConfig::from_lookup(lookup(&[
            ("XTALK_THREADS", "3"),
            ("XTALK_CACHE", "off"),
            ("XTALK_CACHE_CAPACITY", "4096"),
            ("XTALK_STRICT", "1"),
            ("XTALK_SIGNOFF", "on"),
        ]))
        .expect("valid overrides");
        assert_eq!(c.threads, 3);
        assert!(!c.cache);
        assert_eq!(c.cache_capacity, 4096);
        assert!(c.strict);
        assert!(c.signoff);
        assert!(!ExecConfig::default().signoff, "fast path is the default");
        // 0 threads keeps the auto default; unset vars keep every default.
        let auto = ExecConfig::from_lookup(lookup(&[("XTALK_THREADS", "0")])).expect("auto");
        assert_eq!(auto.threads, ExecConfig::default().threads);
        let plain = ExecConfig::from_lookup(lookup(&[])).expect("no overrides");
        assert_eq!(plain.cache_capacity, ExecConfig::default().cache_capacity);
    }

    #[test]
    fn junk_threads_is_a_typed_error_not_a_silent_default() {
        for bad in ["banana", "-2", "1.5", ""] {
            let e = ExecConfig::from_lookup(lookup(&[("XTALK_THREADS", bad)]))
                .expect_err("junk must be rejected");
            let ConfigError::InvalidEnv { var, value, .. } = &e;
            assert_eq!(*var, "XTALK_THREADS");
            assert_eq!(value, bad);
            assert!(e.to_string().contains("XTALK_THREADS"), "{e}");
        }
    }

    #[test]
    fn junk_cache_capacity_is_a_typed_error_not_a_silent_default() {
        for bad in ["lots", "-1", "1e6", "0x100"] {
            let e = ExecConfig::from_lookup(lookup(&[("XTALK_CACHE_CAPACITY", bad)]))
                .expect_err("junk must be rejected");
            let ConfigError::InvalidEnv { var, value, .. } = &e;
            assert_eq!(*var, "XTALK_CACHE_CAPACITY");
            assert_eq!(value, bad);
        }
        // 0 is a valid capacity: it disables the cache rather than erroring.
        let c = ExecConfig::from_lookup(lookup(&[("XTALK_CACHE_CAPACITY", "0")])).expect("zero");
        assert_eq!(c.cache_capacity, 0);
    }

    #[test]
    fn corners_env_parses_known_names_in_order() {
        let c = ExecConfig::from_lookup(lookup(&[("XTALK_CORNERS", "ss, tt ,ff")]))
            .expect("valid corner list");
        let names: Vec<String> = c
            .corners
            .expect("corners set")
            .iter()
            .map(|k| k.name.clone())
            .collect();
        assert_eq!(names, ["ss", "tt", "ff"]);
        let single = ExecConfig::from_lookup(lookup(&[("XTALK_CORNERS", "ss")])).expect("one");
        assert_eq!(single.corners.expect("set").len(), 1);
        assert!(
            ExecConfig::from_lookup(lookup(&[]))
                .expect("unset")
                .corners
                .is_none(),
            "no corners env keeps the single-process default"
        );
    }

    #[test]
    fn unknown_corner_name_is_a_typed_error() {
        for (spec, bad) in [
            ("ss,zz", "zz"),
            ("fast", "fast"),
            ("ss,,tt", ""),
            ("ss,ss", "ss"),
        ] {
            let e = ExecConfig::from_lookup(lookup(&[("XTALK_CORNERS", spec)]))
                .expect_err("junk corner must be rejected");
            let ConfigError::InvalidEnv { var, value, .. } = &e;
            assert_eq!(*var, "XTALK_CORNERS");
            assert_eq!(value, bad, "spec {spec:?}");
            assert!(e.to_string().contains("XTALK_CORNERS"), "{e}");
        }
    }

    #[test]
    fn junk_switches_and_modes_are_rejected() {
        assert!(ExecConfig::from_lookup(lookup(&[("XTALK_CACHE", "maybe")])).is_err());
        assert!(ExecConfig::from_lookup(lookup(&[("XTALK_STRICT", "2")])).is_err());
        assert!(ExecConfig::from_lookup(lookup(&[("XTALK_SIGNOFF", "sorta")])).is_err());
        // `prewarm` and `lazy` are the only characterization schedules.
        for bad in ["off", "eager"] {
            let e = ExecConfig::from_lookup(lookup(&[("XTALK_CHARACTERIZE", bad)]))
                .expect_err("unknown schedule must be rejected");
            let ConfigError::InvalidEnv { var, value, .. } = &e;
            assert_eq!((*var, value.as_str()), ("XTALK_CHARACTERIZE", bad));
        }
        let lazy =
            ExecConfig::from_lookup(lookup(&[("XTALK_CHARACTERIZE", "lazy")])).expect("lazy");
        assert_eq!(lazy.characterize, CharacterizeMode::Lazy);
        let on = ExecConfig::from_lookup(lookup(&[("XTALK_CACHE", "yes")])).expect("switch");
        assert!(on.cache);
    }

    #[test]
    fn executor_respects_serial_paths() {
        let serial = Executor::new(ExecConfig::serial());
        assert!(serial.pool_for(10_000).is_none(), "threads=1 never pools");
        let parallel = Executor::new(ExecConfig::default().with_threads(2));
        assert!(parallel.pool_for(4).is_none(), "below the cutoff");
        assert!(parallel.pool_for(4096).is_some(), "above the cutoff");
        let nocache = Executor::new(ExecConfig::default().with_cache(false));
        assert!(!nocache.cache().enabled());
    }
}
