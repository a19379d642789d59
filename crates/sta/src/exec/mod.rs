//! The persistent execution layer of the STA engine.
//!
//! Two cooperating pieces, both built once per analyzer and reused across
//! every pass, mode and ECO sweep:
//!
//! - a **wavefront scheduler** (`wavefront`): a long-lived worker pool
//!   (`pool::WorkerPool`) driving dependency-counter wavefront
//!   propagation with work-stealing deques, replacing the
//!   spawn-per-level/barrier-per-level scheme;
//! - a **per-stage solve memo** (`memo::ArcMemo`), the engine's one
//!   exact-match reuse layer: refinement passes, repeated modes and warm
//!   re-analyses skip Newton integration when a stage's inputs are
//!   bit-identical to an earlier solve.
//!
//! A store-backed serve daemon also attaches its one keyed solve cache
//! (`cache::SolveCache`) to every session's executor; batch analyzers
//! build none (DESIGN.md D11).
//!
//! The executor also binds each timing graph's arcs to their
//! characterized macromodels before analysis (DESIGN.md D15): it
//! characterizes exactly the design's missing arcs, on the same worker
//! pool, so no pass ever looks a model up.
//!
//! [`ExecConfig`] is the analyzer's knob set, passed by value: thread
//! count (1 preserves the fully serial path), the small-batch serial
//! cutoff, solve reuse, fail-fast mode, signoff mode, the PVT corner list
//! and the characterization store path. The analyzers read no environment;
//! the `xtalk` front end maps its flags and `XTALK_*` variables onto it.

pub(crate) mod cache;
pub(crate) mod memo;
pub(crate) mod pool;
pub(crate) mod wavefront;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use xtalk_tech::{Corner, Library, Process};
use xtalk_wave::macromodel::{self, PrewarmItem};

use crate::graph::TimingGraph;

pub use cache::CacheStats;

/// The process-wide time origin the deadline token counts from. `Instant`
/// cannot be stored in an atomic directly, so deadlines travel as
/// nanoseconds since this fixed epoch (0 = no deadline installed).
fn deadline_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Execution configuration of an analyzer: parallelism, reuse and modes.
/// [`crate::Sta::new`] and [`crate::IncrementalSta::new`] use `Default`;
/// every other caller sets it by value with the `with_*` methods.
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
    /// Enables solve reuse: the per-stage memo, and in a store-backed
    /// daemon the keyed solve cache. Off is the uncached reference path.
    pub cache: bool,
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
            strict: false,
            signoff: false,
            corners: None,
            char_store: None,
        }
    }
}

impl ExecConfig {
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

    /// Enables or disables solve reuse (see [`ExecConfig::cache`]).
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

    /// Sets (or clears) the on-disk characterization store path.
    #[must_use]
    pub fn with_char_store(mut self, path: Option<PathBuf>) -> Self {
        self.char_store = path;
        self
    }
}

/// A contained fault of the characterization store at `path`.
fn store_fault(path: &std::path::Path, detail: String) -> crate::diag::Diagnostic {
    crate::diag::Diagnostic {
        severity: crate::diag::Severity::Warning,
        node: path.display().to_string(),
        fault: crate::diag::FaultClass::CacheCorruption,
        substituted_bound: None,
        detail,
    }
}

/// The per-analyzer execution state: the lazily built worker pool, the
/// per-stage memo, the daemon's keyed solve cache when one is attached,
/// the diagnostic sink of the current analysis, and (in fault-injection
/// builds) the active fault plan.
pub(crate) struct Executor {
    config: ExecConfig,
    pool: OnceLock<pool::WorkerPool>,
    /// The store-backed daemon's shared cache; `None` in batch analysis.
    cache: Option<Arc<cache::SolveCache>>,
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
    /// Completes when the characterization store has been replayed: at
    /// most once per executor, and only when a binding misses a model.
    char_replayed: std::sync::Once,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_plan: std::sync::Mutex<Option<crate::fault::FaultPlan>>,
}

impl Executor {
    pub(crate) fn new(config: ExecConfig) -> Self {
        let memo = memo::ArcMemo::new(config.cache);
        let mut unavailable = None;
        let char_store =
            config
                .char_store
                .as_ref()
                .and_then(|path| match crate::charstore::open_shared(path) {
                    Ok(store) => Some(store),
                    Err(e) => {
                        unavailable = Some(store_fault(
                            path,
                            format!(
                                "characterization store unavailable ({e}); characterizing fresh"
                            ),
                        ));
                        None
                    }
                });
        Executor {
            config,
            pool: OnceLock::new(),
            cache: None,
            memo,
            diagnostics: std::sync::Mutex::new(Vec::new()),
            sticky_diagnostics: std::sync::Mutex::new(unavailable.into_iter().collect()),
            deadline: AtomicU64::new(0),
            char_store,
            char_replayed: std::sync::Once::new(),
            #[cfg(any(test, feature = "fault-injection"))]
            fault_plan: std::sync::Mutex::new(None),
        }
    }

    /// Binds the models of `graph`'s unbound cell stages (DESIGN.md D15),
    /// so the kernel reads each arc's model instead of looking it up.
    /// Models missing from the process-global store come from the on-disk
    /// characterization store, and whatever that lacks is characterized
    /// on the worker pool, each arc once, in graph order, then appended to
    /// the store. Signoff binds nothing: it never reads a table.
    ///
    /// Every path gives the same bits: characterization is a
    /// deterministic pure function of `(process, arc)` and the model-store
    /// insert is first-wins, so replay and worker interleaving change
    /// *when* a table exists, never its contents.
    pub(crate) fn bind_models(
        &self,
        process: &Process,
        library: &Library,
        graph: &mut TimingGraph,
    ) {
        if self.config.signoff {
            return;
        }
        let mut work: Vec<PrewarmItem<'_>> = graph
            .unbound_arcs()
            .filter_map(|(cs, slot, out_rising, arc)| {
                let key = arc
                    .key
                    .filter(|&key| macromodel::model_for(key).is_none())?;
                Some(PrewarmItem {
                    key,
                    stage: library.cell(&cs.cell)?.stages.get(cs.stage)?,
                    slot,
                    side: arc.side.clone()?,
                    out_rising,
                })
            })
            .collect();
        if !work.is_empty() {
            self.replay_char_store();
            work.retain(|item| macromodel::model_for(item.key).is_none());
        }
        if !work.is_empty() {
            macromodel::characterize_work(process, &work, |sweep| {
                match self.pool_for(work.len()) {
                    None => sweep(0),
                    Some(pool) => pool.run(sweep),
                }
            });
            self.append_models(&work);
        }
        graph.bind(macromodel::model_for);
    }

    /// Replays the characterization store into the process-global model
    /// store unless this executor already did: after one replay, the
    /// store holds nothing the executor's own appends did not put in
    /// memory too.
    fn replay_char_store(&self) {
        let Some(store) = &self.char_store else {
            return;
        };
        self.char_replayed.call_once(|| {
            if let Err(e) = store.load() {
                self.push_sticky_diagnostic(store_fault(
                    store.path(),
                    format!("characterization store replay failed ({e}); characterizing fresh"),
                ));
            }
        });
    }

    /// Appends the freshly characterized models of `work` to the store.
    fn append_models(&self, work: &[PrewarmItem<'_>]) {
        let Some(store) = &self.char_store else {
            return;
        };
        let fresh: Vec<(u64, Vec<u8>)> = work
            .iter()
            .filter_map(|item| macromodel::model_for(item.key).map(|m| (item.key, m.to_bytes())))
            .collect();
        if let Err(e) = store.append_models(&fresh) {
            self.push_sticky_diagnostic(store_fault(
                store.path(),
                format!("characterization store append failed ({e})"),
            ));
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

    /// Attaches a store-backed daemon's shared solve cache. Only a config
    /// with reuse on gets one.
    pub(crate) fn attach_cache(&mut self, cache: Arc<cache::SolveCache>) {
        self.cache = Some(cache);
    }

    pub(crate) fn cache(&self) -> Option<&cache::SolveCache> {
        self.cache.as_deref()
    }

    pub(crate) fn memo(&self) -> &memo::ArcMemo {
        &self.memo
    }

    /// The attached cache's counters; all zeros without one.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache()
            .map(cache::SolveCache::stats)
            .unwrap_or_default()
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

    #[test]
    fn executor_respects_serial_paths() {
        let serial = Executor::new(ExecConfig::serial());
        assert!(serial.pool_for(10_000).is_none(), "threads=1 never pools");
        let parallel = Executor::new(ExecConfig::default().with_threads(2));
        assert!(parallel.pool_for(4).is_none(), "below the cutoff");
        assert!(parallel.pool_for(4096).is_some(), "above the cutoff");
        assert!(
            serial.cache().is_none(),
            "an analyzer builds no keyed cache"
        );
    }
}
