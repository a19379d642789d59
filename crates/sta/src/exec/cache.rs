//! The serve daemon's store-backed stage-solve cache.
//!
//! A transistor-level stage solve is a pure function of the cell stage
//! definition, the switching slot, the input waveform, the sensitizing side
//! values and the driven load (grounded cap + coupling caps with their
//! treatment). The cache memoizes solves under a key built from exactly
//! those inputs, so any two solver invocations with bit-identical inputs —
//! across sessions, corner replicas, ECO graph rebuilds and, through the
//! on-disk solve store (`crate::serve::store`), daemon restarts — share one
//! Newton integration. Batch analyzers build none: inside one analyzer the
//! per-stage memo (`super::memo`) already answers every repeat, so only a
//! daemon with a solve store attaches this cache, one instance shared by
//! all its sessions (DESIGN.md D11).
//!
//! Keys are **exact-match**: waveform points and capacitances enter as
//! canonical IEEE-754 bit patterns ([`xtalk_wave::canon_bits`]; the only
//! normalization is `-0.0 == +0.0`). A hit therefore returns the identical
//! `Waveform` the solver would have produced, and the cache can never
//! change a reported arrival. Side values are *not* part of the key: they
//! are a pure function of `(cell, stage, slot, output direction, earliest)`
//! and the process, all of which the key carries.
//!
//! The table is sharded by a stable FNV hash of the key so concurrent
//! wavefront workers rarely contend on one mutex. Each shard holds at most
//! `CAPACITY / SHARDS` entries; an insert into a full shard clears it
//! (counted as evictions) — simple, and harmless because the cache is only
//! an accelerator.
//!
//! Admission is cost-aware: a solve is stored only once its signature has
//! proven expensive (Newton-iteration cost at or above twice the running
//! mean, after a 100-solve warm-up). The bulk of cold-run solves never pay
//! the key construction, checksum and insert, while the expensive deep
//! solves whose re-solve cost dwarfs the bookkeeping are kept — and
//! journaled for the solve store — for the next session or restart
//! (DESIGN.md D10).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xtalk_wave::signature::{canon_bits, StableHasher};
use xtalk_wave::stage::{CouplingMode, Load};
use xtalk_wave::Waveform;

/// Shard count; a power of two keeps the index a mask.
const SHARDS: usize = 16;

/// Total entry capacity across all shards.
const CAPACITY: usize = 1 << 20;

/// Hit/miss/evict counters of the stage-solve cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a Newton integration.
    pub misses: u64,
    /// Entries discarded by capacity eviction.
    pub evictions: u64,
    /// Entries evicted because they failed the integrity check on lookup
    /// (stored checksum no longer matched the stored waveform).
    pub integrity_evictions: u64,
    /// Solves admitted for storage by the admission policy.
    pub admitted: u64,
    /// Solves the cost-aware policy declined to store.
    pub skipped: u64,
}

/// Exact-match identity of one stage solve.
///
/// Fields are `pub(crate)` so the on-disk solve store (`crate::serve`)
/// can serialize and rebuild keys without widening the public API; it
/// only rebuilds what [`SolveKey::new`] wrote, under the store's checksum.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SolveKey {
    /// Library cell name: the stable identity of the stage definition
    /// (stage index within the cell below). Survives ECO graph rebuilds.
    pub(crate) cell: String,
    /// Stage index within the cell.
    pub(crate) stage: u32,
    /// Switching input slot.
    pub(crate) slot: u32,
    /// Bit 0: output rising; bit 1: earliest (min-delay side values).
    pub(crate) flags: u8,
    /// PVT corner signature of the process the solve ran at
    /// ([`xtalk_tech::Process::corner_sig`]; 0 = base process). Makes
    /// cross-corner reuse structurally impossible: two corners with
    /// bit-identical electrical inputs still key apart.
    pub(crate) corner: u64,
    /// Canonical bit pairs of the input waveform's points.
    pub(crate) wave: Vec<(u64, u64)>,
    /// Canonical bits of the grounded load capacitance.
    pub(crate) cground: u64,
    /// Canonical bits + treatment of each coupling cap, in load order
    /// (order matters: the solver breaks snap-time ties by position).
    pub(crate) couplings: Vec<(u64, u8)>,
}

pub(crate) fn mode_byte(mode: CouplingMode) -> u8 {
    match mode {
        CouplingMode::Grounded => 0,
        CouplingMode::Doubled => 1,
        CouplingMode::Active => 2,
        CouplingMode::Assisting => 3,
    }
}

impl SolveKey {
    /// Builds the exact-match key, or `None` when a load value is not
    /// finite. NaN capacitances have no canonical encoding (distinct
    /// payloads hash apart), so such keys would never hit and silently
    /// bloat the shard — and the solve they memoize is garbage anyway.
    /// Callers surface a diagnostic instead of inserting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cell: &str,
        stage: usize,
        slot: usize,
        out_rising: bool,
        earliest: bool,
        corner: u64,
        in_wave: &Waveform,
        load: &Load,
    ) -> Option<Self> {
        if !load.cground.is_finite() || load.couplings.iter().any(|c| !c.c.is_finite()) {
            return None;
        }
        Some(SolveKey {
            cell: cell.to_string(),
            stage: stage as u32,
            slot: slot as u32,
            flags: u8::from(out_rising) | (u8::from(earliest) << 1),
            corner,
            wave: in_wave.canon_points(),
            cground: canon_bits(load.cground),
            couplings: load
                .couplings
                .iter()
                .map(|c| (canon_bits(c.c), mode_byte(c.mode)))
                .collect(),
        })
    }

    /// The admission signature of this key — bit-identical to what
    /// [`admission_sig`] produces for the original solver inputs, so a key
    /// replayed from the on-disk store can re-earn its admission-set entry
    /// (lookups only happen for admitted signatures).
    pub(crate) fn admission_sig(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_bytes(self.cell.as_bytes());
        h.write_u64(u64::from(self.stage) << 32 | u64::from(self.slot));
        h.write_u64(u64::from(self.flags));
        h.write_u64(self.corner);
        for &(t, v) in &self.wave {
            h.write_u64(t);
            h.write_u64(v);
        }
        h.write_u64(self.cground);
        for &(c, mode) in &self.couplings {
            h.write_u64(c);
            h.write_u64(u64::from(mode));
        }
        h.finish()
    }

    /// Stable shard index (FNV-1a; independent of the std `HashMap` seed).
    fn shard(&self) -> usize {
        (self.admission_sig() as usize) & (SHARDS - 1)
    }
}

/// Streaming FNV-1a signature of a solve's identity, hashed directly over
/// the borrowed inputs — no allocation, unlike [`SolveKey::new`] which
/// clones the cell name and waveform points. The cost-aware admission
/// gatekeeper runs on *every* solve, so it must be this cheap; the exact
/// [`SolveKey`] is only built for solves that pass the gate.
///
/// `None` mirrors [`SolveKey::new`]: a non-finite load has no canonical
/// encoding and is never cached. A 64-bit collision merely lets an
/// unproven solve through the gate early — the exact-match key still
/// guards the actual table, so results are unaffected.
#[allow(clippy::too_many_arguments)]
pub(crate) fn admission_sig(
    cell: &str,
    stage: usize,
    slot: usize,
    out_rising: bool,
    earliest: bool,
    corner: u64,
    in_wave: &Waveform,
    load: &Load,
) -> Option<u64> {
    if !load.cground.is_finite() || load.couplings.iter().any(|c| !c.c.is_finite()) {
        return None;
    }
    let mut h = StableHasher::new();
    h.write_bytes(cell.as_bytes());
    h.write_u64((stage as u64) << 32 | slot as u64);
    h.write_u64(u64::from(u8::from(out_rising) | (u8::from(earliest) << 1)));
    h.write_u64(corner);
    for &(t, v) in in_wave.points() {
        h.write_u64(canon_bits(t));
        h.write_u64(canon_bits(v));
    }
    h.write_u64(canon_bits(load.cground));
    for c in &load.couplings {
        h.write_u64(canon_bits(c.c));
        h.write_u64(u64::from(mode_byte(c.mode)));
    }
    Some(h.finish())
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Lookup {
    /// An entry was found and passed its integrity check.
    Hit(Waveform),
    /// No entry for the key.
    Miss,
    /// An entry was found but its stored checksum no longer matched its
    /// waveform; it was evicted rather than served. The caller must
    /// re-solve (exact result, zero accuracy impact) and may report the
    /// corruption.
    Corrupt,
}

/// The sharded concurrent memo table. Each entry carries the FNV signature
/// of its waveform taken at insert time; a lookup re-derives the signature
/// and evicts on mismatch, so a torn or corrupted entry is never served.
pub(crate) struct SolveCache {
    shards: Vec<Mutex<HashMap<SolveKey, (u64, Waveform)>>>,
    /// Entry cap per shard.
    shard_capacity: usize,
    /// Signatures proven worth caching, sharded by the low signature bits
    /// to keep worker contention negligible.
    admitted: Vec<Mutex<HashSet<u64>>>,
    /// Running Newton-iteration cost statistics driving the adaptive
    /// admission threshold.
    cost_sum: AtomicU64,
    cost_count: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    integrity_evictions: AtomicU64,
    admitted_count: AtomicU64,
    skipped: AtomicU64,
    /// Write-behind journal for the on-disk solve store: every
    /// [`SolveCache::put`] also appends a clone here, and the serve daemon
    /// drains the journal to the store after each request.
    journal: Mutex<Vec<(SolveKey, Waveform)>>,
}

/// Solves admitted unconditionally while the running cost mean warms up.
const ADMISSION_WARMUP: u64 = 100;

impl SolveCache {
    /// An empty cache of [`CAPACITY`] entries.
    pub(crate) fn new() -> Self {
        Self::with_capacity(CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        SolveCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
            admitted: (0..SHARDS).map(|_| Mutex::new(HashSet::new())).collect(),
            cost_sum: AtomicU64::new(0),
            cost_count: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            integrity_evictions: AtomicU64::new(0),
            admitted_count: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            journal: Mutex::new(Vec::new()),
        }
    }

    /// Takes every journaled insert since the last drain, in insert order.
    pub(crate) fn drain_journal(&self) -> Vec<(SolveKey, Waveform)> {
        std::mem::take(&mut *lock(&self.journal))
    }

    /// Seeds an entry replayed from the on-disk store: marks its signature
    /// admitted (so lookups actually probe it) and inserts it
    /// without touching the journal or the admission counters. The entry
    /// is exact-match-keyed and checksummed like any live insert, so a
    /// corrupt or stale preload can never change a reported arrival.
    pub(crate) fn preload(&self, key: SolveKey, wave: Waveform) {
        self.admit(key.admission_sig());
        self.insert(key, wave.signature(), wave);
    }

    /// Marks a signature admitted, so lookups for it probe the table.
    fn admit(&self, sig: u64) {
        lock(&self.admitted[(sig as usize) & (SHARDS - 1)]).insert(sig);
    }

    /// Stores an entry under `checksum`, clearing its shard when full.
    fn insert(&self, key: SolveKey, checksum: u64, wave: Waveform) {
        let mut shard = lock(&self.shards[key.shard()]);
        if shard.len() >= self.shard_capacity {
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        shard.insert(key, (checksum, wave));
    }

    /// Whether a lookup for this signature could possibly hit — i.e.
    /// whether building the exact [`SolveKey`] is worth it. Only
    /// signatures that earned admission can have entries.
    pub(crate) fn wants(&self, sig: u64) -> bool {
        lock(&self.admitted[(sig as usize) & (SHARDS - 1)]).contains(&sig)
    }

    /// Records the cost of a fresh solve and decides whether to store it.
    /// `cost` is the solve's Newton-iteration count (its dominant work
    /// term). After a 100-solve warm-up that admits everything to seed the
    /// estimate, a solve is stored when its cost reaches twice the running
    /// mean — only the expensive tail earns an entry, because the typical
    /// solve's hit saves less than the key construction, checksum and
    /// insert/evict churn it costs (DESIGN D7, D10). Admission decisions
    /// depend only on *which* solves ran, not on thread timing of results,
    /// but the running mean can drift with arrival order under the
    /// wavefront scheduler — that is fine: admission affects cache
    /// contents and counters, never results (the table is exact-match).
    pub(crate) fn admit_cost(&self, sig: u64, cost: u64) -> bool {
        let sum = self.cost_sum.fetch_add(cost, Ordering::Relaxed);
        let count = self.cost_count.fetch_add(1, Ordering::Relaxed);
        let admit = count < ADMISSION_WARMUP || cost.saturating_mul(count) >= sum.saturating_mul(2);
        if admit {
            self.admit(sig);
            self.admitted_count.fetch_add(1, Ordering::Relaxed);
        } else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
        admit
    }

    /// Looks the key up, counting a hit or miss. An entry that fails its
    /// integrity check is evicted and reported as [`Lookup::Corrupt`]
    /// (counted as a miss: the caller re-solves).
    pub(crate) fn get(&self, key: &SolveKey) -> Lookup {
        let mut shard = lock(&self.shards[key.shard()]);
        match shard.get(key) {
            Some((checksum, wave)) => {
                if wave.signature() == *checksum {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Lookup::Hit(wave.clone())
                } else {
                    shard.remove(key);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.integrity_evictions.fetch_add(1, Ordering::Relaxed);
                    Lookup::Corrupt
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Stores a solve result, journaling it for the solve store and
    /// evicting the shard when full.
    pub(crate) fn put(&self, key: SolveKey, wave: Waveform) {
        lock(&self.journal).push((key.clone(), wave.clone()));
        self.insert(key, wave.signature(), wave);
    }

    /// Fault injection: admits the key's signature regardless of cost and
    /// stores `wave` under a checksum that does not match it, so the next
    /// lookup probes the entry, detects the corruption and evicts.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn put_poisoned(&self, key: SolveKey, wave: Waveform) {
        self.admit(key.admission_sig());
        self.insert(key, wave.signature() ^ 0xdead_beef, wave);
    }

    /// Entries currently resident.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            integrity_evictions: self.integrity_evictions.load(Ordering::Relaxed),
            admitted: self.admitted_count.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
        }
    }
}

/// Locks a shard, recovering from poisoning (shard maps hold plain data, so
/// a panicking worker cannot leave one in a torn state).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_wave::stage::Coupling;

    fn key(slot: usize, cg: f64) -> SolveKey {
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        let load = Load {
            cground: cg,
            couplings: vec![Coupling::new(1e-15, CouplingMode::Active)],
        };
        SolveKey::new("INVX1", 0, slot, true, false, 0, &w, &load).expect("finite load")
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = SolveCache::new();
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        assert_eq!(cache.get(&key(0, 1e-15)), Lookup::Miss);
        cache.put(key(0, 1e-15), w.clone());
        let Lookup::Hit(got) = cache.get(&key(0, 1e-15)) else {
            panic!("expected hit");
        };
        assert_eq!(got.points(), w.points());
        assert_eq!(cache.get(&key(1, 1e-15)), Lookup::Miss, "slot is keyed");
        assert_eq!(cache.get(&key(0, 2e-15)), Lookup::Miss, "load is keyed");
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn nan_load_refuses_a_key() {
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        let nan_ground = Load {
            cground: f64::NAN,
            couplings: vec![],
        };
        assert!(SolveKey::new("INVX1", 0, 0, true, false, 0, &w, &nan_ground).is_none());
        let nan_coupling = Load {
            cground: 1e-15,
            couplings: vec![Coupling::new(f64::NAN, CouplingMode::Grounded)],
        };
        assert!(SolveKey::new("INVX1", 0, 0, true, false, 0, &w, &nan_coupling).is_none());
        let inf = Load {
            cground: f64::INFINITY,
            couplings: vec![],
        };
        assert!(SolveKey::new("INVX1", 0, 0, true, false, 0, &w, &inf).is_none());
    }

    #[test]
    fn poisoned_entry_is_evicted_not_served() {
        let cache = SolveCache::new();
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        cache.put_poisoned(key(0, 1e-15), w.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(0, 1e-15)), Lookup::Corrupt);
        assert_eq!(cache.len(), 0, "corrupt entry must be evicted");
        assert_eq!(cache.get(&key(0, 1e-15)), Lookup::Miss, "gone after evict");
        let s = cache.stats();
        assert_eq!(s.integrity_evictions, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        // A clean re-insert serves normally again.
        cache.put(key(0, 1e-15), w.clone());
        assert_eq!(cache.get(&key(0, 1e-15)), Lookup::Hit(w));
    }

    #[test]
    fn admission_sig_matches_key_domain() {
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        let load = Load {
            cground: 2e-15,
            couplings: vec![Coupling::new(1e-15, CouplingMode::Active)],
        };
        let sig = admission_sig("INVX1", 0, 0, true, false, 0, &w, &load).expect("finite");
        // Deterministic and sensitive to every keyed dimension.
        assert_eq!(
            sig,
            admission_sig("INVX1", 0, 0, true, false, 0, &w, &load).expect("finite")
        );
        assert_ne!(
            sig,
            admission_sig("INVX1", 0, 1, true, false, 0, &w, &load).expect("slot")
        );
        assert_ne!(
            sig,
            admission_sig("INVX1", 0, 0, false, false, 0, &w, &load).expect("direction")
        );
        assert_ne!(
            sig,
            admission_sig("NAND2X1", 0, 0, true, false, 0, &w, &load).expect("cell")
        );
        // Non-finite loads are rejected exactly like SolveKey::new.
        let bad = Load {
            cground: f64::NAN,
            couplings: vec![],
        };
        assert!(admission_sig("INVX1", 0, 0, true, false, 0, &w, &bad).is_none());
    }

    #[test]
    fn cost_admission_learns_an_adaptive_floor() {
        let cache = SolveCache::new();
        // Warm-up: everything is admitted while the mean is unreliable.
        for sig in 0..ADMISSION_WARMUP {
            assert!(cache.admit_cost(sig, 100), "warm-up admits all");
            assert!(cache.wants(sig), "admitted sigs are wanted");
        }
        // Post warm-up, mean cost is 100: a solve below twice the mean
        // (cost 10, and even a mean-cost 100 one) must be skipped, an
        // expensive one (cost 400 >= 2x mean) admitted.
        assert!(!cache.admit_cost(9999, 10), "cheap solve skipped");
        assert!(!cache.wants(9999), "skipped sig stays unwanted");
        assert!(cache.admit_cost(7777, 400), "expensive solve admitted");
        assert!(cache.wants(7777));
        let s = cache.stats();
        assert_eq!(s.admitted, ADMISSION_WARMUP + 1);
        assert_eq!(s.skipped, 1);
    }

    #[test]
    fn corner_keys_apart_even_with_identical_electrical_inputs() {
        let cache = SolveCache::new();
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        let load = Load {
            cground: 1e-15,
            couplings: vec![],
        };
        let k0 = SolveKey::new("INVX1", 0, 0, true, false, 0, &w, &load).expect("key");
        let k7 = SolveKey::new("INVX1", 0, 0, true, false, 7, &w, &load).expect("key");
        assert_ne!(k0, k7);
        assert_ne!(k0.admission_sig(), k7.admission_sig());
        cache.put(k0.clone(), w.clone());
        assert_eq!(
            cache.get(&k7),
            Lookup::Miss,
            "a solve stored at one corner must never serve another"
        );
        assert_eq!(cache.get(&k0), Lookup::Hit(w));
    }

    #[test]
    fn key_admission_sig_matches_the_streaming_signature() {
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        let load = Load {
            cground: 2e-15,
            couplings: vec![Coupling::new(1e-15, CouplingMode::Active)],
        };
        let streamed = admission_sig("NAND2X1", 1, 0, false, true, 7, &w, &load).expect("finite");
        let key = SolveKey::new("NAND2X1", 1, 0, false, true, 7, &w, &load).expect("finite");
        assert_eq!(
            key.admission_sig(),
            streamed,
            "a replayed key must re-earn the identical admission signature"
        );
    }

    #[test]
    fn journal_records_inserts_but_not_preloads() {
        let cache = SolveCache::new();
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        cache.put(key(1, 1e-15), w.clone());
        cache.put(key(2, 1e-15), w.clone());
        let drained = cache.drain_journal();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, key(1, 1e-15));
        assert!(
            cache.drain_journal().is_empty(),
            "drain empties the journal"
        );
        // Preloads are not journaled — they came from disk to begin with.
        cache.preload(key(3, 1e-15), w);
        assert!(cache.drain_journal().is_empty());
    }

    #[test]
    fn preload_is_looked_up_even_under_cost_admission() {
        let cache = SolveCache::new();
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        let k = key(0, 1e-15);
        assert!(
            !cache.wants(k.admission_sig()),
            "nothing admitted on a fresh cache"
        );
        cache.preload(k.clone(), w.clone());
        assert!(
            cache.wants(k.admission_sig()),
            "preload must re-admit the signature or the entry is dead weight"
        );
        assert_eq!(cache.get(&k), Lookup::Hit(w));
    }

    #[test]
    fn capacity_eviction_clears_full_shards() {
        let cache = SolveCache::with_capacity(SHARDS); // one entry per shard
        let w = Waveform::ramp(0.0, 1e-9, 0.0, 3.3).expect("ramp");
        for i in 0..64 {
            cache.put(key(i, 1e-15), w.clone());
        }
        assert!(cache.stats().evictions > 0);
        assert!(cache.len() <= SHARDS);
    }
}
