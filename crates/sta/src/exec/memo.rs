//! Per-stage exact-match solve memo — the engine's one exact-match reuse
//! layer.
//!
//! Iterative refinement (§5.2) re-solves every stage once per pass, yet a
//! stage whose input cone did not change between passes sees bit-identical
//! inputs and would reproduce bit-identical outputs. The `ArcMemo` answers
//! those re-solves, and every repeat within one analyzer's lifetime: a
//! tiny per-stage table indexed directly by [`StageId`], compared against
//! *borrowed* inputs with zero allocation on both hit and miss. (A keyed
//! cache would pay a heap-allocated key per lookup — measurably slower
//! than re-solving for the cheap shallow stages that dominate hit counts,
//! DESIGN D7 — so only a store-backed daemon keeps one,
//! [`super::cache::SolveCache`], for what outlives an analyzer.)
//!
//! Correctness rests on two invariants:
//!
//! - **Exact matching.** An entry stores the canonical bit patterns
//!   ([`canon_bits`]) of the input waveform and load; a lookup compares
//!   them bitwise. A stage solve is a pure function of those inputs, so any
//!   matching entry holds exactly the waveform the solver would produce —
//!   regardless of which pass, mode or analysis stored it. No pass
//!   bookkeeping is needed.
//! - **Stage-index stability.** Entries are keyed by position in the
//!   current [`crate::graph::TimingGraph`]; replacing the graph (ECO apply
//!   or rollback) reassigns indices, so the owner must [`ArcMemo::clear`]
//!   the memo then.
//!   (The daemon's keyed cache survives rebuilds because it keys cell
//!   *names*.)
//!
//! Determinism: a given stage's solves all run inside that stage's single
//! wavefront task (or the serial loop), so the per-stage sequence of
//! lookups and stores — and therefore the hit counts reported in
//! [`crate::report::ModeReport`] — is identical under serial and threaded
//! execution.

use std::sync::{Mutex, RwLock};

use xtalk_wave::signature::canon_bits;
use xtalk_wave::stage::Load;
use xtalk_wave::Waveform;

use crate::graph::StageId;

/// Entries retained per stage; oldest-first eviction beyond this. An arc
/// contributes at most a couple of entries per refinement pass that changed
/// its inputs, so 64 comfortably covers the passes-to-convergence range
/// seen in practice while bounding memory at ECO scale.
const PER_STAGE_CAP: usize = 64;

/// One memoized solve of one stage arc.
struct MemoEntry {
    /// Switching input slot.
    slot: u32,
    /// Position of this solve within its arc evaluation (one-step solves
    /// each arc twice: the grounded trial then the active solve).
    ordinal: u8,
    /// Bit 0: output rising; bit 1: earliest (min-delay side values).
    flags: u8,
    /// PVT corner signature of the process the solve ran at (0 = base
    /// process). Scenario runs share one executor across corners over one
    /// graph, so even the per-stage memo must key the corner or a
    /// bit-identical input at a different corner would be cross-served.
    corner: u64,
    /// Canonical bit pairs of the input waveform's points.
    wave_pts: Vec<(u64, u64)>,
    /// Canonical bits of the grounded load capacitance.
    cground: u64,
    /// Canonical bits + treatment byte of each coupling cap, in load order.
    couplings: Vec<(u64, u8)>,
    /// The solve result.
    out: Waveform,
}

impl MemoEntry {
    fn matches(
        &self,
        slot: u32,
        ordinal: u8,
        flags: u8,
        corner: u64,
        in_wave: &Waveform,
        load: &Load,
    ) -> bool {
        self.slot == slot
            && self.ordinal == ordinal
            && self.flags == flags
            && self.corner == corner
            && self.cground == canon_bits(load.cground)
            && self.wave_pts.len() == in_wave.points().len()
            && self.couplings.len() == load.couplings.len()
            && self
                .wave_pts
                .iter()
                .zip(in_wave.points())
                .all(|(&(bt, bv), &(t, v))| bt == canon_bits(t) && bv == canon_bits(v))
            && self
                .couplings
                .iter()
                .zip(&load.couplings)
                .all(|(&(bc, bm), c)| {
                    bc == canon_bits(c.c) && bm == super::cache::mode_byte(c.mode)
                })
    }
}

#[derive(Default)]
struct StageMemo {
    entries: Vec<MemoEntry>,
}

/// The per-stage solve memo. See the module docs for the contract.
pub(crate) struct ArcMemo {
    enabled: bool,
    slots: RwLock<Vec<Mutex<StageMemo>>>,
}

impl ArcMemo {
    pub(crate) fn new(enabled: bool) -> Self {
        ArcMemo {
            enabled,
            slots: RwLock::new(Vec::new()),
        }
    }

    /// Grows the table to cover `n_stages` stages. Called at the top of
    /// every pass; the read-lock fast path makes the steady state free.
    pub(crate) fn ensure(&self, n_stages: usize) {
        if !self.enabled {
            return;
        }
        if rlock(&self.slots).len() >= n_stages {
            return;
        }
        let mut slots = wlock(&self.slots);
        while slots.len() < n_stages {
            slots.push(Mutex::new(StageMemo::default()));
        }
    }

    /// Looks up a solve of stage `si` against borrowed inputs; allocation
    /// only happens on a hit (the returned waveform clone).
    // The argument list *is* the solve identity; bundling it into a struct
    // would just rename the same eight fields at the only call site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get(
        &self,
        si: StageId,
        slot: usize,
        ordinal: u8,
        out_rising: bool,
        earliest: bool,
        corner: u64,
        in_wave: &Waveform,
        load: &Load,
    ) -> Option<Waveform> {
        if !self.enabled {
            return None;
        }
        let flags = u8::from(out_rising) | (u8::from(earliest) << 1);
        let slots = rlock(&self.slots);
        let memo = lock(slots.get(si.index())?);
        memo.entries
            .iter()
            .find(|e| e.matches(slot as u32, ordinal, flags, corner, in_wave, load))
            .map(|e| e.out.clone())
    }

    /// Stores a solve result for stage `si`, evicting oldest-first past the
    /// per-stage cap. The caller guarantees `out` is the exact solver
    /// output for these inputs (never a degraded fallback or a faulted
    /// solve — those must bypass the memo entirely).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put(
        &self,
        si: StageId,
        slot: usize,
        ordinal: u8,
        out_rising: bool,
        earliest: bool,
        corner: u64,
        in_wave: &Waveform,
        load: &Load,
        out: Waveform,
    ) {
        if !self.enabled {
            return;
        }
        if !load.cground.is_finite() || load.couplings.iter().any(|c| !c.c.is_finite()) {
            return; // no canonical encoding; mirrors SolveKey::new
        }
        let slots = rlock(&self.slots);
        let Some(cell) = slots.get(si.index()) else {
            return;
        };
        let mut memo = lock(cell);
        if memo.entries.len() >= PER_STAGE_CAP {
            memo.entries.remove(0);
        }
        memo.entries.push(MemoEntry {
            slot: slot as u32,
            ordinal,
            flags: u8::from(out_rising) | (u8::from(earliest) << 1),
            corner,
            wave_pts: in_wave.canon_points(),
            cground: canon_bits(load.cground),
            couplings: load
                .couplings
                .iter()
                .map(|c| (canon_bits(c.c), super::cache::mode_byte(c.mode)))
                .collect(),
            out,
        });
    }

    /// Drops every entry. Mandatory whenever the graph is replaced:
    /// entries are keyed by stage index, which a new graph reassigns.
    pub(crate) fn clear(&self) {
        for cell in rlock(&self.slots).iter() {
            lock(cell).entries.clear();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn rlock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wlock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_wave::stage::{Coupling, CouplingMode};

    fn wave(end: f64) -> Waveform {
        Waveform::ramp(0.0, end, 0.0, 3.3).expect("ramp")
    }

    fn load(cg: f64) -> Load {
        Load {
            cground: cg,
            couplings: vec![Coupling::new(1e-15, CouplingMode::Active)],
        }
    }

    #[test]
    fn exact_match_hits_and_dimension_misses() {
        let memo = ArcMemo::new(true);
        memo.ensure(4);
        let si = StageId(2);
        let w = wave(1e-9);
        let out = wave(2e-9);
        memo.put(si, 0, 0, true, false, 0, &w, &load(2e-15), out.clone());
        assert_eq!(
            memo.get(si, 0, 0, true, false, 0, &w, &load(2e-15)),
            Some(out),
            "exact inputs hit"
        );
        assert!(memo
            .get(si, 1, 0, true, false, 0, &w, &load(2e-15))
            .is_none());
        assert!(memo
            .get(si, 0, 1, true, false, 0, &w, &load(2e-15))
            .is_none());
        assert!(memo
            .get(si, 0, 0, false, false, 0, &w, &load(2e-15))
            .is_none());
        assert!(memo
            .get(si, 0, 0, true, true, 0, &w, &load(2e-15))
            .is_none());
        assert!(memo
            .get(si, 0, 0, true, false, 0, &w, &load(3e-15))
            .is_none());
        assert!(memo
            .get(si, 0, 0, true, false, 0, &wave(2e-9), &load(2e-15))
            .is_none());
        assert!(
            memo.get(StageId(3), 0, 0, true, false, 0, &w, &load(2e-15))
                .is_none(),
            "entries are per stage"
        );
    }

    #[test]
    fn corner_is_part_of_the_match() {
        let memo = ArcMemo::new(true);
        memo.ensure(1);
        let si = StageId(0);
        let w = wave(1e-9);
        let out = wave(2e-9);
        memo.put(si, 0, 0, true, false, 7, &w, &load(2e-15), out.clone());
        assert_eq!(
            memo.get(si, 0, 0, true, false, 7, &w, &load(2e-15)),
            Some(out)
        );
        assert!(
            memo.get(si, 0, 0, true, false, 0, &w, &load(2e-15))
                .is_none(),
            "bit-identical inputs at another corner must miss"
        );
    }

    #[test]
    fn cap_evicts_oldest_first() {
        let memo = ArcMemo::new(true);
        memo.ensure(1);
        let si = StageId(0);
        let out = wave(2e-9);
        for i in 0..(PER_STAGE_CAP + 5) {
            let w = wave(1e-9 + i as f64 * 1e-12);
            memo.put(si, 0, 0, true, false, 0, &w, &load(2e-15), out.clone());
        }
        // The first five entries were evicted; the last ones survive.
        assert!(memo
            .get(si, 0, 0, true, false, 0, &wave(1e-9), &load(2e-15))
            .is_none());
        let last = wave(1e-9 + (PER_STAGE_CAP + 4) as f64 * 1e-12);
        assert!(memo
            .get(si, 0, 0, true, false, 0, &last, &load(2e-15))
            .is_some());
    }

    #[test]
    fn disabled_and_cleared_memos_never_hit() {
        let off = ArcMemo::new(false);
        off.ensure(1);
        let w = wave(1e-9);
        off.put(
            StageId(0),
            0,
            0,
            true,
            false,
            0,
            &w,
            &load(2e-15),
            w.clone(),
        );
        assert!(off
            .get(StageId(0), 0, 0, true, false, 0, &w, &load(2e-15))
            .is_none());

        let on = ArcMemo::new(true);
        on.ensure(1);
        on.put(
            StageId(0),
            0,
            0,
            true,
            false,
            0,
            &w,
            &load(2e-15),
            w.clone(),
        );
        on.clear();
        assert!(on
            .get(StageId(0), 0, 0, true, false, 0, &w, &load(2e-15))
            .is_none());
    }

    #[test]
    fn non_finite_loads_are_never_stored() {
        let memo = ArcMemo::new(true);
        memo.ensure(1);
        let w = wave(1e-9);
        let bad = Load {
            cground: f64::NAN,
            couplings: vec![],
        };
        memo.put(StageId(0), 0, 0, true, false, 0, &w, &bad, w.clone());
        assert!(memo
            .get(StageId(0), 0, 0, true, false, 0, &w, &bad)
            .is_none());
    }
}
