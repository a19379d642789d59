//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] selects a subset of stages (by a stable hash of the gate
//! name, seeded from configuration — never from the wall clock) and injects
//! one class of [`Fault`] at the engine's solver boundary. The harness is
//! compiled only under `cfg(any(test, feature = "fault-injection"))`; release
//! builds without the feature carry zero injection code.
//!
//! Determinism contract: the same `(fault, seed, denom)` plan on the same
//! design injects at exactly the same stages on every run, serial or
//! threaded — the property tests in `tests/robustness.rs` rely on it.

use xtalk_wave::StableHasher;

/// The injectable fault classes, mirroring the failure taxonomy of
/// [`crate::diag::FaultClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Replace the stage's ground load with NaN before the solve.
    NanLoad,
    /// Pretend the cell model is truncated (missing side value).
    TruncatedTable,
    /// Force the stage integrator to report a blown step budget.
    DivergentStage,
    /// Panic inside the stage task, mid-job.
    MidJobPanic,
    /// Corrupt the freshly inserted keyed solve-cache entry so its
    /// integrity checksum no longer matches (where a store-backed daemon
    /// attached a keyed cache; batch analyzers have none).
    PoisonedCache,
}

/// A deterministic, seeded plan: inject `fault` at every stage whose gate
/// name hashes into the selected residue class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    fault: Fault,
    seed: u64,
    denom: u64,
}

impl FaultPlan {
    /// A plan injecting `fault` at roughly one in `denom` stages, selected
    /// by a stable hash seeded with `seed`.
    #[must_use]
    pub fn new(fault: Fault, seed: u64, denom: u64) -> Self {
        FaultPlan {
            fault,
            seed,
            denom: denom.max(1),
        }
    }

    /// The injected fault class.
    #[must_use]
    pub fn fault(&self) -> Fault {
        self.fault
    }

    /// Whether this plan injects at the stage driven by `gate`.
    ///
    /// Pure function of `(seed, denom, gate)` — no global state, no clock.
    #[must_use]
    pub fn injects_at(&self, gate: &str) -> bool {
        let mut h = StableHasher::new();
        h.write_u64(self.seed);
        h.write_bytes(gate.as_bytes());
        h.finish().is_multiple_of(self.denom)
    }
}

/// The injectable service-layer (I/O) fault classes, exercising the
/// daemon's degrade-don't-die paths: framing, peers, the solve store, and
/// request bodies. Where [`Fault`] targets the solver boundary inside one
/// analysis, `ServeFault` targets the boundary between the daemon and the
/// outside world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeFault {
    /// Write only half of the response frame, then drop the connection —
    /// the peer sees a torn frame; the daemon must keep serving others.
    TornFrame,
    /// Stall the handler (as if the peer were drip-feeding its request)
    /// while it holds its in-flight slot, so admission control is what
    /// protects the other connections.
    StalledClient,
    /// Fail the write-behind journal append to the solve store — a full
    /// or failing disk costs persistence, never service.
    StoreWriteFail,
    /// Panic inside the request body, driving session quarantine.
    MidRequestPanic,
}

/// A deterministic, seeded plan over the daemon's request sequence:
/// inject `fault` at every request whose (daemon-lifetime) index hashes
/// into the selected residue class. The same `(fault, seed, denom)` plan
/// against the same request sequence injects at exactly the same
/// requests on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFaultPlan {
    fault: ServeFault,
    seed: u64,
    denom: u64,
}

impl ServeFaultPlan {
    /// A plan injecting `fault` at roughly one in `denom` requests,
    /// selected by a stable hash seeded with `seed`.
    #[must_use]
    pub fn new(fault: ServeFault, seed: u64, denom: u64) -> Self {
        ServeFaultPlan {
            fault,
            seed,
            denom: denom.max(1),
        }
    }

    /// The injected fault class.
    #[must_use]
    pub fn fault(&self) -> ServeFault {
        self.fault
    }

    /// Whether this plan injects at the request with daemon-lifetime
    /// index `request_index`. Pure function of `(seed, denom, index)`.
    #[must_use]
    pub fn injects_at(&self, request_index: u64) -> bool {
        let mut h = StableHasher::new();
        h.write_u64(self.seed);
        h.write_u64(request_index);
        h.finish().is_multiple_of(self.denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(Fault::NanLoad, 7, 3);
        let b = FaultPlan::new(Fault::NanLoad, 7, 3);
        let names = ["G1", "G2", "G3", "G10", "G17", "G22", "out_7"];
        for n in names {
            assert_eq!(a.injects_at(n), b.injects_at(n));
        }
        // A different seed selects a different subset (on enough names).
        let c = FaultPlan::new(Fault::NanLoad, 8, 3);
        assert!(
            names.iter().any(|n| a.injects_at(n) != c.injects_at(n)),
            "seed must perturb the selection"
        );
    }

    #[test]
    fn denom_one_injects_everywhere() {
        let p = FaultPlan::new(Fault::MidJobPanic, 0, 1);
        assert!(p.injects_at("anything"));
        assert!(p.injects_at(""));
    }

    #[test]
    fn serve_plan_is_deterministic_over_request_indices() {
        let a = ServeFaultPlan::new(ServeFault::TornFrame, 3, 4);
        let b = ServeFaultPlan::new(ServeFault::TornFrame, 3, 4);
        for i in 0..64 {
            assert_eq!(a.injects_at(i), b.injects_at(i));
        }
        assert!((0..64).any(|i| a.injects_at(i)), "denom 4 hits within 64");
        let every = ServeFaultPlan::new(ServeFault::MidRequestPanic, 0, 1);
        assert!(every.injects_at(0) && every.injects_at(17));
    }
}
