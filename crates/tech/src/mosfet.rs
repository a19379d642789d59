//! Analytical MOSFET DC model (alpha-power law with sub-threshold region).
//!
//! This is the "golden" device model of the technology. It is *sampled* into
//! [`crate::table::DeviceTable`]s which are what the timing engine and the
//! transient simulator actually evaluate — mirroring the paper's §3 choice of
//! a table-based transistor representation (after Dartu & Pileggi's TETA).
//!
//! The strong-inversion part follows the Sakurai–Newton alpha-power law,
//! which captures velocity saturation in short-channel devices:
//!
//! ```text
//! Vgst   = Vgs - Vth
//! Idsat  = (W / Leff) * (Pc / 2) * Vgst^alpha          (per device)
//! Vdsat  = Pv * Vgst^(alpha / 2)
//! Id     = Idsat * (2 - Vds/Vdsat) * (Vds/Vdsat)       Vds <  Vdsat (linear)
//! Id     = Idsat * (1 + lambda * Vds)                  Vds >= Vdsat (saturation)
//! ```
//!
//! Below threshold the drain current decays exponentially with the usual
//! `exp(Vgst / (n * vT))` slope. The paper explicitly notes that the
//! sub-threshold region is why the coupling-model restart voltage must be
//! chosen *below* the device threshold (0.2 V vs. 0.6 V) — so the model here
//! keeps a smooth, non-zero sub-threshold current.
//!
//! ```
//! use xtalk_tech::mosfet::{DeviceType, MosfetParams};
//!
//! let nmos = MosfetParams::nmos_05um();
//! let strong = nmos.drain_current(3.3, 3.3, 2.0e-6);
//! let weak = nmos.drain_current(0.3, 3.3, 2.0e-6);
//! assert!(strong > 1e-4);          // hundreds of microamps
//! assert!(weak < strong * 1e-3);   // sub-threshold is orders weaker
//! ```

/// Thermal voltage kT/q at 300 K, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Polarity of a MOS device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceType {
    /// N-channel device (pull-down networks).
    Nmos,
    /// P-channel device (pull-up networks).
    Pmos,
}

impl DeviceType {
    /// Returns the complementary device type.
    ///
    /// ```
    /// use xtalk_tech::mosfet::DeviceType;
    /// assert_eq!(DeviceType::Nmos.complement(), DeviceType::Pmos);
    /// ```
    pub fn complement(self) -> DeviceType {
        match self {
            DeviceType::Nmos => DeviceType::Pmos,
            DeviceType::Pmos => DeviceType::Nmos,
        }
    }
}

impl std::fmt::Display for DeviceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceType::Nmos => write!(f, "nmos"),
            DeviceType::Pmos => write!(f, "pmos"),
        }
    }
}

/// Alpha-power-law parameters of one device polarity.
///
/// All voltages are magnitudes: for a PMOS the caller passes `Vsg` / `Vsd`
/// (source-referenced, positive when the device conducts), so one set of
/// equations serves both polarities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Device polarity this parameter set describes.
    pub device: DeviceType,
    /// Threshold voltage magnitude, volts.
    pub vth: f64,
    /// Velocity-saturation exponent (2.0 = long channel, ~1.2 = very short).
    pub alpha: f64,
    /// Drive-strength coefficient, A / V^alpha for a W/Leff ratio of 1.
    pub pc: f64,
    /// Saturation-voltage coefficient, V^(1 - alpha/2).
    pub pv: f64,
    /// Channel-length-modulation coefficient, 1/V.
    pub lambda: f64,
    /// Effective channel length, metres.
    pub leff: f64,
    /// Sub-threshold leakage scale at `Vgs == Vth`, A for W/Leff of 1.
    pub i0: f64,
    /// Sub-threshold slope factor `n` (swing = n * vT * ln 10).
    pub n_sub: f64,
}

impl MosfetParams {
    /// NMOS parameters for the generic 0.5 µm process.
    ///
    /// Calibrated so a minimum-length device drives roughly 420 µA per µm of
    /// width at `Vgs = Vds = 3.3 V`, which is representative of mid-90s
    /// half-micron CMOS.
    pub fn nmos_05um() -> Self {
        MosfetParams {
            device: DeviceType::Nmos,
            vth: 0.6,
            alpha: 1.3,
            pc: 1.16e-4,
            pv: 0.78,
            lambda: 0.05,
            leff: 0.5e-6,
            i0: 5.0e-8,
            n_sub: 1.5,
        }
    }

    /// PMOS parameters for the generic 0.5 µm process (about half the NMOS
    /// drive per width, as hole mobility dictates).
    pub fn pmos_05um() -> Self {
        MosfetParams {
            device: DeviceType::Pmos,
            vth: 0.6,
            alpha: 1.4,
            pc: 5.5e-5,
            pv: 0.85,
            lambda: 0.05,
            leff: 0.5e-6,
            i0: 2.0e-8,
            n_sub: 1.5,
        }
    }

    /// Drain current for terminal voltages referenced so the device conducts
    /// with positive `vds` (i.e. pass `Vgs, Vds` for NMOS and `Vsg, Vsd` for
    /// PMOS).
    ///
    /// Negative `vds` is handled by the MOS source/drain symmetry
    /// `Id(Vgs, Vds) = -Id(Vgs - Vds, -Vds)`.
    ///
    /// `width` is the drawn gate width in metres; current scales linearly
    /// with `width / leff`.
    pub fn drain_current(&self, vgs: f64, vds: f64, width: f64) -> f64 {
        if vds < 0.0 {
            return -self.drain_current(vgs - vds, -vds, width);
        }
        let wl = width / self.leff;
        let vgst = vgs - self.vth;

        // Sub-threshold component: exponential below Vth, saturating at i0
        // above it (the strong-inversion term dominates there anyway).
        let sub_arg = (vgst.min(0.0)) / (self.n_sub * THERMAL_VOLTAGE);
        let i_sub = wl * self.i0 * sub_arg.exp() * (1.0 - (-vds / THERMAL_VOLTAGE).exp());

        if vgst <= 0.0 {
            return i_sub;
        }

        let idsat = wl * 0.5 * self.pc * vgst.powf(self.alpha);
        let vdsat = self.pv * vgst.powf(self.alpha * 0.5);
        let i_strong = if vds < vdsat {
            let x = vds / vdsat;
            idsat * (2.0 - x) * x * (1.0 + self.lambda * vds)
        } else {
            idsat * (1.0 + self.lambda * vds)
        };
        i_strong + i_sub
    }

    /// Saturation drain voltage for the given gate overdrive (0 below
    /// threshold).
    pub fn vdsat(&self, vgs: f64) -> f64 {
        let vgst = vgs - self.vth;
        if vgst <= 0.0 {
            0.0
        } else {
            self.pv * vgst.powf(self.alpha * 0.5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UM: f64 = 1.0e-6;

    #[test]
    fn nmos_drive_strength_plausible_for_05um() {
        let n = MosfetParams::nmos_05um();
        let per_um = n.drain_current(3.3, 3.3, UM) / UM * 1e-6; // A per um
                                                                // 0.5um NMOS: 300..600 uA/um is the plausible band.
        assert!(per_um > 300e-6 && per_um < 600e-6, "got {per_um}");
    }

    #[test]
    fn pmos_weaker_than_nmos() {
        let n = MosfetParams::nmos_05um();
        let p = MosfetParams::pmos_05um();
        let idn = n.drain_current(3.3, 3.3, UM);
        let idp = p.drain_current(3.3, 3.3, UM);
        assert!(idp < idn);
        assert!(idp > 0.25 * idn, "PMOS should not be absurdly weak");
    }

    #[test]
    fn zero_vds_zero_current() {
        let n = MosfetParams::nmos_05um();
        assert_eq!(n.drain_current(3.3, 0.0, UM), 0.0);
        assert_eq!(n.drain_current(0.0, 0.0, UM), 0.0);
    }

    #[test]
    fn current_monotone_in_vgs() {
        let n = MosfetParams::nmos_05um();
        let mut prev = -1.0;
        for i in 0..34 {
            let vgs = i as f64 * 0.1;
            let id = n.drain_current(vgs, 3.3, UM);
            assert!(id >= prev, "Ids must not decrease with Vgs");
            prev = id;
        }
    }

    #[test]
    fn current_monotone_in_vds() {
        let n = MosfetParams::nmos_05um();
        let mut prev = -1.0;
        for i in 0..34 {
            let vds = i as f64 * 0.1;
            let id = n.drain_current(2.0, vds, UM);
            assert!(
                id >= prev,
                "Ids must not decrease with Vds, got {id} < {prev}"
            );
            prev = id;
        }
    }

    #[test]
    fn linear_saturation_continuity() {
        let n = MosfetParams::nmos_05um();
        let vgs = 2.5;
        let vdsat = n.vdsat(vgs);
        let lo = n.drain_current(vgs, vdsat - 1e-6, UM);
        let hi = n.drain_current(vgs, vdsat + 1e-6, UM);
        assert!((lo - hi).abs() / hi < 1e-3, "kink at vdsat: {lo} vs {hi}");
    }

    #[test]
    fn symmetry_for_negative_vds() {
        let n = MosfetParams::nmos_05um();
        let fwd = n.drain_current(2.0 + 1.0, 1.0, UM);
        let rev = n.drain_current(2.0, -1.0, UM);
        assert!((fwd + rev).abs() < 1e-12, "Id(Vgs,Vds) = -Id(Vgs-Vds,-Vds)");
    }

    #[test]
    fn subthreshold_is_exponential() {
        let n = MosfetParams::nmos_05um();
        let i1 = n.drain_current(0.5, 3.3, UM);
        let i2 = n.drain_current(0.4, 3.3, UM);
        let ratio = i1 / i2;
        let expect = (0.1 / (n.n_sub * THERMAL_VOLTAGE)).exp();
        assert!((ratio / expect - 1.0).abs() < 0.05);
    }

    #[test]
    fn current_scales_linearly_with_width() {
        let n = MosfetParams::nmos_05um();
        let i1 = n.drain_current(3.3, 1.5, UM);
        let i2 = n.drain_current(3.3, 1.5, 2.0 * UM);
        assert!((i2 / i1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn device_type_complement_and_display() {
        assert_eq!(DeviceType::Pmos.complement(), DeviceType::Nmos);
        assert_eq!(DeviceType::Nmos.to_string(), "nmos");
        assert_eq!(DeviceType::Pmos.to_string(), "pmos");
    }
}
