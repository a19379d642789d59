//! Process description: supply, thresholds, device tables, wire parasitics.
//!
//! [`Process`] is the single object the rest of the analyzer needs to know
//! about a technology. [`Process::c05um`] builds a generic 0.5 µm, 3.3 V,
//! two-metal-layer process consistent with the paper's experimental setup
//! (ISCAS89 circuits "routed in a 0.5 µm process technology with two metal
//! layers", transistor threshold 0.6 V, coupling-model threshold 0.2 V).

use crate::corner::Corner;
use crate::mosfet::{DeviceType, MosfetParams};
use crate::table::DeviceTable;

/// Electrical description of one routing layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTech {
    /// Layer name ("M1", "M2", ...).
    pub name: String,
    /// Routing track pitch in metres (width + spacing).
    pub pitch: f64,
    /// Minimum wire width in metres.
    pub width: f64,
    /// Wire resistance per metre of minimum-width wire, ohms/m.
    pub r_per_m: f64,
    /// Wire capacitance to ground (area + fringe) per metre, farads/m.
    pub c_per_m: f64,
    /// Coupling capacitance per metre of parallel run to an adjacent track
    /// at minimum spacing, farads/m.
    pub cc_per_m: f64,
}

/// A complete process technology.
///
/// Everything downstream — cell library sizing, parasitic extraction, the
/// waveform engine, the transient simulator — reads its constants from here,
/// so an analysis is reproducible from (netlist, seed, process).
#[derive(Debug, Clone)]
pub struct Process {
    /// Human-readable process name.
    pub name: String,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Restart/quiescence threshold of the coupling model (paper §2: 0.2 V,
    /// deliberately below the 0.6 V device threshold to stay clear of
    /// sub-threshold conduction effects).
    pub coupling_vth: f64,
    /// Fraction of `vdd` where delays are measured (0.5).
    pub delay_threshold_frac: f64,
    /// Lower slew measurement fraction (0.1).
    pub slew_lo_frac: f64,
    /// Upper slew measurement fraction (0.9).
    pub slew_hi_frac: f64,
    /// Default transition time assumed on primary inputs, seconds.
    pub default_input_slew: f64,
    /// Gate-oxide capacitance per area, F/m^2 (for input pin caps).
    pub cox_per_area: f64,
    /// Source/drain diffusion capacitance per metre of device width, F/m
    /// (loads the driving stage's own output).
    pub cdiff_per_m: f64,
    /// Standard-cell row height, metres (placement).
    pub row_height: f64,
    /// Standard-cell placement site width, metres.
    pub site_width: f64,
    /// Routing layers, index 0 = M1 (horizontal), 1 = M2 (vertical).
    pub layers: Vec<LayerTech>,
    nmos: MosfetParams,
    pmos: MosfetParams,
    nmos_table: DeviceTable,
    pmos_table: DeviceTable,
    /// CLI name of the corner this process was derived at (`"base"` for the
    /// nominal, corner-less process).
    corner_name: String,
    /// Stable corner signature for cache/grid/store keys; `0` is reserved
    /// for the base process.
    corner_sig: u64,
}

impl Process {
    /// Builds the generic 0.5 µm / 3.3 V / two-metal process used throughout
    /// the reproduction.
    ///
    /// ```
    /// let p = xtalk_tech::Process::c05um();
    /// assert_eq!(p.vdd, 3.3);
    /// assert_eq!(p.coupling_vth, 0.2);
    /// assert_eq!(p.layers.len(), 2);
    /// ```
    pub fn c05um() -> Self {
        let vdd = 3.3;
        let nmos = MosfetParams::nmos_05um();
        let pmos = MosfetParams::pmos_05um();
        // 129 samples per axis: "fine discretization" so plain Newton
        // converges (paper §3).
        let nmos_table = DeviceTable::from_params(&nmos, vdd, 129);
        let pmos_table = DeviceTable::from_params(&pmos, vdd, 129);
        Process {
            name: "generic-0.5um-2LM".to_string(),
            vdd,
            coupling_vth: 0.2,
            delay_threshold_frac: 0.5,
            slew_lo_frac: 0.1,
            slew_hi_frac: 0.9,
            default_input_slew: 0.2e-9,
            cox_per_area: 3.45e-3,
            cdiff_per_m: 1.0e-9,
            row_height: 12.0e-6,
            site_width: 3.0e-6,
            layers: vec![
                LayerTech {
                    name: "M1".to_string(),
                    pitch: 1.6e-6,
                    width: 0.8e-6,
                    r_per_m: 8.75e4,
                    c_per_m: 1.5e-10,
                    cc_per_m: 5.0e-11,
                },
                LayerTech {
                    name: "M2".to_string(),
                    pitch: 1.8e-6,
                    width: 0.9e-6,
                    r_per_m: 6.0e4,
                    c_per_m: 1.3e-10,
                    cc_per_m: 4.5e-11,
                },
            ],
            nmos,
            pmos,
            nmos_table,
            pmos_table,
            corner_name: "base".to_string(),
            corner_sig: 0,
        }
    }

    /// Derives the process at a PVT [`Corner`]: scaled supply, scaled
    /// device parameters, device tables re-sampled at the scaled supply,
    /// and a coupling threshold that tracks the supply.
    ///
    /// Capacitance constants (`cox_per_area`, `cdiff_per_m`, wire layers)
    /// are deliberately corner-invariant in this model — corners move
    /// drive strength and voltage, not geometry — so the cell library,
    /// pin capacitances and the timing-graph structure built from them are
    /// shared across all corners of one analysis; only node voltages and
    /// device currents differ.
    ///
    /// ```
    /// use xtalk_tech::{Corner, Process};
    /// let ss = Process::c05um().corner(&Corner::ss());
    /// assert!(ss.vdd < 3.3);
    /// assert_ne!(ss.corner_sig(), 0);
    /// ```
    #[must_use]
    pub fn corner(&self, corner: &Corner) -> Process {
        let vdd = self.vdd * corner.vdd_scale;
        let pc_scale = corner.class.pc_scale() * corner.temp_derate;
        let vth_scale = corner.class.vth_scale();
        let mut nmos = self.nmos;
        nmos.pc *= pc_scale;
        nmos.vth *= vth_scale;
        let mut pmos = self.pmos;
        pmos.pc *= pc_scale;
        pmos.vth *= vth_scale;
        let nmos_table = DeviceTable::from_params(&nmos, vdd, 129);
        let pmos_table = DeviceTable::from_params(&pmos, vdd, 129);
        Process {
            name: format!("{}@{}", self.name, corner.name),
            vdd,
            // The restart/quiescence threshold is a fraction of the rail in
            // the paper's model; keep that fraction across corners.
            coupling_vth: self.coupling_vth * corner.vdd_scale,
            nmos,
            pmos,
            nmos_table,
            pmos_table,
            corner_name: corner.name.clone(),
            corner_sig: corner.sig(),
            ..self.clone()
        }
    }

    /// CLI name of the corner this process represents (`"base"` when the
    /// process was not derived from a corner).
    pub fn corner_name(&self) -> &str {
        &self.corner_name
    }

    /// Stable corner signature for cache, macromodel-grid and store keys.
    /// `0` for the base (corner-less) process; every named corner maps to a
    /// distinct non-zero value.
    pub fn corner_sig(&self) -> u64 {
        self.corner_sig
    }

    /// The analytical parameters of the requested device polarity.
    pub fn params(&self, device: DeviceType) -> &MosfetParams {
        match device {
            DeviceType::Nmos => &self.nmos,
            DeviceType::Pmos => &self.pmos,
        }
    }

    /// The sampled lookup table of the requested device polarity.
    pub fn table(&self, device: DeviceType) -> &DeviceTable {
        match device {
            DeviceType::Nmos => &self.nmos_table,
            DeviceType::Pmos => &self.pmos_table,
        }
    }

    /// Absolute voltage at which delays are measured (`vdd / 2` by default).
    pub fn delay_threshold(&self) -> f64 {
        self.delay_threshold_frac * self.vdd
    }

    /// Absolute `(low, high)` voltages between which transition times are
    /// measured.
    pub fn slew_thresholds(&self) -> (f64, f64) {
        (self.slew_lo_frac * self.vdd, self.slew_hi_frac * self.vdd)
    }

    /// Input capacitance of a gate terminal of the given geometry.
    pub fn gate_cap(&self, width: f64, length: f64) -> f64 {
        self.cox_per_area * width * length
    }

    /// Diffusion capacitance contributed to an output node by a device of
    /// the given width.
    pub fn diffusion_cap(&self, width: f64) -> f64 {
        self.cdiff_per_m * width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c05um_sanity() {
        let p = Process::c05um();
        assert_eq!(p.vdd, 3.3);
        assert_eq!(p.coupling_vth, 0.2);
        assert!(p.coupling_vth < p.params(DeviceType::Nmos).vth);
        assert_eq!(p.layers.len(), 2);
        assert!((p.delay_threshold() - 1.65).abs() < 1e-12);
        let (lo, hi) = p.slew_thresholds();
        assert!(lo < hi && hi < p.vdd);
    }

    #[test]
    fn tables_match_polarity() {
        let p = Process::c05um();
        assert_eq!(p.table(DeviceType::Nmos).params().device, DeviceType::Nmos);
        assert_eq!(p.table(DeviceType::Pmos).params().device, DeviceType::Pmos);
    }

    #[test]
    fn gate_cap_plausible() {
        let p = Process::c05um();
        // 2um x 0.5um gate: a few femtofarads.
        let c = p.gate_cap(2.0e-6, 0.5e-6);
        assert!(c > 1.0e-15 && c < 10.0e-15, "got {c}");
    }

    #[test]
    fn diffusion_cap_scales_with_width() {
        let p = Process::c05um();
        let c1 = p.diffusion_cap(2.0e-6);
        let c2 = p.diffusion_cap(4.0e-6);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn corner_scales_supply_devices_and_thresholds() {
        let base = Process::c05um();
        let ss = base.corner(&Corner::ss());
        assert!((ss.vdd - 3.3 * 0.9).abs() < 1e-12);
        assert!((ss.coupling_vth - 0.2 * 0.9).abs() < 1e-12);
        // Slow + hot: weaker drive, higher threshold.
        let (bn, sn) = (base.params(DeviceType::Nmos), ss.params(DeviceType::Nmos));
        assert!((sn.pc - bn.pc * 0.85 * 0.92).abs() < 1e-18);
        assert!((sn.vth - bn.vth * 1.1).abs() < 1e-12);
        // Tables are re-sampled at the scaled rail: full-drive current drops.
        let ids_base = base.table(DeviceType::Nmos).ids(base.vdd, base.vdd, 2.0e-6);
        let ids_ss = ss.table(DeviceType::Nmos).ids(ss.vdd, ss.vdd, 2.0e-6);
        assert!(ids_ss < ids_base);
        let ff = base.corner(&Corner::ff());
        let ids_ff = ff.table(DeviceType::Nmos).ids(ff.vdd, ff.vdd, 2.0e-6);
        assert!(ids_ff > ids_base);
        // Capacitances and wire constants are corner-invariant by design.
        assert_eq!(ss.cox_per_area, base.cox_per_area);
        assert_eq!(ss.cdiff_per_m, base.cdiff_per_m);
        assert_eq!(ss.layers, base.layers);
        assert_eq!(ss.corner_name(), "ss");
        assert_ne!(ss.corner_sig(), 0);
        assert_eq!(base.corner_name(), "base");
        assert_eq!(base.corner_sig(), 0);
    }

    #[test]
    fn tt_corner_matches_base_numerically_but_not_by_signature() {
        let base = Process::c05um();
        let tt = base.corner(&Corner::tt());
        assert_eq!(tt.vdd.to_bits(), base.vdd.to_bits());
        let (bn, tn) = (base.params(DeviceType::Nmos), tt.params(DeviceType::Nmos));
        assert_eq!(bn.pc.to_bits(), tn.pc.to_bits());
        assert_eq!(bn.vth.to_bits(), tn.vth.to_bits());
        // ... but tt is still a distinct corner for every keyed layer.
        assert_ne!(tt.corner_sig(), base.corner_sig());
    }

    #[test]
    fn corner_derivation_is_deterministic() {
        let base = Process::c05um();
        let a = base.corner(&Corner::ss());
        let b = base.corner(&Corner::ss());
        assert_eq!(a.vdd.to_bits(), b.vdd.to_bits());
        assert_eq!(a.corner_sig(), b.corner_sig());
        assert_eq!(
            a.params(DeviceType::Pmos).pc.to_bits(),
            b.params(DeviceType::Pmos).pc.to_bits()
        );
    }

    #[test]
    fn wire_constants_plausible() {
        let p = Process::c05um();
        for layer in &p.layers {
            // 1 mm of wire: tens to hundreds of ohms, 100-200 fF.
            let r = layer.r_per_m * 1.0e-3;
            let c = layer.c_per_m * 1.0e-3;
            assert!(r > 10.0 && r < 1000.0, "{}: R/mm = {r}", layer.name);
            assert!(c > 50.0e-15 && c < 500.0e-15, "{}: C/mm = {c}", layer.name);
            assert!(layer.cc_per_m < layer.c_per_m);
            // Lateral coupling is roughly a third of the total wire cap at
            // average spacing in a two-metal 0.5um process.
            assert!(
                layer.cc_per_m > 0.15 * layer.c_per_m,
                "coupling must matter"
            );
        }
    }
}
