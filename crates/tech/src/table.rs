//! Table-based device evaluation (the paper's §3 DC model).
//!
//! A [`DeviceTable`] samples an analytical [`MosfetParams`] model onto a
//! uniform `(Vgs, Vds)` grid and answers current queries by bilinear
//! interpolation. Because the grid is fine ("Due to the fine discretization
//! of the tables we do not get convergence problems", §3) the classical
//! Newton iteration used by the waveform engine converges without the
//! successive-chord fallback of TETA.
//!
//! The table stores the current of a **1 µm wide** device; current scales
//! linearly with width, so one table per polarity serves the whole library.
//!
//! ```
//! use xtalk_tech::mosfet::MosfetParams;
//! use xtalk_tech::table::DeviceTable;
//!
//! let params = MosfetParams::nmos_05um();
//! let table = DeviceTable::from_params(&params, 3.3, 129);
//! let exact = params.drain_current(2.0, 1.0, 1.0e-6);
//! let approx = table.ids(2.0, 1.0, 1.0e-6);
//! assert!((approx - exact).abs() / exact < 0.01);
//! ```

use crate::mosfet::MosfetParams;

/// Reference width for which table entries are stored (1 µm).
pub const TABLE_REF_WIDTH: f64 = 1.0e-6;

/// A sampled `Ids(Vgs, Vds)` lookup table for one device polarity.
///
/// Queries outside the sampled voltage range are clamped to the table edge;
/// negative `Vds` uses the MOS symmetry relation, so callers can evaluate a
/// device in either orientation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTable {
    /// Parameters the table was sampled from (kept for diagnostics).
    params: MosfetParams,
    /// Upper voltage bound of both axes (lower bound is 0).
    vmax: f64,
    /// Number of samples along each axis (>= 2).
    n: usize,
    /// Grid spacing `vmax / (n - 1)`.
    step: f64,
    /// Row-major samples: `data[ig * n + id]` with `ig` the Vgs index.
    data: Vec<f64>,
}

impl DeviceTable {
    /// Samples `params` on an `n x n` grid covering `[0, vmax]` on both axes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `vmax <= 0`.
    pub fn from_params(params: &MosfetParams, vmax: f64, n: usize) -> Self {
        assert!(n >= 2, "table needs at least 2 samples per axis");
        assert!(vmax > 0.0, "vmax must be positive");
        let step = vmax / (n - 1) as f64;
        let mut data = Vec::with_capacity(n * n);
        for ig in 0..n {
            let vgs = ig as f64 * step;
            for id in 0..n {
                let vds = id as f64 * step;
                data.push(params.drain_current(vgs, vds, TABLE_REF_WIDTH));
            }
        }
        DeviceTable {
            params: *params,
            vmax,
            n,
            step,
            data,
        }
    }

    /// The analytical parameters this table was sampled from.
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// Upper voltage bound of the sampled grid.
    pub fn vmax(&self) -> f64 {
        self.vmax
    }

    /// Number of samples per axis.
    pub fn samples(&self) -> usize {
        self.n
    }

    /// Interpolated drain current for a device of the given `width` (metres).
    ///
    /// Both voltages are clamped into `[0, vmax]` after the symmetry fix-up
    /// for negative `vds`; `vgs` below zero clamps to the leakage row.
    #[inline]
    pub fn ids(&self, vgs: f64, vds: f64, width: f64) -> f64 {
        if vds < 0.0 {
            return -self.ids(vgs - vds, -vds, width);
        }
        self.lookup(vgs, vds) * (width / TABLE_REF_WIDTH)
    }

    /// Interpolated current together with its partial derivative with
    /// respect to `vds` — the conductance the Newton solver needs.
    ///
    /// The derivative of the bilinear patch is exact (piecewise constant in
    /// `vds` within a cell), which is smooth enough given the fine grid.
    #[inline]
    pub fn ids_and_gds(&self, vgs: f64, vds: f64, width: f64) -> (f64, f64) {
        if vds < 0.0 {
            // Id(vgs, vds) = -Id(vgs - vds, -vds)
            // d/dvds = dId/dvgs' * (-1) ... the cross terms make the exact
            // chain rule unwieldy; a centred finite difference on the fixed-up
            // axis is accurate and branch-free.
            let h = self.step * 0.5;
            let lo = self.ids(vgs, vds - h, width);
            let hi = self.ids(vgs, vds + h, width);
            return (self.ids(vgs, vds, width), (hi - lo) / (2.0 * h));
        }
        let scale = width / TABLE_REF_WIDTH;
        let (i, g) = self.lookup_with_slope(vgs, vds);
        (i * scale, g * scale)
    }

    /// Interpolated current with both partial derivatives
    /// `(Ids, dIds/dVgs, dIds/dVds)` for a device of the given `width`.
    ///
    /// Negative `vds` is handled through the MOS symmetry relation with the
    /// chain rule applied to the derivatives, so network solvers can evaluate
    /// devices in either orientation.
    #[inline]
    pub fn derivs(&self, vgs: f64, vds: f64, width: f64) -> (f64, f64, f64) {
        if vds < 0.0 {
            // I(vgs, vds) = -I(vgs - vds, -vds)
            let (i, dg, dd) = self.derivs(vgs - vds, -vds, width);
            // dI/dvgs = -dg ; dI/dvds = -(dg * -1 + dd * -1) = dg + dd
            return (-i, -dg, dg + dd);
        }
        let scale = width / TABLE_REF_WIDTH;
        let (ig, fg) = self.clamp_index(vgs.max(0.0));
        let (id, fd) = self.clamp_index(vds);
        let n = self.n;
        let base = ig * n + id;
        let v00 = self.data[base];
        let v01 = self.data[base + 1];
        let v10 = self.data[base + n];
        let v11 = self.data[base + n + 1];
        let lo = v00 + (v01 - v00) * fd;
        let hi = v10 + (v11 - v10) * fd;
        let i = lo + (hi - lo) * fg;
        let d_vds = {
            let slo = (v01 - v00) / self.step;
            let shi = (v11 - v10) / self.step;
            slo + (shi - slo) * fg
        };
        let d_vgs = (hi - lo) / self.step;
        (i * scale, d_vgs * scale, d_vds * scale)
    }

    #[inline]
    fn clamp_index(&self, v: f64) -> (usize, f64) {
        let x = (v / self.step).clamp(0.0, (self.n - 1) as f64);
        let i = (x as usize).min(self.n - 2);
        (i, x - i as f64)
    }

    #[inline]
    fn lookup(&self, vgs: f64, vds: f64) -> f64 {
        let (ig, fg) = self.clamp_index(vgs.max(0.0));
        let (id, fd) = self.clamp_index(vds);
        let n = self.n;
        let base = ig * n + id;
        let v00 = self.data[base];
        let v01 = self.data[base + 1];
        let v10 = self.data[base + n];
        let v11 = self.data[base + n + 1];
        let lo = v00 + (v01 - v00) * fd;
        let hi = v10 + (v11 - v10) * fd;
        lo + (hi - lo) * fg
    }

    #[inline]
    fn lookup_with_slope(&self, vgs: f64, vds: f64) -> (f64, f64) {
        let (ig, fg) = self.clamp_index(vgs.max(0.0));
        let (id, fd) = self.clamp_index(vds);
        let n = self.n;
        let base = ig * n + id;
        let v00 = self.data[base];
        let v01 = self.data[base + 1];
        let v10 = self.data[base + n];
        let v11 = self.data[base + n + 1];
        let lo = v00 + (v01 - v00) * fd;
        let hi = v10 + (v11 - v10) * fd;
        let i = lo + (hi - lo) * fg;
        let slope_lo = (v01 - v00) / self.step;
        let slope_hi = (v11 - v10) / self.step;
        (i, slope_lo + (slope_hi - slope_lo) * fg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{DeviceType, MosfetParams};
    use proptest::prelude::*;

    const UM: f64 = 1.0e-6;

    fn nmos_table() -> DeviceTable {
        DeviceTable::from_params(&MosfetParams::nmos_05um(), 3.3, 129)
    }

    #[test]
    fn matches_analytical_model_on_grid_points() {
        let p = MosfetParams::nmos_05um();
        let t = DeviceTable::from_params(&p, 3.3, 65);
        let step = 3.3 / 64.0;
        for ig in [0usize, 10, 32, 64] {
            for id in [0usize, 7, 33, 64] {
                let vgs = ig as f64 * step;
                let vds = id as f64 * step;
                let exact = p.drain_current(vgs, vds, UM);
                let tab = t.ids(vgs, vds, UM);
                assert!(
                    (exact - tab).abs() <= 1e-9 * (1.0 + exact.abs()),
                    "grid point mismatch at ({vgs},{vds})"
                );
            }
        }
    }

    #[test]
    fn interpolation_error_small() {
        let p = MosfetParams::nmos_05um();
        let t = nmos_table();
        for i in 0..200 {
            let vgs = 3.3 * (i as f64 * 0.4057).fract();
            let vds = 3.3 * (i as f64 * 0.7312).fract();
            let exact = p.drain_current(vgs, vds, UM);
            let tab = t.ids(vgs, vds, UM);
            // Relative accuracy in strong inversion; near/below threshold the
            // current is exponential in Vgs and linear interpolation has large
            // *relative* but negligible *absolute* error.
            let tol = 0.02 * exact.abs() + 5e-7;
            assert!(
                (exact - tab).abs() < tol,
                "({vgs:.3},{vds:.3}): {exact} vs {tab}"
            );
        }
    }

    #[test]
    fn clamps_out_of_range_queries() {
        let t = nmos_table();
        let at_edge = t.ids(3.3, 3.3, UM);
        assert_eq!(t.ids(5.0, 3.3, UM), at_edge);
        assert_eq!(t.ids(3.3, 5.0, UM), at_edge);
        // Negative Vgs clamps to the leakage row, tiny but non-negative.
        assert!(t.ids(-1.0, 3.3, UM) >= 0.0);
        assert!(t.ids(-1.0, 3.3, UM) < 1e-6);
    }

    #[test]
    fn negative_vds_symmetry() {
        let t = nmos_table();
        let fwd = t.ids(3.0, 1.0, UM);
        let rev = t.ids(2.0, -1.0, UM);
        assert!((fwd + rev).abs() < 1e-12 + 1e-6 * fwd.abs());
    }

    #[test]
    fn slope_matches_finite_difference() {
        let t = nmos_table();
        for &(vgs, vds) in &[(2.0, 0.7), (3.3, 1.9), (1.0, 0.2), (2.8, 3.0)] {
            let (_, g) = t.ids_and_gds(vgs, vds, UM);
            let h = 1e-4;
            let fd = (t.ids(vgs, vds + h, UM) - t.ids(vgs, vds - h, UM)) / (2.0 * h);
            assert!(
                (g - fd).abs() <= 0.05 * fd.abs() + 1e-9,
                "slope mismatch at ({vgs},{vds}): {g} vs {fd}"
            );
        }
    }

    #[test]
    fn derivs_match_finite_differences() {
        let t = nmos_table();
        let h = 1e-5;
        // Keep the symmetric-reflection point (vgs - vds) inside the grid,
        // otherwise clamping makes finite differences vanish at the edge.
        for &(vgs, vds) in &[(2.0, 0.71), (3.1, 1.93), (1.2, 0.21), (1.8, -1.3)] {
            let (i, dg, dd) = t.derivs(vgs, vds, UM);
            assert!((i - t.ids(vgs, vds, UM)).abs() < 1e-12);
            let fd_g = (t.ids(vgs + h, vds, UM) - t.ids(vgs - h, vds, UM)) / (2.0 * h);
            let fd_d = (t.ids(vgs, vds + h, UM) - t.ids(vgs, vds - h, UM)) / (2.0 * h);
            assert!(
                (dg - fd_g).abs() <= 0.02 * fd_g.abs() + 1e-8,
                "dvgs at ({vgs},{vds}): {dg} vs {fd_g}"
            );
            assert!(
                (dd - fd_d).abs() <= 0.02 * fd_d.abs() + 1e-8,
                "dvds at ({vgs},{vds}): {dd} vs {fd_d}"
            );
        }
    }

    #[test]
    fn pmos_table_builds() {
        let p = MosfetParams::pmos_05um();
        let t = DeviceTable::from_params(&p, 3.3, 65);
        assert_eq!(t.params().device, DeviceType::Pmos);
        assert!(t.ids(3.3, 3.3, UM) > 0.0);
        assert_eq!(t.vmax(), 3.3);
        assert_eq!(t.samples(), 65);
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn rejects_degenerate_grid() {
        DeviceTable::from_params(&MosfetParams::nmos_05um(), 3.3, 1);
    }

    #[test]
    #[should_panic(expected = "vmax must be positive")]
    fn rejects_non_positive_vmax() {
        DeviceTable::from_params(&MosfetParams::nmos_05um(), 0.0, 65);
    }

    proptest! {
        #[test]
        fn table_current_nonnegative_for_forward_bias(
            vgs in 0.0f64..3.3,
            vds in 0.0f64..3.3,
            w in 0.5f64..20.0,
        ) {
            let t = nmos_table();
            prop_assert!(t.ids(vgs, vds, w * UM) >= 0.0);
        }

        #[test]
        fn table_monotone_in_vds(
            vgs in 0.0f64..3.3,
            vds in 0.0f64..3.2,
            dv in 1e-3f64..0.1,
        ) {
            let t = nmos_table();
            let lo = t.ids(vgs, vds, UM);
            let hi = t.ids(vgs, (vds + dv).min(3.3), UM);
            prop_assert!(hi + 1e-15 >= lo);
        }

        #[test]
        fn table_monotone_in_vgs(
            vgs in 0.0f64..3.2,
            dv in 1e-3f64..0.1,
            vds in 0.0f64..3.3,
        ) {
            let t = nmos_table();
            let lo = t.ids(vgs, vds, UM);
            let hi = t.ids((vgs + dv).min(3.3), vds, UM);
            prop_assert!(hi + 1e-15 >= lo);
        }

        #[test]
        fn width_scaling_linear(
            vgs in 0.1f64..3.3,
            vds in 0.1f64..3.3,
            w in 0.5f64..20.0,
        ) {
            let t = nmos_table();
            let one = t.ids(vgs, vds, UM);
            let scaled = t.ids(vgs, vds, w * UM);
            prop_assert!((scaled - w * one).abs() <= 1e-9 * (1.0 + scaled.abs()));
        }
    }
}
