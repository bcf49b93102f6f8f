//! Coarse-WDM wavelength grids.
//!
//! The paper's DCN transceivers use the standard CWDM4 grid (4 lanes on
//! 20 nm spacing around 1310 nm), while the ML-superpod CWDM8 modules pack
//! 8 lanes at 10 nm spacing *into the same 80 nm spectral window* (§3.3.1).
//! Keeping the spectral occupancy fixed is what lets CWDM8 double the
//! bandwidth per fiber without widening the band the OCS optics and
//! mux/demux films must support.

use lightwave_units::Nanometers;
use serde::{Deserialize, Serialize};

/// A WDM grid: a set of equally-spaced wavelength lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WdmGrid {
    /// 4 lanes, 20 nm spacing: 1271/1291/1311/1331 nm (CWDM4 MSA).
    Cwdm4,
    /// 8 lanes, 10 nm spacing: 1271..1341 nm, same 80 nm window as CWDM4.
    Cwdm8,
}

/// One wavelength lane within a grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WdmLane {
    /// Lane index within the grid (0-based, shortest wavelength first).
    pub index: u8,
    /// Center wavelength.
    pub center: Nanometers,
    /// Channel spacing of the parent grid.
    pub spacing: Nanometers,
}

impl WdmGrid {
    /// Number of wavelength lanes.
    pub fn lane_count(self) -> usize {
        match self {
            WdmGrid::Cwdm4 => 4,
            WdmGrid::Cwdm8 => 8,
        }
    }

    /// Channel spacing.
    pub fn spacing(self) -> Nanometers {
        match self {
            WdmGrid::Cwdm4 => Nanometers(20.0),
            WdmGrid::Cwdm8 => Nanometers(10.0),
        }
    }

    /// First (shortest) center wavelength. Both grids anchor at 1271 nm so
    /// they share the O-band window the fabric optics are designed for.
    pub fn first_center(self) -> Nanometers {
        Nanometers(1271.0)
    }

    /// All lanes of the grid.
    pub fn lanes(self) -> Vec<WdmLane> {
        let spacing = self.spacing();
        (0..self.lane_count())
            .map(|i| WdmLane {
                index: i as u8,
                center: Nanometers(self.first_center().nm() + i as f64 * spacing.nm()),
                spacing,
            })
            .collect()
    }

    /// The lane at `index`, if it exists.
    pub fn lane(self, index: usize) -> Option<WdmLane> {
        (index < self.lane_count()).then(|| self.lanes()[index])
    }

    /// The wavelength range `[min_edge, max_edge]` covered by the grid,
    /// taking each channel as ±spacing/2 around its center.
    pub fn band(self) -> (Nanometers, Nanometers) {
        let half = self.spacing().nm() / 2.0;
        let lanes = self.lanes();
        (
            Nanometers(lanes.first().expect("grid has lanes").center.nm() - half),
            Nanometers(lanes.last().expect("grid has lanes").center.nm() + half),
        )
    }

    /// True if `wavelength` falls within the grid's band.
    pub fn contains(self, wavelength: Nanometers) -> bool {
        let (lo, hi) = self.band();
        wavelength.nm() >= lo.nm() && wavelength.nm() <= hi.nm()
    }
}

/// The out-of-band monitor wavelength used by the Palomar OCS cameras
/// (850 nm, §3.2.2) — deliberately far from the ~1300 nm data band so
/// dichroic splitters can separate monitor light from signal light.
pub const MONITOR_WAVELENGTH: Nanometers = Nanometers(850.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cwdm4_matches_msa_grid() {
        let lanes = WdmGrid::Cwdm4.lanes();
        let centers: Vec<f64> = lanes.iter().map(|l| l.center.nm()).collect();
        assert_eq!(centers, vec![1271.0, 1291.0, 1311.0, 1331.0]);
    }

    #[test]
    fn cwdm8_doubles_lanes_at_half_spacing() {
        let g8 = WdmGrid::Cwdm8;
        assert_eq!(g8.lane_count(), 8);
        assert_eq!(g8.spacing().nm(), 10.0);
        let lanes = g8.lanes();
        assert_eq!(lanes[7].center.nm(), 1341.0);
    }

    #[test]
    fn both_grids_occupy_same_80nm_window() {
        // The CWDM8 design constraint that drove the 10 nm spacing
        // (§3.3.1): twice the lanes in the window CWDM4 already used.
        for grid in [WdmGrid::Cwdm4, WdmGrid::Cwdm8] {
            let (lo, hi) = grid.band();
            assert_eq!(hi.nm() - lo.nm(), 80.0, "{grid:?}");
        }
    }

    #[test]
    fn band_containment() {
        assert!(WdmGrid::Cwdm4.contains(Nanometers(1310.0)));
        assert!(!WdmGrid::Cwdm4.contains(Nanometers(1500.0)));
        assert!(!WdmGrid::Cwdm4.contains(MONITOR_WAVELENGTH));
    }

    #[test]
    fn lane_lookup() {
        assert!(WdmGrid::Cwdm4.lane(3).is_some());
        assert!(WdmGrid::Cwdm4.lane(4).is_none());
        assert_eq!(WdmGrid::Cwdm8.lane(2).unwrap().center.nm(), 1291.0);
    }

    #[test]
    fn monitor_wavelength_is_out_of_band_for_both_grids() {
        assert!(!WdmGrid::Cwdm4.contains(MONITOR_WAVELENGTH));
        assert!(!WdmGrid::Cwdm8.contains(MONITOR_WAVELENGTH));
    }
}
