//! Chassis, field-replaceable units, power, and hot-swap semantics.
//!
//! §3.2.2 and Fig. 7: the Palomar back chassis carries the CPU, FPGA, and
//! high-voltage (HV) mirror-driver boards; power supplies and fans are
//! redundant and hot-swappable *without* losing mirror state, while HV
//! driver boards are field-replaceable but drop the mirror state of the
//! ports they drive ("the HV drivers for the mirrors was one of the largest
//! reliability challenges for the switch"). §4.1.1: maximum system power is
//! 108 W; field availability typically exceeds 99.98%.

use lightwave_units::Availability;
use serde::{Deserialize, Serialize};

/// Maximum chassis power draw, watts (§4.1.1).
pub const MAX_POWER_W: f64 = 108.0;

/// Field availability the design typically achieves (§4.1.1).
pub const TYPICAL_AVAILABILITY: f64 = 0.9998;

/// Kinds of field-replaceable units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FruKind {
    /// Redundant power supply (2 installed, 1 required).
    PowerSupply,
    /// Redundant fan module (N+1).
    Fan,
    /// High-voltage mirror driver board; swapping drops mirror state for
    /// its port group.
    HvDriver,
    /// Control CPU board.
    Cpu,
    /// Mirror-control FPGA board.
    Fpga,
}

impl FruKind {
    /// Whether this FRU can be swapped with the data plane staying up.
    pub fn hot_swappable(self) -> bool {
        matches!(self, FruKind::PowerSupply | FruKind::Fan)
    }

    /// Whether a swap of this FRU drops mirror (circuit) state.
    pub fn swap_drops_mirror_state(self) -> bool {
        matches!(self, FruKind::HvDriver | FruKind::Fpga)
    }
}

/// Health of one FRU slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FruHealth {
    /// Operating normally.
    Healthy,
    /// Failed; awaiting replacement.
    Failed,
}

/// One FRU slot in the chassis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FruSlot {
    /// What is installed here.
    pub kind: FruKind,
    /// Current health.
    pub health: FruHealth,
}

/// Number of ports driven per HV driver board.
pub const PORTS_PER_HV_DRIVER: usize = 34; // 136 / 4 boards per die side

/// The chassis model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chassis {
    slots: Vec<FruSlot>,
    /// [`Chassis::is_operational`], kept current by every slot change.
    operational: bool,
    /// Bit `g` set: an HV driver of port group `g` has failed.
    degraded_groups: u8,
}

/// What a FRU swap did to the switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapEffect {
    /// Ports whose circuits must be re-established (mirror state lost).
    pub disturbed_ports: Vec<u16>,
    /// Whether the whole data plane blinked (non-hot-swappable FRU).
    pub full_outage: bool,
}

impl Default for Chassis {
    fn default() -> Self {
        Chassis::new()
    }
}

impl Chassis {
    /// A fully-populated healthy chassis: 2 PSUs, 4 fans, 8 HV drivers
    /// (4 per die), 1 CPU, 1 FPGA.
    pub fn new() -> Chassis {
        let mut slots = Vec::new();
        for _ in 0..2 {
            slots.push(FruSlot {
                kind: FruKind::PowerSupply,
                health: FruHealth::Healthy,
            });
        }
        for _ in 0..4 {
            slots.push(FruSlot {
                kind: FruKind::Fan,
                health: FruHealth::Healthy,
            });
        }
        for _ in 0..8 {
            slots.push(FruSlot {
                kind: FruKind::HvDriver,
                health: FruHealth::Healthy,
            });
        }
        slots.push(FruSlot {
            kind: FruKind::Cpu,
            health: FruHealth::Healthy,
        });
        slots.push(FruSlot {
            kind: FruKind::Fpga,
            health: FruHealth::Healthy,
        });
        Chassis {
            slots,
            operational: true,
            degraded_groups: 0,
        }
    }

    /// All slots.
    pub fn slots(&self) -> &[FruSlot] {
        &self.slots
    }

    /// Whether the switch is operational: at least one healthy PSU, at
    /// least 3 healthy fans, CPU and FPGA healthy. (Individual HV-driver
    /// failures degrade only their port group.)
    pub fn is_operational(&self) -> bool {
        self.operational
    }

    /// Whether port `p` is degraded by a failed HV driver.
    pub fn port_degraded(&self, p: u16) -> bool {
        let group = p as usize / PORTS_PER_HV_DRIVER;
        group < 4 && (self.degraded_groups >> group) & 1 == 1
    }

    /// Ports currently degraded by failed HV drivers.
    pub fn degraded_ports(&self) -> Vec<u16> {
        (0..4 * PORTS_PER_HV_DRIVER as u16)
            .filter(|&p| self.port_degraded(p))
            .collect()
    }

    /// Recomputes the cached answers after a slot changed health.
    fn refresh(&mut self) {
        let healthy = |k: FruKind| {
            self.slots
                .iter()
                .filter(|s| s.kind == k && s.health == FruHealth::Healthy)
                .count()
        };
        self.operational = healthy(FruKind::PowerSupply) >= 1
            && healthy(FruKind::Fan) >= 3
            && healthy(FruKind::Cpu) >= 1
            && healthy(FruKind::Fpga) >= 1;
        self.degraded_groups = self
            .slots
            .iter()
            .filter(|s| s.kind == FruKind::HvDriver)
            .enumerate()
            .filter(|(_, s)| s.health == FruHealth::Failed)
            .fold(0, |groups, (hv_index, _)| groups | 1 << (hv_index % 4));
    }

    /// Fails the `idx`-th slot.
    ///
    /// # Panics
    /// Panics on an out-of-range slot index.
    pub fn fail_slot(&mut self, idx: usize) {
        self.slots[idx].health = FruHealth::Failed;
        self.refresh();
    }

    /// Replaces the FRU in `idx` (field service), returning what the swap
    /// disturbed.
    pub fn replace_slot(&mut self, idx: usize) -> SwapEffect {
        let kind = self.slots[idx].kind;
        self.slots[idx].health = FruHealth::Healthy;
        self.refresh();
        let disturbed_ports = if kind.swap_drops_mirror_state() {
            match kind {
                FruKind::Fpga => (0..136u16).collect(),
                FruKind::HvDriver => {
                    let hv_index = self.slots[..idx]
                        .iter()
                        .filter(|s| s.kind == FruKind::HvDriver)
                        .count();
                    let base = (hv_index % 4) * PORTS_PER_HV_DRIVER;
                    (base..base + PORTS_PER_HV_DRIVER)
                        .map(|p| p as u16)
                        .collect()
                }
                _ => Vec::new(),
            }
        } else {
            Vec::new()
        };
        SwapEffect {
            disturbed_ports,
            full_outage: !kind.hot_swappable() && kind == FruKind::Cpu,
        }
    }

    /// Power draw estimate: base electronics plus per-active-circuit HV
    /// bias, capped at [`MAX_POWER_W`].
    pub fn power_draw_w(&self, active_circuits: usize) -> f64 {
        let base = 62.0;
        let per_circuit = 0.33;
        (base + per_circuit * active_circuits as f64).min(MAX_POWER_W)
    }

    /// Steady-state chassis availability from per-FRU MTBF/MTTR, composing
    /// redundancy: PSUs parallel, fans 3-of-4, CPU/FPGA in series.
    ///
    /// `mttr` is the field replacement time (hot-swappable FRUs repair
    /// without downtime and only matter through double-failure windows).
    pub fn availability(&self, mtbf_hours: f64, mttr_hours: f64) -> Availability {
        assert!(mtbf_hours > 0.0 && mttr_hours > 0.0);
        let unit = Availability::new(mtbf_hours / (mtbf_hours + mttr_hours));
        let psu_pair = unit.parallel(unit);
        // 3-of-4 fans: 1 - P(≥2 down).
        let q = unit.unavailability();
        let fans = Availability::new(
            1.0 - (6.0 * q * q * (1.0 - q) * (1.0 - q) + 4.0 * q * q * q * (1.0 - q) + q.powi(4)),
        );
        // CPU, FPGA, and the optical core electronics in series.
        Availability::series([psu_pair, fans, unit, unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_chassis_is_operational() {
        assert!(Chassis::new().is_operational());
    }

    #[test]
    fn single_psu_or_fan_failure_is_survivable() {
        let mut c = Chassis::new();
        c.fail_slot(0); // a PSU
        assert!(c.is_operational(), "redundant PSU covers");
        c.fail_slot(2); // a fan
        assert!(c.is_operational(), "N+1 fans cover");
    }

    #[test]
    fn double_psu_failure_downs_the_switch() {
        let mut c = Chassis::new();
        c.fail_slot(0);
        c.fail_slot(1);
        assert!(!c.is_operational());
    }

    #[test]
    fn hv_driver_failure_degrades_only_its_ports() {
        let mut c = Chassis::new();
        // Slots: 0-1 PSU, 2-5 fans, 6-13 HV drivers.
        c.fail_slot(6);
        assert!(c.is_operational(), "switch stays up");
        let degraded = c.degraded_ports();
        assert_eq!(degraded.len(), PORTS_PER_HV_DRIVER);
        assert_eq!(degraded[0], 0);
    }

    #[test]
    fn hv_swap_disturbs_its_port_group_only() {
        let mut c = Chassis::new();
        c.fail_slot(7); // second HV driver
        let effect = c.replace_slot(7);
        assert_eq!(effect.disturbed_ports.len(), PORTS_PER_HV_DRIVER);
        assert_eq!(effect.disturbed_ports[0], PORTS_PER_HV_DRIVER as u16);
        assert!(!effect.full_outage);
        assert!(c.degraded_ports().is_empty(), "repair clears degradation");
    }

    #[test]
    fn cached_answers_follow_every_slot_change() {
        let mut c = Chassis::new();
        // Slots 7 and 11 are the two dies' drivers of ports 34..68.
        c.fail_slot(7);
        c.fail_slot(11);
        assert!(c.port_degraded(34) && c.port_degraded(67));
        assert!(!c.port_degraded(33) && !c.port_degraded(68));
        assert!(!c.port_degraded(136) && !c.port_degraded(u16::MAX));
        c.replace_slot(7);
        assert!(c.port_degraded(34), "the other die's driver is still out");
        c.replace_slot(11);
        assert!(c.degraded_ports().is_empty());
        c.fail_slot(14); // CPU
        assert!(!c.is_operational());
        c.replace_slot(14);
        assert!(c.is_operational());
    }

    #[test]
    fn psu_swap_disturbs_nothing() {
        let mut c = Chassis::new();
        c.fail_slot(1);
        let effect = c.replace_slot(1);
        assert!(effect.disturbed_ports.is_empty());
        assert!(!effect.full_outage);
    }

    #[test]
    fn power_stays_within_rating() {
        let c = Chassis::new();
        assert!(c.power_draw_w(0) >= 50.0);
        assert!(c.power_draw_w(136) <= MAX_POWER_W);
        // An EPS of the same capacity burns kilowatts; the OCS burns ~100 W.
        assert!(c.power_draw_w(136) < 150.0);
    }

    #[test]
    fn availability_matches_field_experience() {
        // MTBF 8 years per FRU, 4 h repair → chassis ≥ 99.98% (§4.1.1).
        let c = Chassis::new();
        let a = c.availability(8.0 * 8760.0, 4.0);
        assert!(
            a.prob() >= TYPICAL_AVAILABILITY,
            "chassis availability {a} below the paper's 99.98% field figure"
        );
    }

    #[test]
    fn fru_semantics() {
        assert!(FruKind::PowerSupply.hot_swappable());
        assert!(!FruKind::HvDriver.hot_swappable());
        assert!(FruKind::HvDriver.swap_drops_mirror_state());
        assert!(!FruKind::Fan.swap_drops_mirror_state());
    }
}
