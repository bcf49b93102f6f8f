//! Chassis, field-replaceable units, power, and hot-swap semantics.
//!
//! §3.2.2 and Fig. 7: the Palomar back chassis carries the CPU, FPGA, and
//! high-voltage (HV) mirror-driver boards; power supplies and fans are
//! redundant and hot-swappable *without* losing mirror state, while HV
//! driver boards are field-replaceable but drop the mirror state of the
//! ports they drive ("the HV drivers for the mirrors was one of the largest
//! reliability challenges for the switch"). §4.1.1: maximum system power is
//! 108 W; field availability typically exceeds 99.98%.

use crate::{OcsError, PortId};
use lightwave_units::Availability;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Maximum chassis power draw, watts (§4.1.1).
pub(crate) const MAX_POWER_W: f64 = 108.0;

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
    pub(crate) fn hot_swappable(self) -> bool {
        matches!(self, FruKind::PowerSupply | FruKind::Fan)
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

/// HV driver boards per die: each drives a quarter of the ports.
const HV_GROUPS: PortId = 4;

/// The chassis model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chassis {
    slots: Vec<FruSlot>,
    /// Ports per side of the switch it drives (a `PortId`, so the chassis
    /// is no larger than a 136-port one always was).
    ports: PortId,
    /// [`Chassis::is_operational`], kept current by every slot change.
    operational: bool,
    /// Bit `g` set: an HV driver of port group `g` has failed.
    degraded_groups: u8,
}

/// What a FRU swap did to the switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SwapEffect {
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
    /// A fully-populated healthy chassis of the 136-port Palomar.
    pub fn new() -> Chassis {
        Chassis::with_ports(crate::TOTAL_PORTS)
    }

    /// A fully-populated healthy chassis for a switch of `ports` ports per
    /// side: 2 PSUs, 4 fans, 8 HV drivers (4 per die, each driving a
    /// quarter of the ports, rounded up), 1 CPU, 1 FPGA (driving them
    /// all).
    ///
    /// # Panics
    /// Panics if `ports` does not fit a [`PortId`].
    pub fn with_ports(ports: usize) -> Chassis {
        // A documented precondition (`# Panics`); the chassis of a switch
        // is built after its crossbar, which refuses such a radix first.
        #[allow(clippy::expect_used)]
        let ports = PortId::try_from(ports).expect("port count fits a PortId");
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
            ports,
            operational: true,
            degraded_groups: 0,
        }
    }

    /// All slots.
    pub fn slots(&self) -> &[FruSlot] {
        &self.slots
    }

    /// Slot `idx`, or the refusal of a slot this chassis does not have.
    pub fn slot(&self, idx: usize) -> Result<&FruSlot, OcsError> {
        self.slots.get(idx).ok_or(OcsError::SlotOutOfRange(idx))
    }

    /// Whether the switch is operational: at least one healthy PSU, at
    /// least 3 healthy fans, CPU and FPGA healthy. (Individual HV-driver
    /// failures degrade only their port group.)
    pub(crate) fn is_operational(&self) -> bool {
        self.operational
    }

    /// Ports each HV driver drives.
    fn group_size(&self) -> PortId {
        self.ports.div_ceil(HV_GROUPS)
    }

    /// Whether port `p` is degraded by a failed HV driver. A healthy set
    /// of drivers answers before the division by the group size: every
    /// circuit a transaction adds asks twice.
    pub(crate) fn port_degraded(&self, p: PortId) -> bool {
        self.degraded_groups != 0
            && p < self.ports
            && (self.degraded_groups >> (p / self.group_size())) & 1 == 1
    }

    /// Whether a failed HV driver degrades any port: while it does not,
    /// no [`Chassis::port_degraded`] is true.
    pub(crate) fn any_port_degraded(&self) -> bool {
        self.degraded_groups != 0
    }

    /// Ports currently degraded by failed HV drivers.
    pub fn degraded_ports(&self) -> Vec<PortId> {
        (0..self.ports).filter(|&p| self.port_degraded(p)).collect()
    }

    /// The ports whose mirror state a swap of slot `idx` drops: its HV
    /// driver's group, every port for the FPGA, none for the rest.
    pub fn ports_dropped_by(&self, idx: usize) -> Result<Range<PortId>, OcsError> {
        Ok(match self.slot(idx)?.kind {
            FruKind::Fpga => 0..self.ports,
            FruKind::HvDriver => {
                let hv_index = self.slots[..idx]
                    .iter()
                    .filter(|s| s.kind == FruKind::HvDriver)
                    .count() as PortId;
                let base = (hv_index % HV_GROUPS * self.group_size()).min(self.ports);
                base..base.saturating_add(self.group_size()).min(self.ports)
            }
            _ => 0..0,
        })
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

    /// Sets the health of slot `idx`, refusing a slot this chassis does
    /// not have before anything changes; returns its FRU kind.
    fn set_health(&mut self, idx: usize, health: FruHealth) -> Result<FruKind, OcsError> {
        let slot = self
            .slots
            .get_mut(idx)
            .ok_or(OcsError::SlotOutOfRange(idx))?;
        slot.health = health;
        let kind = slot.kind;
        self.refresh();
        Ok(kind)
    }

    /// Fails the `idx`-th slot.
    pub(crate) fn fail_slot(&mut self, idx: usize) -> Result<(), OcsError> {
        self.set_health(idx, FruHealth::Failed).map(drop)
    }

    /// Replaces the FRU in `idx` (field service), returning what the swap
    /// disturbed.
    pub(crate) fn replace_slot(&mut self, idx: usize) -> Result<SwapEffect, OcsError> {
        let kind = self.set_health(idx, FruHealth::Healthy)?;
        Ok(SwapEffect {
            disturbed_ports: self.ports_dropped_by(idx)?.collect(),
            full_outage: !kind.hot_swappable() && kind == FruKind::Cpu,
        })
    }

    /// Power draw estimate: base electronics plus per-active-circuit HV
    /// bias, capped at `MAX_POWER_W`.
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

    /// Field availability the design typically achieves (§4.1.1).
    const TYPICAL_AVAILABILITY: f64 = 0.9998;

    #[test]
    fn healthy_chassis_is_operational() {
        assert!(Chassis::new().is_operational());
    }

    #[test]
    fn single_psu_or_fan_failure_is_survivable() {
        let mut c = Chassis::new();
        c.fail_slot(0).unwrap(); // a PSU
        assert!(c.is_operational(), "redundant PSU covers");
        c.fail_slot(2).unwrap(); // a fan
        assert!(c.is_operational(), "N+1 fans cover");
    }

    #[test]
    fn double_psu_failure_downs_the_switch() {
        let mut c = Chassis::new();
        c.fail_slot(0).unwrap();
        c.fail_slot(1).unwrap();
        assert!(!c.is_operational());
    }

    #[test]
    fn hv_driver_failure_degrades_only_its_ports() {
        let mut c = Chassis::new();
        // Slots: 0-1 PSU, 2-5 fans, 6-13 HV drivers.
        c.fail_slot(6).unwrap();
        assert!(c.is_operational(), "switch stays up");
        let degraded = c.degraded_ports();
        assert_eq!(degraded, (0..34).collect::<Vec<_>>());
    }

    #[test]
    fn hv_swap_disturbs_its_port_group_only() {
        let mut c = Chassis::new();
        c.fail_slot(7).unwrap(); // second HV driver
        let effect = c.replace_slot(7).unwrap();
        assert_eq!(effect.disturbed_ports, (34..68).collect::<Vec<_>>());
        assert!(!effect.full_outage);
        assert!(c.degraded_ports().is_empty(), "repair clears degradation");
    }

    #[test]
    fn cached_answers_follow_every_slot_change() {
        let mut c = Chassis::new();
        // Slots 7 and 11 are the two dies' drivers of ports 34..68.
        c.fail_slot(7).unwrap();
        c.fail_slot(11).unwrap();
        assert!(c.port_degraded(34) && c.port_degraded(67));
        assert!(!c.port_degraded(33) && !c.port_degraded(68));
        assert!(!c.port_degraded(136) && !c.port_degraded(u16::MAX));
        c.replace_slot(7).unwrap();
        assert!(c.port_degraded(34), "the other die's driver is still out");
        c.replace_slot(11).unwrap();
        assert!(c.degraded_ports().is_empty());
        c.fail_slot(14).unwrap(); // CPU
        assert!(!c.is_operational());
        c.replace_slot(14).unwrap();
        assert!(c.is_operational());
    }

    #[test]
    fn the_drivers_follow_the_radix() {
        // The §6 300-port part: each HV driver drives 75 ports, the FPGA
        // all 300; a radix that does not divide by four rounds the groups
        // up and the last one ends at the last port.
        let mut c = Chassis::with_ports(300);
        c.fail_slot(9).unwrap(); // the first die's fourth driver
        assert_eq!(c.degraded_ports(), (225..300).collect::<Vec<_>>());
        assert!(!c.port_degraded(300) && !c.port_degraded(u16::MAX));
        assert_eq!(c.replace_slot(9).unwrap().disturbed_ports.len(), 75);
        assert_eq!(c.ports_dropped_by(15), Ok(0..300));
        assert_eq!(c.ports_dropped_by(0), Ok(0..0));
        assert_eq!(c.ports_dropped_by(16), Err(OcsError::SlotOutOfRange(16)));
        let odd = Chassis::with_ports(10);
        assert_eq!(odd.ports_dropped_by(6), Ok(0..3));
        assert_eq!(odd.ports_dropped_by(9), Ok(9..10));
    }

    #[test]
    fn a_port_is_degraded_by_its_own_drivers_group_only() {
        for ports in [136, 300] {
            let mut c = Chassis::with_ports(ports);
            let ports = ports as PortId;
            let out_of_range = [ports, ports + 1, u16::MAX];
            assert!((0..ports).chain(out_of_range).all(|p| !c.port_degraded(p)));
            for slot in 6..14 {
                c.fail_slot(slot).unwrap();
                let group = c.ports_dropped_by(slot).unwrap();
                assert!(!group.is_empty(), "{ports} ports, slot {slot}");
                for p in 0..ports {
                    assert_eq!(c.port_degraded(p), group.contains(&p), "{ports}: port {p}");
                }
                assert!(out_of_range.iter().all(|&p| !c.port_degraded(p)));
                c.replace_slot(slot).unwrap();
                assert!((0..ports).all(|p| !c.port_degraded(p)), "repaired");
            }
        }
    }

    #[test]
    fn a_slot_the_chassis_lacks_is_refused_and_changes_nothing() {
        for ports in [136, 300] {
            let mut c = Chassis::with_ports(ports);
            c.fail_slot(6).unwrap();
            let before = c.clone();
            for idx in [16, usize::MAX] {
                let refused = OcsError::SlotOutOfRange(idx);
                assert_eq!(c.slot(idx), Err(refused));
                assert_eq!(c.ports_dropped_by(idx), Err(refused));
                assert_eq!(c.fail_slot(idx), Err(refused));
                assert_eq!(c.replace_slot(idx), Err(refused));
                assert_eq!(c, before, "{ports} ports, slot {idx}");
            }
        }
    }

    #[test]
    fn psu_swap_disturbs_nothing() {
        let mut c = Chassis::new();
        c.fail_slot(1).unwrap();
        let effect = c.replace_slot(1).unwrap();
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
        // A swap drops mirror state under an HV driver or the FPGA only.
        let c = Chassis::new();
        let drops: Vec<FruKind> = (0..16)
            .filter(|&slot| !c.ports_dropped_by(slot).unwrap().is_empty())
            .map(|slot| c.slots()[slot].kind)
            .collect();
        assert_eq!(
            drops,
            [[FruKind::HvDriver; 8].as_slice(), &[FruKind::Fpga]].concat()
        );
    }
}
