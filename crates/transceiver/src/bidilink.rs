//! An end-to-end evaluated bidirectional link: two transceivers, a fiber
//! path through an OCS, and the DSP — producing per-lane BER and margin.

use crate::dsp::DspConfig;
use crate::module::Transceiver;
use lightwave_optics::ber::Pam4Receiver;
use lightwave_optics::dispersion::{dispersion_penalty, FiberDispersion};
use lightwave_optics::link::LinkBudget;
use lightwave_optics::modulation::LaneRate;
use lightwave_optics::mpi::{MpiBudget, MpiScratch};
use lightwave_units::{Ber, Db, Dbm};
use serde::{Deserialize, Serialize};

/// Evaluation of one wavelength lane of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneReport {
    /// Lane index.
    pub lane: u8,
    /// Received power at the detector.
    pub received: Dbm,
    /// Dispersion penalty applied for this lane.
    pub dispersion_penalty: Db,
    /// Pre-FEC BER including the unit's residual floor.
    pub raw_ber: Ber,
    /// Whether the lane meets the DSP's raw-BER threshold.
    pub healthy: bool,
    /// Margin in orders of magnitude below the threshold (positive =
    /// healthy).
    pub margin_orders: f64,
}

/// One direction of a bidirectional link, fully characterized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BidiLink {
    /// Transmitting-end unit.
    pub tx_unit: Transceiver,
    /// Receiving-end unit.
    pub rx_unit: Transceiver,
    /// Optical path from Tx flange to Rx flange.
    pub budget: LinkBudget,
    /// DSP configuration at the receiver.
    pub dsp: DspConfig,
    /// Fiber length, km (for dispersion).
    pub fiber_km: f64,
}

impl BidiLink {
    /// A nominal superpod link at the given fiber length.
    pub fn superpod(tx: Transceiver, rx: Transceiver, dsp: DspConfig, fiber_km: f64) -> BidiLink {
        let budget = LinkBudget::superpod_nominal(tx.launch, fiber_km);
        BidiLink {
            tx_unit: tx,
            rx_unit: rx,
            budget,
            dsp,
            fiber_km,
        }
    }

    /// The MPI operating point of this link (bidi reflections).
    pub fn mpi_ratio(&self) -> f64 {
        self.scale_mpi(MpiBudget::from_bidi_link(&self.budget).total_ratio)
    }

    /// [`BidiLink::mpi_ratio`], to the bit, read through `scratch`: the
    /// budget's total without its list of terms.
    pub(crate) fn mpi_ratio_in(&self, scratch: &mut MpiScratch) -> f64 {
        self.scale_mpi(scratch.total_ratio(&self.budget))
    }

    /// The MPI operating point of a link whose bidi budget totals `total`.
    fn scale_mpi(&self, total: f64) -> f64 {
        if self.tx_unit.family.is_bidi() {
            total
        } else {
            // Duplex links only see (much weaker) double-bounce MPI; fold
            // it in at a fixed low level.
            1e-5 * total / 1e-3
        }
    }

    fn receiver(&self) -> Pam4Receiver {
        let mut rx = match self.rx_unit.family.lane_rate() {
            LaneRate::Pam4_100 => Pam4Receiver::cwdm8_100g(),
            _ => Pam4Receiver::cwdm4_50g(),
        };
        rx.implementation_penalty += Db(self.rx_unit.sensitivity_offset_db.max(0.0));
        rx
    }

    /// Evaluates every wavelength lane of one engine, at the receiving
    /// module family's lane rate (the rate its receiver preset carries).
    pub fn evaluate(&self) -> Vec<LaneReport> {
        self.evaluate_at_rate(self.lane_rate())
    }

    /// The rate a link is judged at: its receiving family's lane rate.
    fn lane_rate(&self) -> LaneRate {
        self.rx_unit.family.lane_rate()
    }

    /// [`BidiLink::evaluate`]'s reports, built as they are read.
    fn lanes(&self) -> impl Iterator<Item = LaneReport> + '_ {
        self.lane_reports(self.lane_rate(), self.mpi_ratio())
    }

    /// The worst lane of the link (the last of equally bad ones).
    pub fn worst_lane(&self) -> LaneReport {
        self.lanes()
            .max_by(|a, b| {
                a.raw_ber
                    .prob()
                    .partial_cmp(&b.raw_ber.prob())
                    .expect("BERs are finite")
            })
            .expect("grids have lanes")
    }

    /// Whether every lane is healthy.
    pub fn is_healthy(&self) -> bool {
        self.lanes().all(|l| l.healthy)
    }

    /// Evaluates the link at an explicit lane rate (overriding the module
    /// family's default). Lower rates halve the receiver's noise
    /// bandwidth and shrink dispersion penalties — the physical reason
    /// rate fallback rescues marginal links.
    pub fn evaluate_at_rate(&self, rate: LaneRate) -> Vec<LaneReport> {
        self.lane_reports(rate, self.mpi_ratio()).collect()
    }

    /// Every wavelength lane's report at `rate` under the interference
    /// ratio `mpi`, built as they are read: nothing is allocated.
    pub(crate) fn lane_reports(
        &self,
        rate: LaneRate,
        mpi: f64,
    ) -> impl Iterator<Item = LaneReport> + '_ {
        let mut rx = self.receiver();
        rx.rate = rate;
        let fiber = FiberDispersion::default();
        let threshold = self.dsp.fec.raw_ber_threshold();
        let arriving = self.budget.received_power();
        self.rx_unit.family.grid().iter_lanes().map(move |lane| {
            let disp = dispersion_penalty(&fiber, &lane, rate, self.fiber_km, self.dsp.equalizer);
            let received = arriving - disp;
            let gaussian = rx.ber(received, mpi, self.dsp.oim);
            // The unit's residual floor adds on top of Gaussian noise.
            let raw = Ber::new(gaussian.prob() + self.rx_unit.residual_floor);
            LaneReport {
                lane: lane.index,
                received,
                dispersion_penalty: disp,
                raw_ber: raw,
                healthy: raw.meets(threshold),
                margin_orders: raw.margin_orders(threshold),
            }
        })
    }

    /// Rate fallback (§3.3.1 backward compatibility as resilience): finds
    /// the *fastest* rate both DSPs support at which every lane is
    /// healthy. A link too marginal for 100G PAM4 may be perfectly solid
    /// at 50G PAM4 (half the noise bandwidth) or 25G NRZ (half again,
    /// plus full-swing eyes) — degraded beats down. The interference
    /// ratio does not depend on the rate: it is worked out once.
    pub fn best_rate(&self, local: &DspConfig, remote: &DspConfig) -> Option<LaneRate> {
        let mpi = self.mpi_ratio();
        LaneRate::ALL.into_iter().find(|&rate| {
            local.supports(rate)
                && remote.supports(rate)
                && self.lane_reports(rate, mpi).all(|l| l.healthy)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleFamily;

    fn nominal_link(family: ModuleFamily, km: f64) -> BidiLink {
        BidiLink::superpod(
            Transceiver::nominal(family),
            Transceiver::nominal(family),
            DspConfig::ml_production(),
            km,
        )
    }

    #[test]
    fn nominal_superpod_link_is_healthy() {
        let link = nominal_link(ModuleFamily::Cwdm4Bidi, 0.2);
        assert!(link.is_healthy(), "worst lane: {:?}", link.worst_lane());
        // ~2 orders of margin, like the Fig. 13 fleet.
        let w = link.worst_lane();
        assert!(
            w.margin_orders > 1.0,
            "margin {:.2} orders too thin",
            w.margin_orders
        );
    }

    #[test]
    fn all_lanes_reported() {
        assert_eq!(
            nominal_link(ModuleFamily::Cwdm4Bidi, 0.2).evaluate().len(),
            4
        );
        assert_eq!(
            nominal_link(ModuleFamily::Cwdm8Bidi, 0.2).evaluate().len(),
            8
        );
    }

    #[test]
    fn outer_lanes_pay_dispersion() {
        let link = nominal_link(ModuleFamily::Cwdm8Bidi, 2.0);
        let lanes = link.evaluate();
        let inner = lanes[3].dispersion_penalty.db(); // 1301 nm, near λ0
        let outer = lanes[7].dispersion_penalty.db(); // 1341 nm
        assert!(outer > inner, "outer lane must pay more dispersion");
    }

    #[test]
    fn long_fiber_degrades_margin() {
        let short = nominal_link(ModuleFamily::Cwdm4Bidi, 0.2).worst_lane();
        let long = nominal_link(ModuleFamily::Cwdm4Bidi, 6.0).worst_lane();
        assert!(long.margin_orders < short.margin_orders);
    }

    #[test]
    fn weak_unit_can_fail_the_link() {
        let mut bad = Transceiver::nominal(ModuleFamily::Cwdm4Bidi);
        bad.residual_floor = 2e-2; // a lemon unit above even the SFEC threshold
        let link = BidiLink::superpod(
            Transceiver::nominal(ModuleFamily::Cwdm4Bidi),
            bad,
            DspConfig::ml_production(),
            0.2,
        );
        assert!(!link.is_healthy());
    }

    #[test]
    fn sfec_rescues_marginal_links() {
        // A lossy path that fails with KP4-only but passes with the
        // concatenated FEC — the Fig. 12 story at link level.
        let mut tx = Transceiver::nominal(ModuleFamily::Cwdm4Bidi);
        tx.launch = Dbm(tx.launch.dbm() - 7.2); // erode the margin
        let mk = |dsp: DspConfig| {
            BidiLink::superpod(tx, Transceiver::nominal(ModuleFamily::Cwdm4Bidi), dsp, 0.2)
        };
        let kp4_only = mk(DspConfig {
            fec: crate::dsp::FecMode::Kp4Only,
            ..DspConfig::ml_production()
        });
        let concat = mk(DspConfig::ml_production());
        assert!(
            !kp4_only.is_healthy() && concat.is_healthy(),
            "expected SFEC to rescue: kp4 worst {:?}, concat worst {:?}",
            kp4_only.worst_lane(),
            concat.worst_lane()
        );
    }

    #[test]
    fn rate_fallback_rescues_marginal_links() {
        // A link too lossy for 100G PAM4 falls back to 50G PAM4 (half the
        // noise bandwidth); a truly awful one drops to 25G NRZ.
        let dsp = DspConfig::ml_production();
        let mut weak = Transceiver::nominal(ModuleFamily::Cwdm8Bidi);
        weak.launch = lightwave_units::Dbm(weak.launch.dbm() - 9.5);
        let link = BidiLink::superpod(
            weak,
            Transceiver::nominal(ModuleFamily::Cwdm8Bidi),
            dsp,
            0.2,
        );
        assert!(
            !link.is_healthy(),
            "the 100G link must be marginal for this test"
        );
        let rate = link.best_rate(&dsp, &dsp);
        assert!(
            matches!(rate, Some(LaneRate::Pam4_50) | Some(LaneRate::Nrz25)),
            "fallback should find a workable slower rate: {rate:?}"
        );
    }

    #[test]
    fn healthy_links_stay_at_full_rate() {
        let dsp = DspConfig::ml_production();
        let link = nominal_link(ModuleFamily::Cwdm8Bidi, 0.2);
        assert_eq!(link.best_rate(&dsp, &dsp), Some(LaneRate::Pam4_100));
    }

    #[test]
    fn dead_links_have_no_rate() {
        let dsp = DspConfig::ml_production();
        let mut dead = Transceiver::nominal(ModuleFamily::Cwdm4Bidi);
        dead.residual_floor = 0.1; // beyond any FEC
        let link = BidiLink::superpod(
            Transceiver::nominal(ModuleFamily::Cwdm4Bidi),
            dead,
            dsp,
            0.2,
        );
        assert_eq!(link.best_rate(&dsp, &dsp), None);
    }

    #[test]
    fn lower_rates_have_more_margin() {
        let link = nominal_link(ModuleFamily::Cwdm8Bidi, 1.0);
        let m100 = link.evaluate_at_rate(LaneRate::Pam4_100)[7].margin_orders;
        let m50 = link.evaluate_at_rate(LaneRate::Pam4_50)[7].margin_orders;
        assert!(
            m50 >= m100,
            "half the baud cannot have less margin: {m50:.2} vs {m100:.2}"
        );
    }

    #[test]
    fn best_rate_is_the_fastest_rate_every_evaluated_lane_clears() {
        // The rule `best_rate` replaced, one budget per candidate rate.
        let by_evaluation = |link: &BidiLink, local: &DspConfig, remote: &DspConfig| {
            LaneRate::ALL.into_iter().find(|&rate| {
                local.supports(rate)
                    && remote.supports(rate)
                    && link.evaluate_at_rate(rate).iter().all(|l| l.healthy)
            })
        };
        let dsps = [DspConfig::ml_production(), DspConfig::standards_based()];
        for family in ModuleFamily::ALL {
            let mut weak = Transceiver::nominal(family);
            weak.launch = Dbm(weak.launch.dbm() - 9.5);
            let marginal = BidiLink::superpod(
                weak,
                Transceiver::nominal(family),
                DspConfig::ml_production(),
                0.2,
            );
            for link in [nominal_link(family, 0.2), marginal] {
                for (local, remote) in dsps.iter().flat_map(|l| dsps.iter().map(move |r| (l, r))) {
                    assert_eq!(
                        link.best_rate(local, remote),
                        by_evaluation(&link, local, remote),
                        "{family:?}"
                    );
                }
                assert_eq!(link.is_healthy(), link.evaluate().iter().all(|l| l.healthy));
                let worst = link
                    .evaluate()
                    .into_iter()
                    .max_by(|a, b| a.raw_ber.prob().partial_cmp(&b.raw_ber.prob()).unwrap());
                assert_eq!(Some(link.worst_lane()), worst, "{family:?}");
            }
        }
    }

    #[test]
    fn duplex_sees_less_mpi_than_bidi() {
        let bidi = nominal_link(ModuleFamily::Cwdm4Bidi, 0.2);
        let duplex = nominal_link(ModuleFamily::Cwdm4Duplex, 0.2);
        assert!(duplex.mpi_ratio() < bidi.mpi_ratio() / 10.0);
    }
}
