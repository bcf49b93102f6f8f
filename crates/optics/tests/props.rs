//! Property tests for the photonic link models.

use lightwave_optics::ber::{OimConfig, Pam4Receiver};
use lightwave_optics::components::{Component, ComponentKind};
use lightwave_optics::dispersion::{dispersion_penalty, Equalizer, FiberDispersion};
use lightwave_optics::link::LinkBudget;
use lightwave_optics::modulation::LaneRate;
use lightwave_optics::mpi::{MpiBudget, MpiScratch};
use lightwave_optics::wdm::WdmGrid;
use lightwave_units::{Db, Dbm};
use proptest::prelude::*;

proptest! {
    #[test]
    fn ber_monotone_in_power(p in -20.0f64..0.0, dp in 0.1f64..5.0, mpi_db in -50.0f64..-25.0) {
        let rx = Pam4Receiver::cwdm4_50g();
        let m = Db(mpi_db).linear();
        let low = rx.ber(Dbm(p), m, None).prob();
        let high = rx.ber(Dbm(p + dp), m, None).prob();
        prop_assert!(high <= low + 1e-18, "more power cannot worsen BER");
    }

    #[test]
    fn ber_monotone_in_mpi(p in -16.0f64..-6.0, m1 in -50.0f64..-27.0, dm in 0.5f64..10.0) {
        let rx = Pam4Receiver::cwdm4_50g();
        let b1 = rx.ber(Dbm(p), Db(m1).linear(), None).prob();
        let b2 = rx.ber(Dbm(p), Db(m1 + dm).linear(), None).prob();
        prop_assert!(b2 >= b1 - 1e-18, "more interference cannot improve BER");
    }

    #[test]
    fn oim_never_hurts(p in -16.0f64..-6.0, mpi_db in -50.0f64..-25.0) {
        let rx = Pam4Receiver::cwdm4_50g();
        let m = Db(mpi_db).linear();
        let without = rx.ber(Dbm(p), m, None).prob();
        let with = rx.ber(Dbm(p), m, Some(OimConfig::default())).prob();
        prop_assert!(with <= without + 1e-18);
    }

    #[test]
    fn link_budget_is_component_sum(km in 0.0f64..10.0, launch in -5.0f64..5.0) {
        let link = LinkBudget::superpod_nominal(Dbm(launch), km);
        let sum: f64 = link.components.iter().map(|c| c.insertion_loss.db()).sum();
        prop_assert!((link.total_loss().db() - sum).abs() < 1e-9);
        prop_assert!((link.received_power().dbm() - (launch - sum)).abs() < 1e-9);
    }

    #[test]
    fn mpi_budget_total_is_contribution_sum(km in 0.05f64..5.0) {
        let link = LinkBudget::superpod_nominal(Dbm(1.0), km);
        let b = MpiBudget::from_bidi_link(&link);
        let sum: f64 = b.contributions.iter().map(|c| c.ratio).sum();
        prop_assert!((sum - b.total_ratio).abs() < 1e-12);
        prop_assert!(b.total_ratio > 0.0);
    }

    #[test]
    fn mpi_total_without_the_list_is_the_listed_total_to_the_bit(
        parts in collection::vec(
            prop_oneof![
                (0.0f64..3.0, -70.0f64..-20.0),
                // Lossless −60 dB reflectors: a pair of them bounces
                // exactly 1e-12, on the cutoff.
                Just((0.0, -60.0)),
                (0.0f64..0.5, -61.0f64..-59.0),
            ],
            1..=12usize,
        ),
        launch in -3.0f64..3.0,
    ) {
        let components = parts
            .into_iter()
            .map(|(il, rl)| Component {
                kind: ComponentKind::Connector,
                insertion_loss: Db(il),
                return_loss: Db(rl),
            })
            .collect();
        let link = LinkBudget::new(Dbm(launch), components).expect("1..=12 components");
        let listed = MpiBudget::from_bidi_link(&link).total_ratio;
        // One scratch across two chains: what the first left behind must
        // not reach the second's total.
        let mut scratch = MpiScratch::default();
        scratch.total_ratio(&LinkBudget::superpod_nominal(Dbm(1.0), 0.1));
        prop_assert_eq!(scratch.total_ratio(&link).to_bits(), listed.to_bits());
        prop_assert_eq!(scratch.total_ratio(&link).to_bits(), listed.to_bits());
    }

    #[test]
    fn mpi_worsens_with_link_length(km in 0.1f64..3.0, extra in 0.5f64..5.0) {
        let short = MpiBudget::from_bidi_link(&LinkBudget::superpod_nominal(Dbm(1.0), km));
        let long = MpiBudget::from_bidi_link(&LinkBudget::superpod_nominal(Dbm(1.0), km + extra));
        prop_assert!(long.total_ratio >= short.total_ratio);
    }

    #[test]
    fn dispersion_monotone_in_length(lane_idx in 0usize..8, km in 0.1f64..8.0, extra in 0.1f64..5.0) {
        let fiber = FiberDispersion::default();
        let lane = WdmGrid::Cwdm8.lane(lane_idx).expect("valid lane");
        let p1 = dispersion_penalty(&fiber, &lane, LaneRate::Pam4_100, km, Equalizer::Ffe);
        let p2 = dispersion_penalty(&fiber, &lane, LaneRate::Pam4_100, km + extra, Equalizer::Ffe);
        prop_assert!(p2.db() + 1e-12 >= p1.db());
    }

    #[test]
    fn mlse_never_worse_than_ffe(lane_idx in 0usize..8, km in 0.1f64..10.0) {
        let fiber = FiberDispersion::default();
        let lane = WdmGrid::Cwdm8.lane(lane_idx).expect("valid lane");
        let ffe = dispersion_penalty(&fiber, &lane, LaneRate::Pam4_100, km, Equalizer::Ffe);
        let mlse = dispersion_penalty(&fiber, &lane, LaneRate::Pam4_100, km, Equalizer::Mlse);
        prop_assert!(mlse.db() <= ffe.db() + 1e-12);
    }

    #[test]
    fn sampled_components_stay_physical(seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for kind in [
            ComponentKind::Connector,
            ComponentKind::OcsPass,
            ComponentKind::CirculatorPass,
            ComponentKind::WdmMux,
        ] {
            let c = Component::sampled(kind, &mut rng);
            prop_assert!(c.insertion_loss.db() > 0.0);
            prop_assert!(c.return_loss.db() < 0.0);
            prop_assert!(c.transmission() <= 1.0 && c.transmission() > 0.0);
            prop_assert!(c.reflectance() < 0.02);
        }
    }

    #[test]
    fn sensitivity_sits_on_the_target(mpi_db in -50.0f64..-30.0) {
        let rx = Pam4Receiver::cwdm4_50g();
        let m = Db(mpi_db).linear();
        if let Some(s) = rx.sensitivity(lightwave_units::Ber::KP4_THRESHOLD, m, None) {
            let at = rx.ber(s, m, None).prob();
            prop_assert!((at / 2e-4 - 1.0).abs() < 0.02, "BER at sensitivity: {at:e}");
        }
    }
}
