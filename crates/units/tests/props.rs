//! Property tests for unit algebra and numerics.

use lightwave_units::{math, Availability, Ber, Db, Dbm};
use proptest::prelude::*;

proptest! {
    #[test]
    fn db_linear_roundtrip(x in 1e-6f64..1e6) {
        let db = Db::from_linear(x);
        prop_assert!((db.linear() / x - 1.0).abs() < 1e-10);
    }

    #[test]
    fn db_addition_is_linear_multiplication(a in -40.0f64..40.0, b in -40.0f64..40.0) {
        let lhs = [Db(a), Db(b)].into_iter().sum::<Db>().linear();
        let rhs = Db(a).linear() * Db(b).linear();
        prop_assert!((lhs / rhs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dbm_margin_algebra(p in -30.0f64..10.0, loss in 0.0f64..30.0) {
        let launch = Dbm(p);
        let rx = launch - Db(loss);
        prop_assert!(((launch - rx).db() - loss).abs() < 1e-12);
        // Linear power always decreases under loss.
        prop_assert!(rx.milliwatts().mw() <= launch.milliwatts().mw());
    }

    #[test]
    fn availability_series_never_exceeds_components(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let s = Availability::series([Availability::new(a), Availability::new(b)]);
        prop_assert!(s.prob() <= a.min(b) + 1e-15);
        let p = Availability::new(a).parallel(Availability::new(b));
        prop_assert!(p.prob() + 1e-15 >= a.max(b));
        prop_assert!((0.0..=1.0).contains(&p.prob()));
    }

    #[test]
    fn series_of_matches_repeated_series(a in 0.5f64..1.0, n in 1u32..100) {
        let direct = Availability::new(a).series_of(n).prob();
        let manual: f64 = (0..n).map(|_| a).product();
        prop_assert!((direct - manual).abs() < 1e-12);
    }

    #[test]
    fn ber_q_factor_is_monotone(q1 in 0.5f64..7.0, dq in 0.01f64..2.0) {
        let b1 = Ber::from_q_factor(q1);
        let b2 = Ber::from_q_factor(q1 + dq);
        prop_assert!(b2.prob() < b1.prob(), "higher Q must mean lower BER");
    }

    #[test]
    fn erfc_bounds_and_symmetry(x in -5.0f64..5.0) {
        let e = math::erfc(x);
        prop_assert!((0.0..=2.0).contains(&e));
        prop_assert!((math::erfc(-x) - (2.0 - e)).abs() < 1e-6);
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.5f64..50.0) {
        // Γ(x+1) = x·Γ(x)  ⇔  lnΓ(x+1) = ln x + lnΓ(x).
        let lhs = math::ln_gamma(x + 1.0);
        let rhs = x.ln() + math::ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn binomial_tail_complements(n in 1u64..60, p in 0.0f64..=1.0) {
        // P(X > 0) + P(X = 0) = 1.
        let tail = math::binomial_tail_gt(n, 0, p);
        let p0 = (1.0 - p).powi(n as i32);
        prop_assert!((tail + p0 - 1.0).abs() < 1e-9);
    }
}
