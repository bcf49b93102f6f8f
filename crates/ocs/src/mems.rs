//! MEMS mirror dies: fabrication yield, qualification, spares, failures.
//!
//! §3.2.2: "To increase yield and redundancy, 176 micro-mirrors were
//! fabricated on each MEMS die from which the best 136 mirrors were used
//! for the switch with additional qualified connections used as
//! manufacturing spares." Each of the two dies in the optical core steers
//! one axis of the path; a port is served by one mirror per die.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use rand_distr::standard_normal_from_bits;
use serde::{Deserialize, Serialize};

/// Mirrors fabricated per die.
pub const FABRICATED_MIRRORS: usize = 176;
/// Mirrors placed in service per die.
pub const SERVICE_MIRRORS: usize = 136;

/// Intrinsic mirror loss as fabricated: N(mean, sigma²) dB, floored.
const LOSS_MEAN_DB: f64 = 0.25;
const LOSS_SIGMA_DB: f64 = 0.08;
const LOSS_FLOOR_DB: f64 = 0.05;

/// The qualification stream of a die, stated once: per fabricated mirror
/// one word decides whether it qualifies (`random_bool`) and the next two
/// are its loss draw (one Box–Muller normal, which
/// [`standard_normal_from_bits`] maps exactly as `Normal::sample` would).
/// Whoever needs only the qualification bits skips the floats; the stream
/// positions are the same either way.
fn mirror_draws(
    seed: u64,
    yield_prob: f64,
    fabricated: usize,
) -> impl Iterator<Item = (bool, u64, u64)> {
    assert!(
        (0.0..=1.0).contains(&yield_prob),
        "yield must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..fabricated).map(move |_| (rng.random_bool(yield_prob), rng.next_u64(), rng.next_u64()))
}

/// Operational state of one micro-mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MirrorState {
    /// In service, steering a port.
    Active,
    /// Qualified at manufacturing but held as a spare.
    Spare,
    /// Failed qualification (bad loss, stiction, dead actuator).
    RejectedAtFab,
    /// Failed in the field (stuck or drifting); needs spare swap.
    Failed,
}

/// One micro-mirror with its quality figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mirror {
    /// Intrinsic excess loss of this mirror at perfect pointing, dB —
    /// mirror curvature/roughness variation from fabrication.
    pub intrinsic_loss_db: f64,
    /// Current state.
    pub state: MirrorState,
}

/// A MEMS die: 176 fabricated mirrors, the best 136 active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemsDie {
    mirrors: Vec<Mirror>,
    /// `port_to_mirror[p]` = index of the mirror currently serving port p.
    port_to_mirror: Vec<usize>,
}

impl MemsDie {
    /// Fabricates the production Palomar die: [`FABRICATED_MIRRORS`]
    /// fabricated, best [`SERVICE_MIRRORS`] in service.
    pub fn fabricate(seed: u64, yield_prob: f64) -> Result<MemsDie, DieYieldError> {
        Self::fabricate_sized(seed, yield_prob, FABRICATED_MIRRORS, SERVICE_MIRRORS)
    }

    /// Fabricates a die of arbitrary size — e.g. the §6 next-generation
    /// 300-port part ("our current internal development efforts to
    /// manufacture a larger 300×300 MEMS-based OCS").
    ///
    /// `yield_prob` is the probability a fabricated mirror qualifies at
    /// all; fabrication fails if fewer than `service` mirrors qualify.
    pub fn fabricate_sized(
        seed: u64,
        yield_prob: f64,
        fabricated: usize,
        service: usize,
    ) -> Result<MemsDie, DieYieldError> {
        assert!(
            service <= fabricated,
            "cannot field more mirrors than fabricated"
        );
        let mut mirrors: Vec<Mirror> = mirror_draws(seed, yield_prob, fabricated)
            .map(|(qualifies, b1, b2)| Mirror {
                intrinsic_loss_db: (LOSS_MEAN_DB
                    + LOSS_SIGMA_DB * standard_normal_from_bits(b1, b2))
                .max(LOSS_FLOOR_DB),
                state: if qualifies {
                    MirrorState::Spare
                } else {
                    MirrorState::RejectedAtFab
                },
            })
            .collect();

        // Rank qualified mirrors by loss; the best `service` go active.
        let mut qualified: Vec<usize> = (0..fabricated)
            .filter(|&i| mirrors[i].state == MirrorState::Spare)
            .collect();
        if qualified.len() < service {
            return Err(DieYieldError {
                qualified: qualified.len(),
                needed: service,
            });
        }
        qualified.sort_by(|&a, &b| {
            mirrors[a]
                .intrinsic_loss_db
                .partial_cmp(&mirrors[b].intrinsic_loss_db)
                .expect("losses are finite")
        });
        let port_to_mirror: Vec<usize> = qualified[..service].to_vec();
        for &m in &port_to_mirror {
            mirrors[m].state = MirrorState::Active;
        }
        Ok(MemsDie {
            mirrors,
            port_to_mirror,
        })
    }

    /// [`MemsDie::spares_remaining`] of the die [`MemsDie::fabricate_sized`]
    /// would build from the same arguments, or its yield error, from the
    /// qualification draws alone: spares as built are the mirrors that
    /// qualified beyond the `service` best, so no loss is computed and
    /// nothing is ranked or allocated. (`service > fabricated`, which
    /// `fabricate_sized` refuses to attempt, is a yield error here.)
    pub fn spares_as_built(
        seed: u64,
        yield_prob: f64,
        fabricated: usize,
        service: usize,
    ) -> Result<usize, DieYieldError> {
        let qualified = mirror_draws(seed, yield_prob, fabricated)
            .filter(|&(qualifies, ..)| qualifies)
            .count();
        qualified.checked_sub(service).ok_or(DieYieldError {
            qualified,
            needed: service,
        })
    }

    /// The mirror currently serving `port`.
    ///
    /// # Panics
    /// Panics if `port ≥ 136`.
    pub fn mirror_for_port(&self, port: usize) -> &Mirror {
        &self.mirrors[self.port_to_mirror[port]]
    }

    /// Number of healthy spares remaining.
    pub fn spares_remaining(&self) -> usize {
        self.mirrors
            .iter()
            .filter(|m| m.state == MirrorState::Spare)
            .count()
    }

    /// Number of ports this die serves.
    pub fn service_ports(&self) -> usize {
        self.port_to_mirror.len()
    }

    /// Marks the mirror serving `port` failed and swaps in the best spare.
    ///
    /// Returns `true` if a spare was available (port restored), `false` if
    /// the die is out of spares (port permanently degraded — a field
    /// replacement of the whole core is needed).
    pub fn fail_and_swap(&mut self, port: usize) -> bool {
        let old = self.port_to_mirror[port];
        self.mirrors[old].state = MirrorState::Failed;
        let best_spare = (0..self.mirrors.len())
            .filter(|&i| self.mirrors[i].state == MirrorState::Spare)
            .min_by(|&a, &b| {
                self.mirrors[a]
                    .intrinsic_loss_db
                    .partial_cmp(&self.mirrors[b].intrinsic_loss_db)
                    .expect("losses are finite")
            });
        match best_spare {
            Some(s) => {
                self.mirrors[s].state = MirrorState::Active;
                self.port_to_mirror[port] = s;
                true
            }
            None => false,
        }
    }

    /// Degrades the mirror currently serving `port` by `loss_db` of
    /// additional intrinsic loss — the slow optical creep (contamination,
    /// actuator drift) that the 850 nm monitor path exists to catch
    /// (§3.2.2: the link budget erodes in tenths of a dB, silently).
    ///
    /// The mirror stays `Active`: degradation raises the served path's
    /// loss and drift but, unlike [`MemsDie::fail_and_swap`], changes no
    /// state and raises no alarm — detection is the health layer's job.
    pub fn degrade(&mut self, port: usize, loss_db: f64) {
        self.mirrors[self.port_to_mirror[port]].intrinsic_loss_db += loss_db.max(0.0);
    }

    /// Count of mirrors in each state `(active, spare, rejected, failed)`.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for m in &self.mirrors {
            match m.state {
                MirrorState::Active => c.0 += 1,
                MirrorState::Spare => c.1 += 1,
                MirrorState::RejectedAtFab => c.2 += 1,
                MirrorState::Failed => c.3 += 1,
            }
        }
        c
    }
}

/// A die failed fabrication: not enough qualifying mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DieYieldError {
    /// How many mirrors qualified.
    pub qualified: usize,
    /// How many were needed.
    pub needed: usize,
}

impl std::fmt::Display for DieYieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "die yield failure: only {} mirrors qualified (need {})",
            self.qualified, self.needed
        )
    }
}

impl std::error::Error for DieYieldError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabrication_activates_best_136() {
        let die = MemsDie::fabricate(1, 0.95).expect("95% yield fabricates");
        let (active, spare, rejected, failed) = die.census();
        assert_eq!(active, SERVICE_MIRRORS);
        assert_eq!(active + spare + rejected + failed, FABRICATED_MIRRORS);
        assert_eq!(failed, 0);
        // Every active mirror is at least as good as every spare.
        let worst_active = (0..SERVICE_MIRRORS)
            .map(|p| die.mirror_for_port(p).intrinsic_loss_db)
            .fold(0.0f64, f64::max);
        let best_spare = die
            .mirrors
            .iter()
            .filter(|m| m.state == MirrorState::Spare)
            .map(|m| m.intrinsic_loss_db)
            .fold(f64::INFINITY, f64::min);
        assert!(worst_active <= best_spare + 1e-12);
    }

    #[test]
    fn low_yield_fails_fabrication() {
        // At 50% yield, expect ~88 qualified of 176 — not enough.
        let err = MemsDie::fabricate(2, 0.5).unwrap_err();
        assert!(err.qualified < SERVICE_MIRRORS);
    }

    #[test]
    fn spare_swap_restores_port() {
        let mut die = MemsDie::fabricate(3, 0.95).unwrap();
        let spares_before = die.spares_remaining();
        assert!(spares_before > 0, "healthy die has spares");
        let old_loss = die.mirror_for_port(7).intrinsic_loss_db;
        assert!(die.fail_and_swap(7));
        assert_eq!(die.spares_remaining(), spares_before - 1);
        assert_eq!(die.mirror_for_port(7).state, MirrorState::Active);
        // Swapped-in spare is (weakly) worse than the original best pick.
        assert!(die.mirror_for_port(7).intrinsic_loss_db >= old_loss - 1e-12);
    }

    #[test]
    fn degrade_raises_loss_without_changing_state() {
        let mut die = MemsDie::fabricate(5, 0.95).unwrap();
        let (active, spare, _, failed) = die.census();
        let before = die.mirror_for_port(11).intrinsic_loss_db;
        die.degrade(11, 0.03);
        die.degrade(11, 0.03);
        let after = die.mirror_for_port(11).intrinsic_loss_db;
        assert!((after - before - 0.06).abs() < 1e-12);
        assert_eq!(die.mirror_for_port(11).state, MirrorState::Active);
        assert_eq!(die.census(), (active, spare, 176 - active - spare, failed));
        // Negative deltas are clamped: degradation only accumulates.
        die.degrade(11, -1.0);
        assert_eq!(die.mirror_for_port(11).intrinsic_loss_db, after);
    }

    #[test]
    fn exhausting_spares_reports_failure() {
        let mut die = MemsDie::fabricate(4, 0.95).unwrap();
        let mut port = 0usize;
        while die.spares_remaining() > 0 {
            assert!(die.fail_and_swap(port % SERVICE_MIRRORS));
            port += 1;
        }
        assert!(!die.fail_and_swap(0), "no spares left");
    }

    #[test]
    fn next_gen_300_port_die_fabricates() {
        // §6: the 300×300 part needs ~380 fabricated mirrors at 95% yield
        // to field 300 with spares left over.
        let die = MemsDie::fabricate_sized(21, 0.95, 380, 300).expect("yields");
        assert_eq!(die.service_ports(), 300);
        assert!(die.spares_remaining() > 20);
    }

    #[test]
    fn fabrication_is_deterministic_per_seed() {
        let a = MemsDie::fabricate(9, 0.95).unwrap();
        let b = MemsDie::fabricate(9, 0.95).unwrap();
        assert_eq!(a, b);
    }

    proptest::proptest! {
        /// The count read off the qualification words alone is the count
        /// of the die those words build — or its yield error, payload and
        /// all — at every die size in the tree and at yields low enough
        /// that fabrication fails often.
        #[test]
        fn spares_as_built_is_the_fabricated_dies_spare_count(
            seed in proptest::prelude::any::<u64>(),
            size in proptest::sample::select(vec![
                (6usize, 4usize), (11, 8), (21, 16), (177, 136), (389, 300),
            ]),
            yield_prob in proptest::sample::select(vec![0.95, 0.8, 0.5]),
        ) {
            let (fabricated, service) = size;
            proptest::prop_assert_eq!(
                MemsDie::spares_as_built(seed, yield_prob, fabricated, service),
                MemsDie::fabricate_sized(seed, yield_prob, fabricated, service)
                    .map(|die| die.spares_remaining())
            );
        }
    }
}
