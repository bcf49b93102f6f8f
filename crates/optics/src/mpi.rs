//! Multi-path interference (MPI) budgets for bidirectional links.
//!
//! On a traditional duplex link, interference needs *two* reflections: the
//! signal bounces backward off one interface and forward off another before
//! reaching the receiver, so each contribution scales as `r_i · r_j` — tiny.
//!
//! A circulator-based bidi link is far less forgiving (§3.3.1, §4.1.2 and
//! Appendix B): the local receiver listens on the *same fiber strand* the
//! local transmitter talks on. Any interface that reflects `r_i` of the
//! local Tx light sends it straight back through circulator port 2→3 into
//! the local Rx, where it lands **in-band** on top of the (much weaker,
//! link-attenuated) remote signal. Contributions scale as a *single* `r_i`
//! — which is exactly why the paper drives OCS return loss below −38 dB and
//! re-engineers circulator crosstalk.
//!
//! [`MpiBudget::from_bidi_link`] computes the interferer-to-signal ratio
//! from a [`LinkBudget`]: each component reflects `r_i`, attenuated by the
//! round trip to and from that component (`T_i²`), compared against the
//! remote signal which arrives through the full link (`T`). The circulator's
//! finite Tx→Rx isolation adds a direct leakage term. [`MpiScratch`] reads
//! the same total, to the bit, without listing the terms: what a census
//! evaluating thousands of links needs.

use crate::components::ComponentKind;
use crate::link::LinkBudget;
use lightwave_units::Db;
use serde::{Deserialize, Serialize};

/// A single interference contribution, for diagnosis and budget tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpiContribution {
    /// Where the reflection happened.
    pub source: MpiSource,
    /// Interferer-to-signal power ratio (linear).
    pub ratio: f64,
}

impl MpiContribution {
    /// The contribution in dB (negative; more negative = weaker interferer).
    pub fn ratio_db(&self) -> Db {
        Db(10.0 * self.ratio.log10())
    }
}

/// Origin of an interference term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpiSource {
    /// Single reflection of local Tx light at component index `usize`.
    Reflection(usize, ComponentKind),
    /// Direct Tx→Rx leakage through the circulator (finite isolation).
    CirculatorLeakage,
    /// Double-bounce of the remote signal between two components.
    DoubleBounce(usize, usize),
}

/// The full interference budget of one bidirectional link direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpiBudget {
    /// Individual contributions, largest first.
    pub contributions: Vec<MpiContribution>,
    /// Total interferer-to-signal power ratio (linear sum of contributions).
    pub total_ratio: f64,
}

/// Default circulator Tx→Rx isolation (port 1 → port 3 leakage), in dB.
/// The paper's circulators were re-engineered specifically to reduce this
/// crosstalk (§3.3.1); −50 dB is the nominal achieved figure used here.
pub(crate) const CIRCULATOR_ISOLATION_DB: f64 = -50.0;

impl MpiBudget {
    /// Computes the bidi interference budget for one direction of a link.
    ///
    /// Assumes both ends launch equal power (true of matched transceivers),
    /// so ratios are independent of absolute launch power.
    pub fn from_bidi_link(link: &LinkBudget) -> MpiBudget {
        Self::from_bidi_link_with_isolation(link, Db(CIRCULATOR_ISOLATION_DB))
    }

    /// As [`MpiBudget::from_bidi_link`], with explicit circulator isolation.
    pub(crate) fn from_bidi_link_with_isolation(link: &LinkBudget, isolation: Db) -> MpiBudget {
        let n = link.components.len();
        let mut reach = Vec::with_capacity(n);
        let mut contributions = Vec::with_capacity(term_capacity(n));
        for_each_term(link, isolation, &mut reach, |source, ratio| {
            contributions.push(MpiContribution { source, ratio });
        });
        contributions.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("ratios are finite"));
        let total_ratio = contributions.iter().map(|c| c.ratio).sum();
        MpiBudget {
            contributions,
            total_ratio,
        }
    }

    /// Total interference ratio in dB.
    pub fn total_db(&self) -> Db {
        Db(10.0 * self.total_ratio.log10())
    }

    /// The single largest contribution.
    pub fn dominant(&self) -> &MpiContribution {
        self.contributions
            .first()
            .expect("budget has contributions")
    }
}

/// The most terms a chain of `n` components generates: `n` single
/// reflections, the leakage, and every pair's double bounce.
fn term_capacity(n: usize) -> usize {
    n + 1 + n * n.saturating_sub(1) / 2
}

/// Every term of one direction's budget, in generation order: the single
/// reflections by component, the circulator leakage, then the double
/// bounces above the cutoff by `(i, j)`. The one place the formulas live;
/// [`MpiBudget::from_bidi_link_with_isolation`] lists the terms and
/// [`MpiScratch::total_ratio`] only sums them. `reach` is the caller's
/// buffer for the `(T_i, r_i)` fold.
fn for_each_term(
    link: &LinkBudget,
    isolation: Db,
    reach: &mut Vec<(f64, f64)>,
    mut emit: impl FnMut(MpiSource, f64),
) {
    let signal_transmission = link.transmission();
    assert!(
        signal_transmission > 0.0,
        "link transmission must be positive"
    );
    // Per component, once: `(T_i, r_i)`, T_i the transmission up to but
    // not including component i, folded left from the Tx flange in chain
    // order: the order `tests/vectors/model_seam/mpi_budget.json` pins.
    let mut prefix = 1.0;
    reach.clear();
    reach.extend(link.components.iter().map(|c| {
        let t_i = prefix;
        prefix *= c.transmission();
        (t_i, c.reflectance())
    }));

    // Single reflections of local Tx light. The round trip to component
    // i and back is T_i²; the reflected light then re-enters the local
    // receiver. Compared to the remote signal (attenuated by the full
    // link, T), the ratio is r_i · T_i² / T.
    for (i, (c, &(t_i, r_i))) in link.components.iter().zip(reach.iter()).enumerate() {
        emit(
            MpiSource::Reflection(i, c.kind),
            r_i * t_i * t_i / signal_transmission,
        );
    }

    // Circulator direct leakage: local Tx couples into local Rx at the
    // isolation figure, independent of the link.
    emit(
        MpiSource::CirculatorLeakage,
        isolation.linear() / signal_transmission,
    );

    // Double bounces of the remote signal (the classic duplex MPI term):
    // remote light passes j, reflects backward at j, reflects forward
    // again at i (< j), and arrives delayed. Ratio r_i · r_j · T_ij²
    // where T_ij is the extra double-pass between the two reflectors.
    for (i, &(t_i, r_i)) in reach.iter().enumerate() {
        for (j, &(t_j, r_j)) in reach.iter().enumerate().skip(i + 1) {
            let t_between = t_j / t_i;
            let ratio = r_i * r_j * t_between * t_between;
            if ratio > 1e-12 {
                emit(MpiSource::DoubleBounce(i, j), ratio);
            }
        }
    }
}

/// Buffers for reading a budget's total without listing its terms — what
/// a census reuses across its ports, so a link's MPI costs no allocation
/// once the buffers have grown to the chain.
#[derive(Debug, Default)]
pub struct MpiScratch {
    reach: Vec<(f64, f64)>,
    ratios: Vec<f64>,
}

impl MpiScratch {
    /// `MpiBudget::from_bidi_link(link).total_ratio`, to the bit. The
    /// ratios are positive and finite, so equal ratios are equal bits and
    /// any descending order of them is the sorted list's order: sorting
    /// the bare ratios, unstably, sums the same sequence.
    pub fn total_ratio(&mut self, link: &LinkBudget) -> f64 {
        let ratios = &mut self.ratios;
        ratios.clear();
        ratios.reserve_exact(term_capacity(link.components.len()));
        for_each_term(
            link,
            Db(CIRCULATOR_ISOLATION_DB),
            &mut self.reach,
            |_, ratio| ratios.push(ratio),
        );
        ratios.sort_unstable_by(|a, b| b.partial_cmp(a).expect("ratios are finite"));
        ratios.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{Component, ComponentKind};
    use lightwave_units::Dbm;

    #[test]
    fn nominal_superpod_link_mpi_in_expected_band() {
        let link = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        let budget = MpiBudget::from_bidi_link(&link);
        let db = budget.total_db().db();
        // Well-built link: total MPI should land between the paper's
        // "interesting" band edges (−26 dB is bad, −38 dB is spec floor).
        assert!(
            (-45.0..=-32.0).contains(&db),
            "nominal MPI {db} dB out of expected band"
        );
    }

    #[test]
    fn worse_return_loss_worsens_mpi() {
        let mut link = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        let nominal = MpiBudget::from_bidi_link(&link).total_ratio;
        // Degrade the OCS to its spec-limit return loss of −38 dB.
        for c in &mut link.components {
            if c.kind == ComponentKind::OcsPass {
                c.return_loss = lightwave_units::Db(-38.0);
            }
        }
        let degraded = MpiBudget::from_bidi_link(&link).total_ratio;
        assert!(
            degraded > nominal * 1.5,
            "a -38 dB OCS should dominate the budget"
        );
    }

    #[test]
    fn lossier_link_has_worse_relative_mpi() {
        // More link loss means a weaker remote signal against the same local
        // reflections — the ratio must get worse. This is why the OCS IL and
        // RL specs interact.
        let short = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        let long = LinkBudget::superpod_nominal(Dbm(1.0), 4.0);
        let m_short = MpiBudget::from_bidi_link(&short).total_ratio;
        let m_long = MpiBudget::from_bidi_link(&long).total_ratio;
        assert!(m_long > m_short);
    }

    #[test]
    fn single_reflections_dominate_double_bounces() {
        let link = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        let budget = MpiBudget::from_bidi_link(&link);
        let single: f64 = budget
            .contributions
            .iter()
            .filter(|c| {
                matches!(
                    c.source,
                    MpiSource::Reflection(..) | MpiSource::CirculatorLeakage
                )
            })
            .map(|c| c.ratio)
            .sum();
        let double: f64 = budget
            .contributions
            .iter()
            .filter(|c| matches!(c.source, MpiSource::DoubleBounce(..)))
            .map(|c| c.ratio)
            .sum();
        assert!(
            single > 100.0 * double,
            "bidi links are dominated by single reflections (single={single:.3e} double={double:.3e})"
        );
    }

    #[test]
    fn better_isolation_reduces_total() {
        let link = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        let loose = MpiBudget::from_bidi_link_with_isolation(&link, Db(-35.0));
        let tight = MpiBudget::from_bidi_link_with_isolation(&link, Db(-60.0));
        assert!(loose.total_ratio > tight.total_ratio);
        // At -35 dB the circulator leakage should be the dominant term.
        assert_eq!(loose.dominant().source, MpiSource::CirculatorLeakage);
    }

    #[test]
    fn contributions_sorted_and_sum_to_total() {
        let link = LinkBudget::new(
            Dbm(0.0),
            vec![
                Component::nominal(ComponentKind::Connector),
                Component::nominal(ComponentKind::OcsPass),
                Component::nominal(ComponentKind::Connector),
            ],
        )
        .unwrap();
        let b = MpiBudget::from_bidi_link(&link);
        let sum: f64 = b.contributions.iter().map(|c| c.ratio).sum();
        assert!((sum - b.total_ratio).abs() < 1e-15);
        for w in b.contributions.windows(2) {
            assert!(w[0].ratio >= w[1].ratio, "contributions must be sorted");
        }
    }

    #[test]
    fn the_scratch_total_is_the_listed_total_and_reuses_its_buffers() {
        let mut scratch = MpiScratch::default();
        for km in [0.02, 0.2, 4.0] {
            let link = LinkBudget::superpod_nominal(Dbm(1.0), km);
            let listed = MpiBudget::from_bidi_link(&link);
            assert_eq!(
                scratch.total_ratio(&link).to_bits(),
                listed.total_ratio.to_bits()
            );
            assert_eq!(scratch.ratios.len(), listed.contributions.len());
            assert_eq!(scratch.ratios.capacity(), term_capacity(9));
            assert_eq!(scratch.reach.capacity(), 9);
        }
    }
}
