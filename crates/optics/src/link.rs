//! End-to-end optical link budgets.
//!
//! A [`LinkBudget`] is an ordered chain of [`Component`]s from transmitter
//! flange to receiver flange. It answers the questions the paper's §3.3.1
//! ("Larger optical link budget") revolves around: what power reaches the
//! receiver, how much margin remains above the sensitivity floor, and — via
//! [`crate::mpi`] — how much of the local transmitter's light leaks back
//! into the local receiver on a bidirectional link.

use crate::components::{Component, ComponentKind};
use lightwave_units::{Db, Dbm};
use serde::{Deserialize, Serialize};

/// Errors constructing or evaluating a link budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkBudgetError {
    /// The chain has no components (a link needs at least a fiber).
    Empty,
}

impl std::fmt::Display for LinkBudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkBudgetError::Empty => write!(f, "link budget has no components"),
        }
    }
}

impl std::error::Error for LinkBudgetError {}

/// An ordered optical path from Tx output to Rx input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Launch power at the transmitter flange.
    pub launch_power: Dbm,
    /// Components in propagation order, Tx side first.
    pub components: Vec<Component>,
}

impl LinkBudget {
    /// Creates a budget over a component chain.
    pub fn new(
        launch_power: Dbm,
        components: Vec<Component>,
    ) -> Result<LinkBudget, LinkBudgetError> {
        if components.is_empty() {
            return Err(LinkBudgetError::Empty);
        }
        Ok(LinkBudget {
            launch_power,
            components,
        })
    }

    /// The canonical ML-superpod bidirectional path (Fig. 3b): Tx →
    /// circulator → connector → fiber → OCS pass → fiber → connector →
    /// circulator → Rx, with WDM mux/demux inside the modules.
    ///
    /// `fiber_km` is the total one-way fiber length.
    pub fn superpod_nominal(launch_power: Dbm, fiber_km: f64) -> LinkBudget {
        LinkBudget {
            launch_power,
            components: vec![
                Component::nominal(ComponentKind::WdmMux),
                Component::nominal(ComponentKind::CirculatorPass),
                Component::nominal(ComponentKind::Connector),
                Component::fiber_span(fiber_km / 2.0),
                Component::nominal(ComponentKind::OcsPass),
                Component::fiber_span(fiber_km / 2.0),
                Component::nominal(ComponentKind::Connector),
                Component::nominal(ComponentKind::CirculatorPass),
                Component::nominal(ComponentKind::WdmDemux),
            ],
        }
    }

    /// Total insertion loss of the chain.
    pub fn total_loss(&self) -> Db {
        self.components.iter().map(|c| c.insertion_loss).sum()
    }

    /// Power arriving at the receiver flange.
    pub fn received_power(&self) -> Dbm {
        self.launch_power - self.total_loss()
    }

    /// Margin above a receiver sensitivity (positive = healthy link).
    pub fn margin(&self, sensitivity: Dbm) -> Db {
        self.received_power() - sensitivity
    }

    /// Linear end-to-end power transmission.
    pub fn transmission(&self) -> f64 {
        (-self.total_loss()).linear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chain_is_rejected() {
        assert_eq!(
            LinkBudget::new(Dbm(0.0), vec![]).unwrap_err(),
            LinkBudgetError::Empty
        );
    }

    #[test]
    fn superpod_nominal_loss_is_within_budget() {
        // Mux 1.0 + circ 0.8 + conn 0.25 + fiber 0.035·... + OCS 1.6 + ...
        let link = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        let loss = link.total_loss().db();
        // Component sum: 1.0+0.8+0.25+0.035+1.6+0.035+0.25+0.8+1.0 = 5.77
        assert!((loss - 5.77).abs() < 0.01, "got {loss}");
        assert!((link.received_power().dbm() - (1.0 - loss)).abs() < 1e-12);
    }

    #[test]
    fn margin_is_signed() {
        let link = LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
        assert!(link.margin(Dbm(-12.0)).db() > 0.0);
        assert!(link.margin(Dbm(-2.0)).db() < 0.0);
    }

    #[test]
    fn loss_in_db_equals_linear_product() {
        let link = LinkBudget::superpod_nominal(Dbm(0.0), 2.0);
        let via_db = (-link.total_loss()).linear();
        let via_linear = link.transmission();
        assert!((via_db - via_linear).abs() < 1e-12);
    }
}
