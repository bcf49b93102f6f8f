//! OCS technology comparison (Table C.1) and selection logic.
//!
//! Appendix C compares the optical-switching technologies that could build
//! a large-radix OCS. The paper's conclusion (§3.2.1): "MEMS OCS technology
//! currently provides the best match for meeting the system-level
//! challenges and the practical constraints of scale and economics for both
//! the datacenter and ML use cases."

use lightwave_units::{Db, Nanos};
use serde::{Deserialize, Serialize};

/// Relative cost class at the stated scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CostClass {
    /// Lowest cost per port.
    Low,
    /// Mid-range.
    Medium,
    /// Highest cost per port.
    High,
    /// Not yet established commercially.
    Tbd,
}

/// One row of Table C.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcsTechnology {
    /// Technology name.
    pub name: &'static str,
    /// Relative cost at the stated scale.
    pub cost: CostClass,
    /// Maximum demonstrated port count (square radix).
    pub max_ports: u32,
    /// Reconfiguration time.
    pub switching_time: Nanos,
    /// Worst-case insertion loss including connectors.
    pub insertion_loss: Db,
    /// Mirror/actuator driving voltage, volts (0 = none).
    pub driving_voltage: f64,
    /// Whether the switch holds state across power failure.
    pub latching: bool,
}

/// All rows of Table C.1.
pub fn table_c1() -> Vec<OcsTechnology> {
    vec![
        OcsTechnology {
            name: "MEMS",
            cost: CostClass::Medium,
            max_ports: 320,
            switching_time: Nanos::from_millis(10),
            insertion_loss: Db(3.0),
            driving_voltage: 100.0,
            latching: false,
        },
        OcsTechnology {
            name: "Robotic",
            cost: CostClass::Medium,
            max_ports: 1008,
            switching_time: Nanos::from_secs_f64(60.0), // minutes per connection
            insertion_loss: Db(1.0),
            driving_voltage: 0.0,
            latching: true,
        },
        OcsTechnology {
            name: "Piezo",
            cost: CostClass::High,
            max_ports: 576,
            switching_time: Nanos::from_millis(10),
            insertion_loss: Db(2.5),
            driving_voltage: 10.0,
            latching: false,
        },
        OcsTechnology {
            name: "Guided Wave",
            cost: CostClass::Low,
            max_ports: 16,
            switching_time: Nanos(100), // nanoseconds
            insertion_loss: Db(6.0),
            driving_voltage: 1.0,
            latching: false,
        },
        OcsTechnology {
            name: "Wavelength",
            cost: CostClass::Tbd,
            max_ports: 100,
            switching_time: Nanos(100),
            insertion_loss: Db(6.0),
            driving_voltage: 0.0,
            latching: true,
        },
    ]
}

/// Requirements for an OCS selection (§2.3 distilled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Requirements {
    /// Minimum square radix needed.
    pub min_ports: u32,
    /// Maximum tolerable insertion loss (link-budget driven).
    pub max_insertion_loss: Db,
    /// Maximum tolerable switching time.
    pub max_switching_time: Nanos,
    /// Whether High cost class is acceptable.
    pub allow_high_cost: bool,
}

impl Requirements {
    /// The paper's datacenter/ML requirements: ≥ 128 usable duplex ports,
    /// < 3 dB loss (cost-effective transceivers, §3.2.1), switching in
    /// seconds is fine (topologies are long-lived), commodity economics.
    pub fn paper_use_cases() -> Requirements {
        Requirements {
            min_ports: 136,
            max_insertion_loss: Db(3.0),
            max_switching_time: Nanos::from_secs_f64(10.0),
            allow_high_cost: false,
        }
    }
}

/// Technologies satisfying the requirements, in table order.
pub fn select(reqs: &Requirements) -> Vec<OcsTechnology> {
    table_c1()
        .into_iter()
        .filter(|t| {
            t.max_ports >= reqs.min_ports
                && t.insertion_loss.db() <= reqs.max_insertion_loss.db()
                && t.switching_time <= reqs.max_switching_time
                && (reqs.allow_high_cost || t.cost != CostClass::High)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_five_rows() {
        assert_eq!(table_c1().len(), 5);
    }

    #[test]
    fn mems_wins_the_paper_requirements() {
        // The paper's own conclusion falls out of the table: MEMS is the
        // only technology meeting radix + loss + cost simultaneously.
        let winners = select(&Requirements::paper_use_cases());
        assert_eq!(winners.len(), 1, "expected a unique winner: {winners:?}");
        assert_eq!(winners[0].name, "MEMS");
    }

    #[test]
    fn robotic_fails_on_switching_time() {
        let mut reqs = Requirements::paper_use_cases();
        reqs.max_switching_time = Nanos::from_secs_f64(3600.0);
        let names: Vec<_> = select(&reqs).iter().map(|t| t.name).collect();
        assert!(names.contains(&"Robotic"), "relaxing time admits Robotic");
    }

    #[test]
    fn guided_wave_fails_on_radix_and_loss() {
        let gw = table_c1()
            .into_iter()
            .find(|t| t.name == "Guided Wave")
            .unwrap();
        let reqs = Requirements::paper_use_cases();
        assert!(gw.max_ports < reqs.min_ports);
        assert!(gw.insertion_loss.db() > reqs.max_insertion_loss.db());
    }

    #[test]
    fn fast_switching_technologies_exist_for_future_use_cases() {
        // §6: nanosecond/microsecond switching motivates other techs.
        let fast: Vec<_> = table_c1()
            .into_iter()
            .filter(|t| t.switching_time < Nanos(1_000))
            .map(|t| t.name)
            .collect();
        assert_eq!(fast, vec!["Guided Wave", "Wavelength"]);
    }
}
