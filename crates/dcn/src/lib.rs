//! Datacenter-network models: the spine-free evolution (Fig. 1) and its
//! topology-engineering gains (§2.1, §4.2).
//!
//! The paper's DCN story (detailed in Poutievski et al., SIGCOMM'22, and
//! summarized in §4.2): replacing the spine layer of a Clos fabric with
//! OCSes that directly interconnect aggregation blocks saves ~30% capex
//! and ~41% power, and — because the OCS topology can be *engineered* to
//! match long-lived traffic — improves flow completion time ~10% and TCP
//! throughput ~30% over a uniform mesh.
//!
//! - [`topology`] — aggregation-block graphs: spine-full Clos, uniform
//!   spine-free mesh, and traffic-engineered spine-free mesh.
//! - [`traffic`] — traffic-matrix generators (uniform, gravity, hotspot).
//! - [`te`] — the topology-engineering solver: allocate inter-AB trunks
//!   proportionally to forecast demand (largest-remainder rounding under
//!   per-AB radix budgets).
//! - [`flowsim`] — max-min fair throughput allocation with direct +
//!   two-hop transit routing, yielding throughput and FCT comparisons.
//! - [`realize`] — mapping a logical mesh onto live OCS hardware and
//!   re-engineering it with minimal-delta transactions.
//! - [`campus`] — the campus use case: topology engineering tracking
//!   service turnup/turndown over time (§1, §6).
//! - [`refresh`] — rapid technology refresh: heterogeneous transceiver
//!   generations interoperating on a rate-agnostic OCS (§2.1).
//! - [`cost`] — the component-structure cost/power model behind Table 1
//!   and the Fig. 1 savings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A bad argument is refused as an `Err`; the few remaining sites carry an
// `allow` naming the invariant they rely on (tests are exempt, clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod campus;
pub mod cost;
pub mod flowsim;
pub mod realize;
pub mod refresh;
pub mod te;
pub mod topology;
pub mod traffic;

pub use realize::DcnFabric;
pub use topology::Mesh;
pub use traffic::TrafficMatrix;
