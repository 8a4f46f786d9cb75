//! Bit-level discrete-event simulation kernel.
//!
//! The analytic cost algebra in [`orthotrees_vlsi`] prices every
//! communication primitive from the layout's wire lengths. This crate
//! provides an independent check: a small discrete-event engine in which
//! *individual bits* travel over wires with model-priced delays and pipeline
//! behind each other exactly as Thompson's model prescribes ("the amplifier
//! stages are individually clocked and pipelining can be used to transmit
//! one bit every O(1) units of time", paper §I.A).
//!
//! The [`experiments`] module builds bit-level models of the OTN's tree
//! primitives (broadcast, send, bit-serial SUM and MIN) and measures their
//! completion times; the workspace's tests assert these agree *exactly* with
//! the closed-form costs of
//! [`CostModel`](orthotrees_vlsi::CostModel) for every delay model.
//!
//! # Example
//!
//! ```
//! use orthotrees_sim::experiments::broadcast_completion_time;
//! use orthotrees_vlsi::CostModel;
//!
//! let m = CostModel::thompson(16);
//! let simulated = broadcast_completion_time(16, &m)?;
//! let analytic = m.tree_root_to_leaf(16, m.leaf_pitch());
//! assert_eq!(simulated, analytic);
//! # Ok::<(), orthotrees_vlsi::SimError>(())
//! ```

mod calendar;
mod engine;
pub mod experiments;
pub mod fault;
mod link;
mod node;
mod record;
pub mod recovery;
pub mod snapshot;

pub use calendar::CalendarKind;
pub use engine::{Engine, EventLog, RunStatus};
pub use fault::{
    DeadIp, FaultPlan, FaultStats, LinkFaultKind, Outage, RunBudget, TreeAxis, WordFaultKind,
};
pub use link::{Link, LinkId};
pub use node::{Bit, NodeBehavior, NodeId, Outbox, PortId};
pub use orthotrees_obs::flight::FlightRecorder;
pub use orthotrees_obs::profile::Profiler;
pub use orthotrees_obs::telemetry::Telemetry;
pub use orthotrees_obs::Recorder;
pub use record::{Divergence, LogOrder, RunRecord};
pub use recovery::{supervise_engine, supervise_steps, RecoveryPolicy, RecoveryReport};
pub use snapshot::Snapshot;
