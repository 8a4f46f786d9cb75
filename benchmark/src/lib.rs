//! `wallbench`: the wall-clock benchmark of the OTN/OTC simulator.
//!
//! Simulated bit-time (τ) is the paper's metric and is deterministic; this
//! crate measures host time, the simulator's own cost, end to end on five
//! closed-loop [workloads](workload::Workload) and per layer in a separate
//! traced run. See `benchmark/README.md` for how to run and compare it.

pub mod alloc;
pub mod child;
pub mod probes;
pub mod provenance;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;
