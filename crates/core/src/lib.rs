//! # orthotrees
//!
//! A register-transfer-level implementation of the two interconnection
//! networks of Nath, Maheshwari and Bhatt, *"Efficient VLSI Networks for
//! Parallel Processing Based on Orthogonal Trees"* (IEEE Trans. Computers,
//! C-32(6), June 1983, pp. 569–581):
//!
//! * the **orthogonal trees network** ([`otn::Otn`]) — an `R × C` matrix of
//!   base processors in which every row and every column forms the leaves of
//!   a complete binary tree (a.k.a. the *mesh of trees*), and
//! * the **orthogonal tree cycles** ([`otc::Otc`]) — its area-reduced
//!   derivative in which each base processor becomes a cycle of `Θ(log N)`
//!   processors.
//!
//! Both are one word-level core, [`wordnet::WordNet`]: the OTN is its
//! one-processor-per-cell case and the OTC its cycle-per-cell case, so the
//! executors, the fault and observer plumbing and the [`checkpoint`]
//! format exist once.
//!
//! Every communication primitive of the paper (§II.B, §V.B) is provided —
//! `ROOTTOLEAF`, `LEAFTOROOT`, `COUNT`/`SUM`/`MIN-LEAFTOROOT`, the
//! `LEAFTOLEAF` composites, `CIRCULATE`, `ROOTTOCYCLE`, `CYCLETOROOT`,
//! `CYCLETOCYCLE` — and each advances a simulated [`Clock`] by the cost
//! Thompson's VLSI model assigns it (wire-length-dependent bit delays plus
//! bit pipelining; see `orthotrees-vlsi`). On top of the primitives the
//! paper's algorithms are implemented *exactly as procedures over
//! primitives*, so the measured times are honest model times:
//!
//! * rank sorting — [`otn::sort`] (SORT-OTN, §II.B) and [`otc::sort`]
//!   (SORT-OTC, §VI.A);
//! * matrix algorithms — [`otn::matmul`] (§III.A) including pipelined
//!   matrix–matrix and wide Boolean multiplication;
//! * graph algorithms — [`otn::graph`]: connected components and minimum
//!   spanning tree (§III.B, adapting Hirschberg–Chandra–Sarwate), plus
//!   transitive closure;
//! * recursive algorithms — [`otn::bitonic`] and [`otn::dft`] (§IV);
//! * pipelined operation — [`otn::pipeline`] (§VIII);
//! * prefix scans and stream compaction — [`otn::prefix`];
//! * Leighton's three-dimensional mesh of trees and its unpipelined
//!   `Θ(polylog)` matrix multiplication — [`mot3d`] (§VII.B).
//!
//! Every primitive's identity — span name, communication direction, combine
//! monoid, result-width rule and cost kind — is declared exactly once in the
//! [`primitive::REGISTRY`]; the executors, the cost model, the observability
//! spans, the causal attribution and the `orthotrees-verify` rules all
//! derive from that single table. The [`dflow`] module renders the same
//! table as symbolic register programs — the semantic ground truth the
//! `orthotrees-verify` dataflow rules check every executor and backend
//! against. Each executor evaluates its selector into one reusable
//! selection mask before it moves a word, and [`ParallelPolicy::Threads`]
//! fills that mask over scoped threads with bit- and clock-identical
//! results.
//!
//! # Quick start
//!
//! ```
//! use orthotrees::otn::{self, Otn};
//!
//! let mut net = Otn::for_sorting(8).expect("8 is a power of two");
//! let outcome = otn::sort::sort(&mut net, &[5, 3, 7, 1, 6, 2, 8, 4]).unwrap();
//! assert_eq!(outcome.sorted, vec![1, 2, 3, 4, 5, 6, 7, 8]);
//! // `outcome.time` is the simulated Θ(log² N) bit-time cost.
//! assert!(outcome.time.get() > 0);
//! ```

mod attribution;
mod bitset;
pub mod checkpoint;
pub mod complexnum;
pub mod dflow;
mod grid;
pub mod mot3d;
pub mod otc;
pub mod otn;
pub mod primitive;
pub mod resilience;
pub mod select;
mod word;
pub mod wordnet;

pub use grid::Grid;
pub use orthotrees_obs as obs;
pub use orthotrees_vlsi::{
    Area, BitTime, Clock, CostModel, DelayModel, ModelError, OpStats, SimError,
};
pub use primitive::ParallelPolicy;
pub use resilience::{DarkLeaf, FaultPlan, FaultReport, FaultStats, TreeAxis};
pub use select::{Pick, Sel};
pub use word::{pack, unpack, Word};
