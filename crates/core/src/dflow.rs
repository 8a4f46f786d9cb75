//! Symbolic dataflow descriptions of the primitive repertoire.
//!
//! Every communication primitive in [`crate::primitive::REGISTRY`] moves
//! words between three kinds of abstract register-file cells — per-leaf
//! source registers, per-leaf destination registers, and the tree root
//! (root stream buffer on the OTC). This module renders each primitive as
//! a [`Program`]: an ordered list of [`Leg`]s, each a batch of
//! [`WriteOp`]s that read a set of cells and write one cell at a known
//! entrance slot. The description is *shared ground truth*: the real
//! word-level executors in [`crate::otn`] / [`crate::otc`] assert their
//! own shape against [`shape_of`], and the abstract interpreter in the
//! `orthotrees-verify` crate executes the very same [`Program`] to derive
//! provenance sets, width proofs and the static half of the
//! static-vs-dynamic agreement rule (DFLOW-005).
//!
//! Only communication primitives have dataflow programs. Compute phases,
//! procedures and the fault-overhead pseudo-primitive do not move words
//! between named registers, so [`program`] returns `None` for them (as it
//! does for `PAIRWISE`, whose four-phase exchange is described at the
//! procedure level).

use crate::primitive::{Class, Direction, Monoid, PrimitiveSpec, ResultWidth};
use orthotrees_vlsi::{log2_ceil, BitTime, CostModel};

/// Which register plane an abstract cell lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Loc {
    /// The per-leaf source plane (one cell per leaf / cycle).
    Src,
    /// The per-leaf destination plane (one cell per leaf / cycle).
    Dest,
    /// The tree root register (OTN) or root stream buffer (OTC).
    Root,
}

/// One abstract register-file cell: a plane plus a leaf index. The root
/// has a single cell, addressed with index 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// The plane the cell lives in.
    pub loc: Loc,
    /// Leaf (OTN), cycle (OTC stream) or cycle-position (`VECTORCIRCULATE`)
    /// index; always 0 for [`Loc::Root`].
    pub index: usize,
}

impl Cell {
    /// The source cell at `index`.
    pub fn src(index: usize) -> Self {
        Cell { loc: Loc::Src, index }
    }

    /// The destination cell at `index`.
    pub fn dest(index: usize) -> Self {
        Cell { loc: Loc::Dest, index }
    }

    /// The root cell.
    pub fn root() -> Self {
        Cell { loc: Loc::Root, index: 0 }
    }
}

/// One abstract write: `dest := combine(sources)`, completing at entrance
/// slot `slot` (bit-times from the start of the primitive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOp {
    /// The cell being written.
    pub dest: Cell,
    /// The cells whose words can flow into `dest`. For selector-gated
    /// primitives this is the *may*-reach set: every leaf the selector
    /// could admit.
    pub sources: Vec<Cell>,
    /// How multiple sources are folded ([`None`] for plain moves).
    pub combine: Option<Monoid>,
    /// Entrance slot of the written word at `dest`.
    pub slot: BitTime,
}

/// One leg of a primitive: the batch of writes performed by a single
/// sweep of a shared executor. Within a leg, reads never observe the
/// leg's own writes (the executors gather before they scatter), so a leg
/// is the clobber boundary for rule DFLOW-003.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leg {
    /// The leg's primitive name (a composite's leg keeps the leg
    /// primitive's name, e.g. `"SUM-LEAFTOROOT"`).
    pub name: &'static str,
    /// The writes, in executor order.
    pub writes: Vec<WriteOp>,
}

/// The complete symbolic dataflow program of one registry primitive at a
/// fixed size: declared inputs, the legs, and the cells that must hold
/// the result when the primitive ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Registry name of the primitive.
    pub primitive: &'static str,
    /// Leaves per tree (cycles per tree on the OTC; cycle length for
    /// `VECTORCIRCULATE`).
    pub leaves: usize,
    /// Word width `w` of the machine the program abstracts.
    pub word_bits: u32,
    /// Cells holding defined words before the first leg runs.
    pub inputs: Vec<Cell>,
    /// The legs, in execution order.
    pub legs: Vec<Leg>,
    /// Cells that carry the primitive's result at the end.
    pub outputs: Vec<Cell>,
    /// The registry's promised result width, restated for the verifier.
    pub result_width: ResultWidth,
}

/// The gross dataflow shape of a communication primitive — what the
/// shared executors assert against, so the symbolic description and the
/// machine that runs words can never drift apart silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowShape {
    /// Root fans out to every leaf (the OTN's `WordNet::downward`).
    Down,
    /// Leaves fold into the root (the OTN's `WordNet::upward`).
    Up,
    /// Root stream buffer fans out to every cycle (the OTC's
    /// `WordNet::downward`).
    StreamDown,
    /// Cycles fold into the root stream buffer (the OTC's
    /// `WordNet::upward`).
    StreamUp,
    /// Every cycle position shifts by one (`circulate`).
    Rotate,
}

/// The dataflow shape of `spec`, or `None` when the primitive has no
/// single-executor shape (compute phases, procedures, overhead entries,
/// `PAIRWISE`, and composites — composites are two shaped legs).
pub fn shape_of(spec: &PrimitiveSpec) -> Option<FlowShape> {
    if spec.class != Class::Communication || spec.composite_of.is_some() {
        return None;
    }
    match spec.direction? {
        Direction::Broadcast => Some(FlowShape::Down),
        Direction::Send | Direction::Aggregate => Some(FlowShape::Up),
        Direction::Stream => {
            if spec.combine.is_some() {
                Some(FlowShape::StreamUp)
            } else {
                Some(FlowShape::StreamDown)
            }
        }
        Direction::Circulate => Some(FlowShape::Rotate),
    }
}

/// Builds the write batch of one shaped leg. All writes of a leg share
/// one entrance slot `slot` — the executors deliver a leg's words in a
/// single pipelined wave.
fn leg_writes(
    shape: FlowShape,
    leaves: usize,
    combine: Option<Monoid>,
    slot: BitTime,
) -> Vec<WriteOp> {
    match shape {
        FlowShape::Down | FlowShape::StreamDown => (0..leaves)
            .map(|l| WriteOp {
                dest: Cell::dest(l),
                sources: vec![Cell::root()],
                combine: None,
                slot,
            })
            .collect(),
        FlowShape::Up | FlowShape::StreamUp => vec![WriteOp {
            dest: Cell::root(),
            sources: (0..leaves).map(Cell::src).collect(),
            combine,
            slot,
        }],
        FlowShape::Rotate => (0..leaves)
            .map(|q| WriteOp {
                dest: Cell::src(q),
                sources: vec![Cell::src((q + 1) % leaves)],
                combine: None,
                slot,
            })
            .collect(),
    }
}

/// Renders `spec` as a symbolic dataflow program for trees with `leaves`
/// leaves (cycles, for OTC stream primitives; `leaves` is the cycle
/// length for `VECTORCIRCULATE`). `cycle` and `pitch` parameterize the
/// entrance-slot costs exactly as the executors charge them through
/// `model`. Returns `None` for primitives without register-level
/// dataflow; see the [module docs](self).
pub fn program(
    spec: &'static PrimitiveSpec,
    leaves: usize,
    cycle: usize,
    pitch: u64,
    model: &CostModel,
) -> Option<Program> {
    if let Some((up_name, down_name)) = spec.composite_of {
        let up = crate::primitive::lookup(up_name)?;
        let down = crate::primitive::lookup(down_name)?;
        let up_cost = model.primitive_cost(up.cost?, leaves, pitch, cycle);
        let down_cost = model.primitive_cost(down.cost?, leaves, pitch, cycle);
        let legs = vec![
            Leg { name: up.name, writes: leg_writes(shape_of(up)?, leaves, up.combine, up_cost) },
            Leg {
                name: down.name,
                writes: leg_writes(shape_of(down)?, leaves, None, up_cost + down_cost),
            },
        ];
        return Some(Program {
            primitive: spec.name,
            leaves,
            word_bits: model.word_bits,
            inputs: (0..leaves).map(Cell::src).collect(),
            legs,
            outputs: (0..leaves).map(Cell::dest).collect(),
            result_width: spec.result_width,
        });
    }
    let shape = shape_of(spec)?;
    let cost = model.primitive_cost(spec.cost?, leaves, pitch, cycle);
    let writes = leg_writes(shape, leaves, spec.combine, cost);
    let (inputs, outputs) = match shape {
        FlowShape::Down | FlowShape::StreamDown => {
            (vec![Cell::root()], (0..leaves).map(Cell::dest).collect())
        }
        FlowShape::Up | FlowShape::StreamUp => {
            ((0..leaves).map(Cell::src).collect(), vec![Cell::root()])
        }
        FlowShape::Rotate => {
            let cells: Vec<Cell> = (0..leaves).map(Cell::src).collect();
            (cells.clone(), cells)
        }
    };
    Some(Program {
        primitive: spec.name,
        leaves,
        word_bits: model.word_bits,
        inputs,
        legs: vec![Leg { name: spec.name, writes }],
        outputs,
        result_width: spec.result_width,
    })
}

/// The width in bits of a value produced by folding `sources` words of
/// `src_bits` bits each under `combine`. Counting monoids widen by
/// `⌈log₂ sources⌉`; selecting monoids and plain moves keep the source
/// width. This is the width rule DFLOW-004 checks against the registry's
/// [`ResultWidth`].
pub fn combined_width(combine: Option<Monoid>, src_bits: u32, sources: usize) -> u32 {
    match combine {
        Some(Monoid::Sum | Monoid::Count) => src_bits + log2_ceil(sources as u64),
        _ => src_bits,
    }
}

/// The width in bits the registry promises for a primitive's result on a
/// `word_bits`-bit machine with `leaves` leaves, or `None` when the
/// primitive returns nothing.
pub fn promised_width(result_width: ResultWidth, word_bits: u32, leaves: usize) -> Option<u32> {
    match result_width {
        ResultWidth::Word => Some(word_bits),
        ResultWidth::Widened => Some(word_bits + log2_ceil(leaves as u64)),
        ResultWidth::None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::{spec_for, REGISTRY};
    use orthotrees_vlsi::CostModel;

    #[test]
    fn every_communication_and_composite_primitive_has_a_program() {
        let m = CostModel::thompson(16);
        for spec in REGISTRY {
            let p = program(spec, 8, 4, m.leaf_pitch(), &m);
            let expect = (spec.class == Class::Communication && spec.name != "PAIRWISE")
                || spec.class == Class::Composite;
            assert_eq!(p.is_some(), expect, "{}", spec.name);
        }
    }

    #[test]
    fn composite_legs_chain_through_the_root() {
        let m = CostModel::thompson(16);
        let p = program(spec_for("SUM-LEAFTOLEAF"), 4, 4, m.leaf_pitch(), &m).unwrap();
        assert_eq!(p.legs.len(), 2);
        assert_eq!(p.legs[0].writes.len(), 1, "upward leg folds into one root write");
        assert_eq!(p.legs[0].writes[0].dest, Cell::root());
        assert_eq!(p.legs[1].writes.len(), 4, "downward leg writes every leaf");
        assert!(p.legs[1].writes.iter().all(|w| w.sources == [Cell::root()]));
        assert!(p.legs[1].writes[0].slot > p.legs[0].writes[0].slot, "slots accumulate");
    }

    #[test]
    fn rotate_program_is_a_cyclic_shift() {
        let m = CostModel::thompson(16);
        let p = program(spec_for("VECTORCIRCULATE"), 4, 4, m.leaf_pitch(), &m).unwrap();
        let w = &p.legs[0].writes;
        assert_eq!(w.len(), 4);
        assert_eq!(w[3].dest, Cell::src(3));
        assert_eq!(w[3].sources, [Cell::src(0)], "last position wraps to the first");
    }

    #[test]
    fn width_rules_match_the_registry_vocabulary() {
        assert_eq!(combined_width(Some(Monoid::Sum), 16, 8), 19);
        assert_eq!(combined_width(Some(Monoid::Min), 16, 8), 16);
        assert_eq!(combined_width(None, 16, 1), 16);
        assert_eq!(promised_width(ResultWidth::Widened, 16, 8), Some(19));
        assert_eq!(promised_width(ResultWidth::Word, 16, 8), Some(16));
        assert_eq!(promised_width(ResultWidth::None, 16, 8), None);
    }
}
