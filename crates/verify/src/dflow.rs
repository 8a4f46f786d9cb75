//! Symbolic dataflow verification (rules `DFLOW-001..005`).
//!
//! The abstract interpreter in this module executes the symbolic register
//! programs of [`orthotrees::dflow`] — every `PrimitiveSpec` of the
//! registry, composite legs included — over an abstract register file
//! *without running any simulator*. Each abstract cell carries an
//! [`AbsVal`]: a **provenance set** (which leaf words and root ports can
//! reach the cell) and a static bit width. One pass derives four static
//! rules and the static half of a fifth, dynamic one:
//!
//! * **DFLOW-001** — a leg reads a cell that is neither a declared input
//!   nor written by an earlier leg (read-before-write).
//! * **DFLOW-002** — a write is dead: overwritten by a later leg before
//!   any read, or never consumed and not an output.
//! * **DFLOW-003** — one leg writes the same cell twice (the executors
//!   deliver a leg as one pipelined wave, so a double write is a
//!   write-write clobber inside the leg boundary).
//! * **DFLOW-004** — the width of the produced result disagrees with the
//!   registry's `ResultWidth` rule (`Word` = w, `Widened` = w + ⌈log₂ n⌉).
//! * **DFLOW-005** — the static provenance of every output cell must
//!   equal the *dynamic reach* observed in `obs::causal` reach traces of
//!   the real executors, with and without an installed retry-only
//!   [`FaultPlan`] (retries must not change provenance).
//!
//! The dynamic half of DFLOW-005 runs the actual OTN/OTC word machines
//! with a reach-enabled [`Recorder`] and replays the emitted
//! [`ReachEvent`]s round by round: sources resolve against the register
//! state at round start (a leg's writes never feed its own reads), and
//! `First`-monoid primitives are swept one selected leaf at a time so the
//! union of runs covers the full may-reach set the symbolic program
//! declares.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Finding, Report};
use orthotrees::dflow::{combined_width, program, promised_width, Cell, Loc, Program, WriteOp};
use orthotrees::obs::causal::{ReachCell, ReachEvent};
use orthotrees::obs::Recorder;
use orthotrees::otc::Otc;
use orthotrees::otn::{Axis, Otn, Reg};
use orthotrees::primitive::{spec_for, Monoid, PrimitiveSpec, REGISTRY};
use orthotrees::wordnet::{Call, Topology, WordNet};
use orthotrees::{CostModel, FaultPlan, Word};

/// Stream-buffer length used by the OTC dynamic harness (any power of two
/// ≥ 2 works; the provenance abstraction is per cycle, not per position).
const STREAM_CYCLE: usize = 4;

/// Where an abstract word originally came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    /// The tree root's external port (the value loaded into the root
    /// register / root stream buffer before the primitive ran).
    Port,
    /// The word loaded at leaf (cycle) `0..leaves` before the primitive.
    Leaf(usize),
}

/// The abstract value of one register cell: provenance plus static width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Every origin whose word can reach this cell.
    pub provenance: BTreeSet<Origin>,
    /// Static width of the cell's value in bits.
    pub width: u32,
}

/// Result of symbolically executing one [`Program`].
#[derive(Clone, Debug)]
pub struct Interpretation {
    /// Abstract register file after the last leg.
    pub end: BTreeMap<Cell, AbsVal>,
    /// `DFLOW-001..004` findings collected along the way.
    pub findings: Vec<Finding>,
}

fn fmt_cell(c: Cell) -> String {
    match c.loc {
        Loc::Src => format!("Src[{}]", c.index),
        Loc::Dest => format!("Dest[{}]", c.index),
        Loc::Root => "Root".to_string(),
    }
}

fn fmt_set(s: &BTreeSet<Origin>) -> String {
    let mut parts = Vec::new();
    for o in s {
        parts.push(match o {
            Origin::Port => "Port".to_string(),
            Origin::Leaf(l) => format!("Leaf({l})"),
        });
    }
    format!("{{{}}}", parts.join(", "))
}

/// Symbolically executes `p`, tracking provenance and width per cell and
/// reporting `DFLOW-001..004` violations against `network` (a label for
/// the findings, e.g. `"SUM-LEAFTOLEAF@16"`).
pub fn interpret(network: &str, p: &Program) -> Interpretation {
    let w = p.word_bits;
    let mut findings = Vec::new();
    let mut state: BTreeMap<Cell, AbsVal> = BTreeMap::new();
    for &c in &p.inputs {
        let provenance = match c.loc {
            Loc::Root => BTreeSet::from([Origin::Port]),
            Loc::Src | Loc::Dest => BTreeSet::from([Origin::Leaf(c.index)]),
        };
        state.insert(c, AbsVal { provenance, width: w });
    }
    // Writes from earlier legs that no later read has consumed yet,
    // keyed by cell, valued by the writing leg's name.
    let mut pending: BTreeMap<Cell, &'static str> = BTreeMap::new();
    for leg in &p.legs {
        // Reads resolve against the register file as it stood when the
        // leg started: the executors gather before they scatter.
        let snapshot = state.clone();
        let mut written_this_leg: BTreeSet<Cell> = BTreeSet::new();
        let mut pending_this_leg: BTreeMap<Cell, &'static str> = BTreeMap::new();
        for op in &leg.writes {
            let mut provenance = BTreeSet::new();
            let mut src_width = 0u32;
            for s in &op.sources {
                match snapshot.get(s) {
                    Some(v) => {
                        provenance.extend(v.provenance.iter().copied());
                        src_width = src_width.max(v.width);
                    }
                    None => findings.push(Finding::new(
                        "DFLOW-001",
                        network,
                        fmt_cell(*s),
                        format!(
                            "leg {} reads {} before any write (not an input, not \
                             produced by an earlier leg)",
                            leg.name,
                            fmt_cell(*s)
                        ),
                        "declare the cell as a primitive input or write it first",
                    )),
                }
                // Reading a cell consumes any write a *previous* leg left
                // pending (this leg's own writes are invisible to it).
                pending.remove(s);
            }
            let width = combined_width(
                op.combine,
                if src_width == 0 { w } else { src_width },
                op.sources.len(),
            );
            if !written_this_leg.insert(op.dest) {
                findings.push(Finding::new(
                    "DFLOW-003",
                    network,
                    fmt_cell(op.dest),
                    format!(
                        "leg {} writes {} more than once — a write-write clobber \
                         inside one pipelined wave",
                        leg.name,
                        fmt_cell(op.dest)
                    ),
                    "split the writes across legs or give each its own cell",
                ));
            } else if let Some(writer) = pending.remove(&op.dest) {
                findings.push(Finding::new(
                    "DFLOW-002",
                    network,
                    fmt_cell(op.dest),
                    format!(
                        "leg {writer}'s write to {} is overwritten by leg {} before \
                         any read",
                        fmt_cell(op.dest),
                        leg.name
                    ),
                    "consume the value before overwriting it, or drop the write",
                ));
            }
            state.insert(op.dest, AbsVal { provenance, width });
            pending_this_leg.insert(op.dest, leg.name);
        }
        pending.extend(pending_this_leg);
    }
    let outputs: BTreeSet<Cell> = p.outputs.iter().copied().collect();
    for (c, writer) in &pending {
        if !outputs.contains(c) {
            findings.push(Finding::new(
                "DFLOW-002",
                network,
                fmt_cell(*c),
                format!(
                    "leg {writer}'s write to {} is never consumed and {} is not an \
                     output of {}",
                    fmt_cell(*c),
                    fmt_cell(*c),
                    p.primitive
                ),
                "route the value to an output or a later leg, or drop the write",
            ));
        }
    }
    if let Some(expected) = promised_width(p.result_width, w, p.leaves) {
        for out in &p.outputs {
            match state.get(out) {
                None => findings.push(Finding::new(
                    "DFLOW-004",
                    network,
                    fmt_cell(*out),
                    format!(
                        "output {} is never written, but the registry promises a \
                         {expected}-bit result there",
                        fmt_cell(*out)
                    ),
                    "write the output in some leg or fix the registry entry",
                )),
                Some(v) if v.width != expected => findings.push(Finding::new(
                    "DFLOW-004",
                    network,
                    fmt_cell(*out),
                    format!(
                        "static width {} at {} disagrees with the registry's \
                         {:?} rule ({} bits expected)",
                        v.width,
                        fmt_cell(*out),
                        p.result_width,
                        expected
                    ),
                    "fix the combine monoid or the registry's declared width",
                )),
                Some(_) => {}
            }
        }
    }
    Interpretation { end: state, findings }
}

/// The static rules alone: `DFLOW-001..004` findings for one program.
pub fn lint_program(network: &str, p: &Program) -> Vec<Finding> {
    interpret(network, p).findings
}

/// Dynamic reach observed by running a primitive on the real word
/// machines: for each tree, the union of origins that ever reached each
/// abstract cell (over every run of a `First`-monoid selector sweep).
#[derive(Clone, Debug)]
pub struct DynReach {
    /// One origin map per tree of the executing axis family.
    pub trees: Vec<BTreeMap<Cell, BTreeSet<Origin>>>,
}

/// Replays reach events round by round over the per-tree origin maps.
/// Sources resolve against the state at round start; same-round writes to
/// one cell union (an aggregate's contributors all land together).
fn resolve(
    events: &[ReachEvent],
    trees: usize,
    inputs: &[Cell],
    src_plane: usize,
    dest_plane: Option<usize>,
) -> Vec<BTreeMap<Cell, BTreeSet<Origin>>> {
    let map = |rc: ReachCell| -> Option<Cell> {
        match rc {
            ReachCell::Root => Some(Cell::root()),
            ReachCell::Reg { reg, leaf } => {
                let reg = reg as usize;
                if reg == src_plane {
                    Some(Cell::src(leaf as usize))
                } else if Some(reg) == dest_plane {
                    Some(Cell::dest(leaf as usize))
                } else {
                    None
                }
            }
        }
    };
    let mut init: BTreeMap<Cell, BTreeSet<Origin>> = BTreeMap::new();
    for &c in inputs {
        let origins = match c.loc {
            Loc::Root => BTreeSet::from([Origin::Port]),
            Loc::Src | Loc::Dest => BTreeSet::from([Origin::Leaf(c.index)]),
        };
        init.insert(c, origins);
    }
    let mut state: Vec<BTreeMap<Cell, BTreeSet<Origin>>> = vec![init; trees];
    let mut i = 0;
    while i < events.len() {
        let round = events[i].round;
        let mut j = i;
        while j < events.len() && events[j].round == round {
            j += 1;
        }
        let mut writes: BTreeMap<(usize, Cell), BTreeSet<Origin>> = BTreeMap::new();
        for ev in &events[i..j] {
            let t = ev.tree as usize;
            let (Some(from), Some(to)) = (map(ev.from), map(ev.to)) else { continue };
            let origins = state[t].get(&from).cloned().unwrap_or_default();
            writes.entry((t, to)).or_default().extend(origins);
        }
        for ((t, c), set) in writes {
            state[t].insert(c, set);
        }
        i = j;
    }
    state
}

/// The harness cost model for `leaves`-leaf trees (shared by the static
/// program and the dynamic run, so widths always agree by construction).
fn harness_model(leaves: usize) -> CostModel {
    CostModel::thompson(leaves.max(4))
}

/// The cycle-length parameter the static program of `spec` takes.
fn harness_cycle(spec: &'static PrimitiveSpec, leaves: usize) -> usize {
    if spec.name == "VECTORCIRCULATE" {
        leaves
    } else if spec.network.on_otc() {
        STREAM_CYCLE
    } else {
        1
    }
}

/// The combine monoid that gates the upward movement of `spec` (a
/// composite's is its upward leg's).
fn effective_combine(spec: &'static PrimitiveSpec) -> Option<Monoid> {
    match spec.composite_of {
        Some((up, _)) => spec_for(up).combine,
        None => spec.combine,
    }
}

/// The retry-only fault plan of the resilience suite: words get corrupted
/// and re-sent, nothing is dropped, no leaf goes dark — functional
/// results and provenance must be exactly those of the clean run.
pub fn retry_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_word_fault_rate(0.25)
        .with_drop_fraction(0.0)
        .with_undetectable_fraction(0.0)
        .with_max_retries(8)
}

/// Runs `spec` through its registry binding on `net`'s row trees, with
/// `plan` installed and reach tracing on, and returns the recorder. `only`
/// narrows the source selector to leaf `only` of each tree; every
/// destination cell is selected.
fn traced<T: Topology>(
    mut net: WordNet<T>,
    spec: &'static PrimitiveSpec,
    [src, dest]: [Reg; 2],
    plan: Option<&FaultPlan>,
    only: Option<usize>,
) -> Recorder {
    if let Some(p) = plan {
        net.install_fault_plan(p.clone());
    }
    let mut rec = Recorder::new();
    rec.enable_reach();
    net.install_recorder(rec);
    let pick = move |_: usize, j: usize, _: usize| only.is_none_or(|o| o == j);
    let every = |_: usize, _: usize, _: usize| true;
    let call = Call { axis: Axis::Rows, src, src_sel: &pick, dest, dest_sel: &every };
    assert!(T::invoke(&mut net, spec, call), "{} has a dataflow program but no binding", spec.name);
    net.take_recorder().expect("recorder stays installed")
}

/// One reach-traced run of an OTN primitive on a single `1 × leaves` row
/// tree. `only` narrows `First`-monoid selectors to a single leaf.
fn run_otn(
    spec: &'static PrimitiveSpec,
    prog: &Program,
    leaves: usize,
    plan: Option<&FaultPlan>,
    only: Option<usize>,
) -> Vec<BTreeMap<Cell, BTreeSet<Origin>>> {
    let mut net = Otn::new(1, leaves, harness_model(leaves)).expect("1×N OTN harness shape");
    let src = net.alloc_reg("src");
    let dest = net.alloc_reg("dest");
    net.load_reg(src, |_, j| Some((j + 1) as Word));
    net.load_row_roots(&[1]);
    let rec = traced(net, spec, [src, dest], plan, only);
    resolve(rec.reach_events(), 1, &prog.inputs, src.index(), Some(dest.index()))
}

/// One reach-traced run of an OTC primitive: stream primitives on an
/// `m = leaves` network's row trees; `VECTORCIRCULATE` on a small `m = 2`
/// network whose cycle length is `leaves` (each cycle is its own "tree").
fn run_otc(
    spec: &'static PrimitiveSpec,
    prog: &Program,
    leaves: usize,
    plan: Option<&FaultPlan>,
    only: Option<usize>,
) -> Vec<BTreeMap<Cell, BTreeSet<Origin>>> {
    if spec.name == "VECTORCIRCULATE" {
        let mut net = Otc::new(2, leaves, harness_model(leaves)).expect("2×2 OTC harness shape");
        let src = net.alloc_reg("src");
        net.load_reg(src, |_, _, q| Some((q + 1) as Word));
        let rec = traced(net, spec, [src, src], plan, only);
        return resolve(rec.reach_events(), 4, &prog.inputs, src.index(), None);
    }
    let mut net = Otc::new(leaves, STREAM_CYCLE, harness_model(leaves)).expect("m×m OTC");
    let src = net.alloc_reg("src");
    let dest = net.alloc_reg("dest");
    net.load_reg(src, |i, j, q| Some((i + j + q + 1) as Word));
    net.load_row_root_buffers(&vec![vec![1; STREAM_CYCLE]; leaves]);
    let rec = traced(net, spec, [src, dest], plan, only);
    resolve(rec.reach_events(), leaves, &prog.inputs, src.index(), Some(dest.index()))
}

/// Runs `spec` on its real network with reach tracing and returns the
/// observed dynamic reach, or `None` when the primitive has no dataflow
/// program. `First`-monoid primitives are swept one selected leaf per run
/// (fresh network each time) and the runs' final origin maps unioned, so
/// the result covers the full may-reach set.
pub fn dynamic_reach(
    spec: &'static PrimitiveSpec,
    leaves: usize,
    plan: Option<&FaultPlan>,
) -> Option<DynReach> {
    let model = harness_model(leaves);
    let prog = program(spec, leaves, harness_cycle(spec, leaves), model.leaf_pitch(), &model)?;
    let runs: Vec<Option<usize>> = if effective_combine(spec) == Some(Monoid::First) {
        (0..leaves).map(Some).collect()
    } else {
        vec![None]
    };
    let mut trees: Option<Vec<BTreeMap<Cell, BTreeSet<Origin>>>> = None;
    for only in runs {
        let run = if spec.network.on_otn() {
            run_otn(spec, &prog, leaves, plan, only)
        } else {
            run_otc(spec, &prog, leaves, plan, only)
        };
        trees = Some(match trees {
            None => run,
            Some(mut acc) => {
                for (a, r) in acc.iter_mut().zip(run) {
                    for (cell, origins) in r {
                        a.entry(cell).or_default().extend(origins);
                    }
                }
                acc
            }
        });
    }
    Some(DynReach { trees: trees.expect("at least one run") })
}

/// Rule DFLOW-005: for every output cell of `p` and every tree, the
/// static provenance must equal the observed dynamic reach.
pub fn lint_agreement(network: &str, p: &Program, dynamic: &DynReach) -> Vec<Finding> {
    let end = interpret(network, p).end;
    let mut out = Vec::new();
    for (t, tree) in dynamic.trees.iter().enumerate() {
        for cell in &p.outputs {
            let stat = end.get(cell).map(|v| v.provenance.clone()).unwrap_or_default();
            let dynv = tree.get(cell).cloned().unwrap_or_default();
            if stat != dynv {
                out.push(Finding::new(
                    "DFLOW-005",
                    network,
                    format!("tree {t} · {}", fmt_cell(*cell)),
                    format!(
                        "static provenance {} ≠ dynamic reach {}",
                        fmt_set(&stat),
                        fmt_set(&dynv)
                    ),
                    "make the executor move exactly the words the symbolic program \
                     declares",
                ));
            }
        }
    }
    out
}

/// Lints the whole registry repertoire at one size: every primitive with
/// a dataflow program gets the static rules plus the static-vs-dynamic
/// agreement check on its real network, with the given fault plan (or
/// none) installed.
pub fn lint_repertoire_agreement(leaves: usize, plan: Option<&FaultPlan>) -> Report {
    let mut report = Report::new();
    let model = harness_model(leaves);
    for spec in REGISTRY {
        let Some(prog) =
            program(spec, leaves, harness_cycle(spec, leaves), model.leaf_pitch(), &model)
        else {
            continue;
        };
        let label =
            format!("{}@{}{}", spec.name, leaves, if plan.is_some() { "+faults" } else { "" });
        report.extend(lint_program(&label, &prog));
        let dynamic = dynamic_reach(spec, leaves, plan).expect("program exists, so does reach");
        report.extend(lint_agreement(&label, &prog, &dynamic));
    }
    report
}

/// The stock dataflow pass `netlint --all` runs: static interpretation of
/// the full registry at several sizes, plus the static-vs-dynamic
/// agreement sweep at 4 leaves — fault-free and under the retry-only
/// plan. Clean on every paper configuration.
pub fn stock_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for &leaves in &[2usize, 4, 16] {
        let model = harness_model(leaves);
        for spec in REGISTRY {
            if let Some(p) =
                program(spec, leaves, harness_cycle(spec, leaves), model.leaf_pitch(), &model)
            {
                out.extend(lint_program(&format!("{}@{leaves}", spec.name), &p));
            }
        }
    }
    for plan in [None, Some(retry_plan(11))] {
        out.extend(lint_repertoire_agreement(4, plan.as_ref()).findings().to_vec());
    }
    out
}

/// Renders a human-readable provenance report of one program: the legs,
/// their writes with entrance slots, and the end-state provenance of
/// every output cell (the EXPERIMENTS.md "reading a DFLOW provenance
/// report" recipe walks through this output).
pub fn provenance_report(p: &Program) -> String {
    let mut out = format!(
        "{} @ {} leaves, w = {} bits ({:?} result)\n",
        p.primitive, p.leaves, p.word_bits, p.result_width
    );
    let inputs: Vec<String> = p.inputs.iter().map(|c| fmt_cell(*c)).collect();
    out.push_str(&format!("inputs: {}\n", inputs.join(", ")));
    for leg in &p.legs {
        out.push_str(&format!("leg {}:\n", leg.name));
        for op in &leg.writes {
            let sources: Vec<String> = op.sources.iter().map(|c| fmt_cell(*c)).collect();
            out.push_str(&format!(
                "  {} <- {}{} @ slot {}\n",
                fmt_cell(op.dest),
                op.combine.map(|m| format!("{m:?}(")).unwrap_or_default(),
                sources.join(", ") + if op.combine.is_some() { ")" } else { "" },
                op.slot.get()
            ));
        }
    }
    let end = interpret(p.primitive, p).end;
    for cell in &p.outputs {
        if let Some(v) = end.get(cell) {
            out.push_str(&format!(
                "reach {}: {} ({} bits)\n",
                fmt_cell(*cell),
                fmt_set(&v.provenance),
                v.width
            ));
        }
    }
    out
}

/// Corruption classes for the dataflow rules: each mutates an honest
/// symbolic program (or an honest dynamic reach map) in exactly one way
/// and must make its target rule fire — the mutation matrix proves the
/// rules are not vacuous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DflowMutation {
    /// Erase the declared inputs of `ROOTTOLEAF` → its leg now reads the
    /// root uninitialized (`DFLOW-001`).
    DropInit,
    /// Add a write to a cell outside the output set that nothing reads
    /// (`DFLOW-002`).
    SpuriousWrite,
    /// Duplicate the upward leg's root write of `SUM-LEAFTOLEAF` — the
    /// same cell written twice in one wave (`DFLOW-003`).
    DuplicateWrite,
    /// Flip `SUM-LEAFTOROOT`'s combine to `First`, so the produced width
    /// stops matching the registry's `Widened` promise (`DFLOW-004`).
    WidthTamper,
    /// Inject a phantom origin into an honest dynamic reach map
    /// (`DFLOW-005`).
    PhantomReach,
}

impl DflowMutation {
    /// Every dataflow corruption class.
    pub const ALL: [DflowMutation; 5] = [
        DflowMutation::DropInit,
        DflowMutation::SpuriousWrite,
        DflowMutation::DuplicateWrite,
        DflowMutation::WidthTamper,
        DflowMutation::PhantomReach,
    ];

    /// The rule id this corruption must fire.
    pub fn expected_rule(self) -> &'static str {
        match self {
            DflowMutation::DropInit => "DFLOW-001",
            DflowMutation::SpuriousWrite => "DFLOW-002",
            DflowMutation::DuplicateWrite => "DFLOW-003",
            DflowMutation::WidthTamper => "DFLOW-004",
            DflowMutation::PhantomReach => "DFLOW-005",
        }
    }

    /// Applies the corruption and lints the result.
    pub fn fired(self) -> Report {
        let model = harness_model(8);
        let pitch = model.leaf_pitch();
        let mut report = Report::new();
        match self {
            DflowMutation::DropInit => {
                let mut p = program(spec_for("ROOTTOLEAF"), 8, 1, pitch, &model)
                    .expect("ROOTTOLEAF has a program");
                p.inputs.clear();
                report.extend(lint_program("mutated", &p));
            }
            DflowMutation::SpuriousWrite => {
                let mut p = program(spec_for("ROOTTOLEAF"), 8, 1, pitch, &model)
                    .expect("ROOTTOLEAF has a program");
                let slot = p.legs[0].writes[0].slot;
                p.legs[0].writes.push(WriteOp {
                    dest: Cell::dest(8),
                    sources: vec![Cell::root()],
                    combine: None,
                    slot,
                });
                report.extend(lint_program("mutated", &p));
            }
            DflowMutation::DuplicateWrite => {
                let mut p = program(spec_for("SUM-LEAFTOLEAF"), 8, 1, pitch, &model)
                    .expect("SUM-LEAFTOLEAF has a program");
                let dup = p.legs[0].writes[0].clone();
                p.legs[0].writes.push(dup);
                report.extend(lint_program("mutated", &p));
            }
            DflowMutation::WidthTamper => {
                let mut p = program(spec_for("SUM-LEAFTOROOT"), 8, 1, pitch, &model)
                    .expect("SUM-LEAFTOROOT has a program");
                p.legs[0].writes[0].combine = Some(Monoid::First);
                report.extend(lint_program("mutated", &p));
            }
            DflowMutation::PhantomReach => {
                let spec = spec_for("ROOTTOLEAF");
                let model = harness_model(4);
                let p = program(spec, 4, 1, model.leaf_pitch(), &model)
                    .expect("ROOTTOLEAF has a program");
                let mut d = dynamic_reach(spec, 4, None).expect("harness runs");
                d.trees[0].entry(Cell::dest(1)).or_default().insert(Origin::Leaf(2));
                report.extend(lint_agreement("mutated", &p, &d));
            }
        }
        report
    }
}

/// The dataflow mutation matrix: every corruption class with its report.
pub fn dflow_matrix() -> Vec<(DflowMutation, Report)> {
    DflowMutation::ALL.iter().map(|m| (*m, m.fired())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_dataflow_pass_is_clean() {
        let findings = stock_findings();
        assert!(findings.is_empty(), "{:#?}", findings);
    }

    #[test]
    fn every_dflow_mutation_fires_its_rule_and_only_then() {
        for (m, report) in dflow_matrix() {
            assert!(
                report.has(m.expected_rule()),
                "{m:?} must fire {}: {:#?}",
                m.expected_rule(),
                report.findings()
            );
        }
    }

    #[test]
    fn first_monoid_sweep_covers_the_full_may_reach_set() {
        let spec = spec_for("LEAFTOROOT");
        let d = dynamic_reach(spec, 4, None).unwrap();
        let root = d.trees[0].get(&Cell::root()).unwrap();
        let want: BTreeSet<Origin> = (0..4).map(Origin::Leaf).collect();
        assert_eq!(root, &want, "sweep unions every selectable leaf");
    }

    #[test]
    fn circulate_reach_is_the_cyclic_shift() {
        let spec = spec_for("VECTORCIRCULATE");
        let d = dynamic_reach(spec, 4, None).unwrap();
        assert_eq!(d.trees.len(), 4, "each cycle of the 2×2 OTC is a tree");
        for tree in &d.trees {
            assert_eq!(
                tree.get(&Cell::src(3)),
                Some(&BTreeSet::from([Origin::Leaf(0)])),
                "position 3 now holds position 0's word"
            );
        }
    }

    #[test]
    fn retries_do_not_change_provenance() {
        let plan = retry_plan(7);
        let clean = lint_repertoire_agreement(4, None);
        let faulty = lint_repertoire_agreement(4, Some(&plan));
        assert!(clean.is_clean(), "{}", clean.render_text());
        assert!(faulty.is_clean(), "{}", faulty.render_text());
    }

    #[test]
    fn provenance_report_reads_like_the_docs_say() {
        let model = harness_model(4);
        let p = program(spec_for("SUM-LEAFTOLEAF"), 4, 1, model.leaf_pitch(), &model).unwrap();
        let text = provenance_report(&p);
        assert!(text.contains("leg SUM-LEAFTOROOT:"), "{text}");
        assert!(text.contains("Root <- Sum(Src[0], Src[1], Src[2], Src[3])"), "{text}");
        assert!(text.contains("reach Dest[0]: {Leaf(0), Leaf(1), Leaf(2), Leaf(3)}"), "{text}");
    }
}
