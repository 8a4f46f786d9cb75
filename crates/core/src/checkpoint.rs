//! Checkpoint/restore for the word-level networks.
//!
//! A [`Snapshot`] captures everything that changes while algorithms run on
//! a [`WordNet`] — an [`Otn`](crate::otn::Otn) or an
//! [`Otc`](crate::otc::Otc): the simulated [`Clock`] (time and
//! [`OpStats`]), every allocated register plane (flat
//! `(i · cols + j) · cycle + q` order), the root ports of both tree
//! families (flat `tree · cycle + q`) and — when a
//! [`FaultPlan`](crate::resilience::FaultPlan) is installed — the mutable
//! fault state (transit-round cursor and [`FaultStats`]). The network
//! *shape* (dimensions, cost model, register layout) and the plan itself
//! are configuration the caller rebuilds; [`WordNet::restore`] validates
//! the shape and rejects a mismatch with a typed error. The natural
//! checkpoint boundary is between primitives or problems — exactly where
//! the recovery supervisor ([`orthotrees_sim::recovery`]) checkpoints a
//! pipelined multi-problem run. The engine-level checkpoint, whose
//! boundary is a single event, lives in `orthotrees_sim::snapshot`.
//!
//! Both networks write one schema, [`SCHEMA`], in the workspace's
//! dependency-free JSON via [`Snapshot::render`] / [`Snapshot::parse`], so
//! a checkpoint survives process death. Words JSON numbers cannot carry
//! exactly (magnitude `2⁵³` or more) are written as decimal strings. The
//! parser turns malformed documents — hostile dimensions included — into
//! [`SimError::SnapshotFormat`] instead of panics or garbage.

use crate::bitset::Plane;
use crate::resilience::FaultStats;
use crate::word::Word;
use crate::wordnet::{Topology, WordNet};
use orthotrees_obs::json::Json;
use orthotrees_sim::snapshot::{
    bad, delay_tag, fault_stats_from_json, fault_stats_to_json, mismatch, req, req_delay, req_u32,
    req_u64,
};
use orthotrees_vlsi::{BitTime, Clock, DelayModel, OpStats, SimError};

/// The on-disk schema identifier.
pub const SCHEMA: &str = "orthotrees-wordnet-snapshot/v1";

/// Largest magnitude a [`Word`] written as a JSON number may have: JSON
/// numbers are `f64`, exact only below 2⁵³.
const WORD_LIMIT: u64 = 1 << 53;

/// A checkpoint of a running [`WordNet`]. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Snapshot {
    rows: usize,
    cols: usize,
    cycle: usize,
    word_bits: u32,
    delay: DelayModel,
    now: BitTime,
    stats: OpStats,
    reg_names: Vec<String>,
    planes: Vec<Vec<Option<Word>>>,
    roots: [Vec<Option<Word>>; 2],
    fault: Option<(u64, FaultStats)>,
}

impl Snapshot {
    /// Simulated time at the checkpoint.
    pub fn now(&self) -> BitTime {
        self.now
    }

    /// The checkpoint as an `orthotrees-wordnet-snapshot/v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "network",
                Json::obj([
                    ("rows", Json::u64(self.rows as u64)),
                    ("cols", Json::u64(self.cols as u64)),
                    ("cycle", Json::u64(self.cycle as u64)),
                    ("word_bits", Json::u64(u64::from(self.word_bits))),
                    ("delay", Json::str(delay_tag(self.delay))),
                ]),
            ),
            ("clock", clock_parts_to_json(self.now, &self.stats)),
            ("reg_names", Json::arr(self.reg_names.iter().map(Json::str))),
            ("regs", Json::arr(self.planes.iter().map(|p| plane_to_json(p)))),
            ("row_roots", plane_to_json(&self.roots[0])),
            ("col_roots", plane_to_json(&self.roots[1])),
            ("fault", fault_to_json(self.fault)),
        ])
    }

    /// Renders the checkpoint as JSON text (the on-disk format).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Loads a checkpoint from a parsed `orthotrees-wordnet-snapshot/v1`
    /// document.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] on a wrong schema tag, missing
    /// field or out-of-range value — including dimensions that are not
    /// powers of two or whose cell count overflows, and arrays whose
    /// length disagrees with the dimensions (checked before anything is
    /// allocated from them).
    pub fn from_json(doc: &Json) -> Result<Self, SimError> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(bad(format!("schema tag `{other}`, expected `{SCHEMA}`"))),
            None => return Err(bad("schema tag missing")),
        }
        let net = req(doc, "network")?;
        let dim = |key: &str| {
            let v = req_u64(net, key)?;
            usize::try_from(v)
                .ok()
                .filter(|d| d.is_power_of_two())
                .ok_or_else(|| bad(format!("field `{key}` is {v}, not a power of two")))
        };
        let (rows, cols, cycle) = (dim("rows")?, dim("cols")?, dim("cycle")?);
        let cells = rows.checked_mul(cols).and_then(|c| c.checked_mul(cycle)).ok_or_else(|| {
            bad(format!("a {rows} × {cols} × {cycle} network has too many cells"))
        })?;
        let (now, stats) = clock_from_json(req(doc, "clock")?)?;
        let reg_names = req_arr(doc, "reg_names")?
            .iter()
            .map(|n| {
                n.as_str().map(str::to_owned).ok_or_else(|| bad("register name is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let raw_planes = req_arr(doc, "regs")?;
        if raw_planes.len() != reg_names.len() {
            return Err(bad(format!(
                "{} register planes for {} register names",
                raw_planes.len(),
                reg_names.len()
            )));
        }
        let planes = raw_planes
            .iter()
            .zip(&reg_names)
            .map(|(plane, name)| plane_from_json(plane, &format!("register plane `{name}`"), cells))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            rows,
            cols,
            cycle,
            word_bits: req_u32(net, "word_bits")?,
            delay: req_delay(net)?,
            now,
            stats,
            reg_names,
            planes,
            // `rows · cycle` and `cols · cycle` divide `cells`: no overflow.
            roots: [
                plane_from_json(req(doc, "row_roots")?, "row_roots", rows * cycle)?,
                plane_from_json(req(doc, "col_roots")?, "col_roots", cols * cycle)?,
            ],
            fault: fault_from_json(req(doc, "fault")?)?,
        })
    }

    /// Parses a checkpoint from JSON text (the inverse of
    /// [`Snapshot::render`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotFormat`] if `text` is not valid JSON or
    /// not a valid `orthotrees-wordnet-snapshot/v1` document.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let doc = Json::parse(text).map_err(|e| bad(format!("not valid JSON: {e}")))?;
        Snapshot::from_json(&doc)
    }
}

impl<T: Topology> WordNet<T> {
    /// Captures the network's complete mutable state. Call between
    /// primitives (any point where no primitive is mid-flight — the
    /// network has no other kind of point, since primitives run to
    /// completion).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            rows: self.rows,
            cols: self.cols,
            cycle: self.cycle,
            word_bits: self.model.word_bits,
            delay: self.model.delay,
            now: self.clock.now(),
            stats: *self.clock.stats(),
            reg_names: self.reg_names.iter().map(|n| (*n).to_owned()).collect(),
            planes: self.regs.iter().map(Plane::to_words).collect(),
            roots: self.roots.clone(),
            fault: self.fault.as_ref().map(|f| (f.round(), f.stats)),
        }
    }

    /// Restores a checkpoint into this network.
    ///
    /// The network must have the same shape the checkpoint was written
    /// from: dimensions and cycle length (so an OTN checkpoint never
    /// restores into an OTC, nor the reverse), word width, delay model, and
    /// a register layout (names, in allocation order) that *starts with*
    /// the checkpoint's — planes allocated after the checkpoint are
    /// discarded, so a rollback across an [`alloc_reg`](WordNet::alloc_reg)
    /// boundary works and a retry re-allocates at the same indices.
    /// Anything else is rejected with a typed
    /// [`SimError::SnapshotMismatch`]. The installed fault *plan*, recorder
    /// and parallel policy are configuration and stay untouched; the
    /// mutable fault state (round cursor, stats) is restored when both the
    /// network and the checkpoint carry one. A checkpoint with fault state
    /// restores cleanly into a plan-free network (the healing path: the
    /// plan was removed between checkpoint and retry).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] on a shape mismatch. On
    /// error the network is unchanged.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        let shape = [
            ("row count", self.rows, snap.rows),
            ("column count", self.cols, snap.cols),
            ("cycle length", self.cycle, snap.cycle),
        ];
        for (what, ours, theirs) in shape {
            if ours != theirs {
                return Err(mismatch(what, ours, theirs));
            }
        }
        if self.model.word_bits != snap.word_bits {
            return Err(mismatch("word width", self.model.word_bits, snap.word_bits));
        }
        if self.model.delay != snap.delay {
            return Err(mismatch(
                "delay model",
                delay_tag(self.model.delay),
                delay_tag(snap.delay),
            ));
        }
        let keep = snap.reg_names.len();
        let prefix_matches = self.reg_names.len() >= keep
            && self.reg_names.iter().zip(&snap.reg_names).all(|(a, b)| *a == b.as_str());
        if !prefix_matches {
            return Err(mismatch(
                "register layout",
                self.reg_names.join(","),
                snap.reg_names.join(","),
            ));
        }
        // Rolling back across an `alloc_reg` boundary: planes allocated
        // after the checkpoint are discarded, and a retry re-allocates
        // them at the same indices.
        self.regs.truncate(keep);
        self.reg_names.truncate(keep);
        for (plane, words) in self.regs.iter_mut().zip(&snap.planes) {
            plane.load(words);
        }
        self.roots.clone_from(&snap.roots);
        restore_clock(&mut self.clock, snap.now, snap.stats);
        if let (Some(fault), Some((round, stats))) = (self.fault.as_mut(), snap.fault) {
            fault.set_round(round);
            fault.stats = stats;
        }
        Ok(())
    }

    /// Advances the fault-injection epoch: jumps the transit-round cursor
    /// forward so subsequent primitives see *fresh* deterministic fault
    /// draws. The recovery supervisor calls this between retries —
    /// without it, a retry replays the exact transient that killed the
    /// previous attempt, forever.
    pub fn bump_fault_epoch(&mut self) {
        if let Some(fault) = self.fault.as_mut() {
            // A large prime stride keeps every epoch's draw sequence
            // disjoint from every other epoch for any realistic run length.
            fault.set_round(fault.round() + 1_000_003);
        }
    }

    /// Serializes the current state straight to JSON text — shorthand for
    /// `self.snapshot().render()`.
    pub fn checkpoint_text(&self) -> String {
        self.snapshot().render()
    }
}

pub(crate) fn req_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], SimError> {
    req(doc, key)?.as_arr().ok_or_else(|| bad(format!("field `{key}` is not an array")))
}

/// One register slot (or root port): `null`, the word as an exact JSON
/// number, or — at magnitude `2⁵³` and above — as a decimal string.
pub(crate) fn word_to_json(w: Option<Word>) -> Json {
    match w {
        None => Json::Null,
        Some(v) if v.unsigned_abs() < WORD_LIMIT => Json::f64(v as f64),
        Some(v) => Json::str(v.to_string()),
    }
}

/// The inverse of [`word_to_json`]; accepts either form of a word.
pub(crate) fn word_from_json(j: &Json, what: &str) -> Result<Option<Word>, SimError> {
    match j {
        Json::Null => Ok(None),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < WORD_LIMIT as f64 => Ok(Some(*n as Word)),
        Json::Str(s) => {
            s.parse().map(Some).map_err(|_| bad(format!("{what} holds {s:?}, not a word")))
        }
        other => Err(bad(format!("{what} is not null or an exact integer: {}", other.render()))),
    }
}

/// `{"now": t, "stats": {8 counters}}` from the decomposed parts a
/// snapshot stores.
pub(crate) fn clock_parts_to_json(now: BitTime, s: &OpStats) -> Json {
    Json::obj([
        ("now", Json::u64(now.get())),
        (
            "stats",
            Json::obj([
                ("broadcasts", Json::u64(s.broadcasts)),
                ("sends", Json::u64(s.sends)),
                ("aggregates", Json::u64(s.aggregates)),
                ("leaf_ops", Json::u64(s.leaf_ops)),
                ("circulates", Json::u64(s.circulates)),
                ("hops", Json::u64(s.hops)),
                ("inputs", Json::u64(s.inputs)),
                ("outputs", Json::u64(s.outputs)),
            ]),
        ),
    ])
}

pub(crate) fn clock_from_json(doc: &Json) -> Result<(BitTime, OpStats), SimError> {
    let s = req(doc, "stats")?;
    Ok((
        BitTime::new(req_u64(doc, "now")?),
        OpStats {
            broadcasts: req_u64(s, "broadcasts")?,
            sends: req_u64(s, "sends")?,
            aggregates: req_u64(s, "aggregates")?,
            leaf_ops: req_u64(s, "leaf_ops")?,
            circulates: req_u64(s, "circulates")?,
            hops: req_u64(s, "hops")?,
            inputs: req_u64(s, "inputs")?,
            outputs: req_u64(s, "outputs")?,
        },
    ))
}

/// Overwrites `clock` with a checkpointed `(now, stats)` pair.
pub(crate) fn restore_clock(clock: &mut Clock, now: BitTime, stats: OpStats) {
    clock.reset();
    clock.advance(now);
    *clock.stats_mut() = stats;
}

/// `null`, or `{"round": r, "stats": {8 counters}}`: the *mutable* part of
/// a network's fault state. The plan itself is configuration and never
/// checkpointed — healing legitimately changes it between checkpoint and
/// restore.
pub(crate) fn fault_to_json(state: Option<(u64, FaultStats)>) -> Json {
    match state {
        None => Json::Null,
        Some((round, s)) => {
            Json::obj([("round", Json::u64(round)), ("stats", fault_stats_to_json(&s))])
        }
    }
}

pub(crate) fn fault_from_json(doc: &Json) -> Result<Option<(u64, FaultStats)>, SimError> {
    match doc {
        Json::Null => Ok(None),
        obj => {
            let s = req(obj, "stats")?;
            Ok(Some((req_u64(obj, "round")?, fault_stats_from_json(s)?)))
        }
    }
}

/// Serializes one plane of register values (or one family's root ports).
pub(crate) fn plane_to_json(cells: &[Option<Word>]) -> Json {
    Json::arr(cells.iter().map(|w| word_to_json(*w)))
}

/// Decodes a plane of `len` cells, validating the length before
/// allocating.
pub(crate) fn plane_from_json(
    j: &Json,
    what: &str,
    len: usize,
) -> Result<Vec<Option<Word>>, SimError> {
    let cells = j.as_arr().ok_or_else(|| bad(format!("{what} is not an array")))?;
    if cells.len() != len {
        return Err(bad(format!("{what} has {} cells, expected {len}", cells.len())));
    }
    cells.iter().map(|cell| word_from_json(cell, what)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otc::{self, Otc};
    use crate::otn::{self, all, Axis, Otn};
    use crate::resilience::FaultPlan;
    use orthotrees_vlsi::CostModel;
    use proptest::prelude::*;

    const EXTREMES: [Word; 6] = [Word::MIN, Word::MAX, 1 << 53, -(1 << 53), (1 << 53) - 1, -1];

    #[test]
    fn words_round_trip_including_negatives_and_null() {
        let mut words = vec![None, Some(0), Some(-5), Some(42), Some(-(1 << 40))];
        words.extend(EXTREMES.map(Some));
        for w in words {
            let text = word_to_json(w).render();
            assert_eq!(word_from_json(&Json::parse(&text).unwrap(), "cell").unwrap(), w, "{text}");
        }
        assert_eq!(word_to_json(Some(Word::MIN)).render(), "\"-9223372036854775808\"");
        assert_eq!(word_to_json(Some((1 << 53) - 1)).render(), "9007199254740991");
        assert!(word_from_json(&Json::f64(2.5), "cell").is_err());
        assert!(word_from_json(&Json::f64(1e300), "cell").is_err());
        assert!(word_from_json(&Json::str("x"), "cell").is_err());
        assert!(word_from_json(&Json::str("9223372036854775808"), "cell").is_err());
    }

    #[test]
    fn clock_round_trips_time_and_stats() {
        let mut c = Clock::new();
        c.advance(BitTime::new(123));
        c.stats_mut().broadcasts = 4;
        c.stats_mut().outputs = 9;
        let doc = clock_parts_to_json(c.now(), c.stats());
        let (now, stats) = clock_from_json(&doc).unwrap();
        let mut back = Clock::new();
        restore_clock(&mut back, now, stats);
        assert_eq!(back, c);
    }

    #[test]
    fn fault_state_round_trips_and_null_means_no_plan() {
        assert_eq!(fault_from_json(&Json::Null).unwrap(), None);
        let stats = FaultStats { injected: 3, retries: 1, ..FaultStats::default() };
        let doc = fault_to_json(Some((7, stats)));
        assert_eq!(fault_from_json(&doc).unwrap(), Some((7, stats)));
    }

    #[test]
    fn plane_length_is_validated() {
        let plane = [Some(1), None, Some(-2), Some(Word::MAX)];
        let doc = plane_to_json(&plane);
        assert_eq!(plane_from_json(&doc, "plane", 4).unwrap(), plane);
        assert!(plane_from_json(&doc, "plane", 3).is_err());
        assert!(plane_from_json(&Json::Null, "plane", 0).is_err());
    }

    /// A document whose dimensions promise `2⁶²` cells per plane but whose
    /// one plane is empty: sizing the plane from the dimensions first
    /// would abort on capacity overflow.
    const HUGE_GRID: &str = r#"{"schema":"orthotrees-wordnet-snapshot/v1",
        "network":{"rows":2147483648,"cols":2147483648,"cycle":1,"word_bits":32,"delay":"Logarithmic"},
        "clock":{"now":0,"stats":{"broadcasts":0,"sends":0,"aggregates":0,"leaf_ops":0,
            "circulates":0,"hops":0,"inputs":0,"outputs":0}},
        "reg_names":["A"],"regs":[[]],"row_roots":[],"col_roots":[],"fault":null}"#;

    /// A document whose cell count `2⁹⁰` overflows the address space.
    const OVERFLOWING_GRID: &str = r#"{"schema":"orthotrees-wordnet-snapshot/v1",
        "network":{"rows":1073741824,"cols":1073741824,"cycle":1073741824,"word_bits":32,
            "delay":"Logarithmic"},
        "clock":{"now":0,"stats":{"broadcasts":0,"sends":0,"aggregates":0,"leaf_ops":0,
            "circulates":0,"hops":0,"inputs":0,"outputs":0}},
        "reg_names":[],"regs":[],"row_roots":[],"col_roots":[],"fault":null}"#;

    #[test]
    fn hostile_dimensions_are_format_errors_not_panics() {
        let not_pow2 = HUGE_GRID.replace("\"cycle\":1", "\"cycle\":3");
        for (doc, needle) in [
            (HUGE_GRID, "cells, expected"),
            (OVERFLOWING_GRID, "too many cells"),
            (not_pow2.as_str(), "not a power of two"),
        ] {
            match Snapshot::parse(doc) {
                Err(SimError::SnapshotFormat { detail }) => {
                    assert!(detail.contains(needle), "{detail}");
                }
                other => panic!("expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn otn_snapshot_round_trips_through_json_text() {
        let mut net = Otn::for_sorting(8).unwrap();
        let out = otn::sort::sort(&mut net, &[5, 3, 7, 1, 6, 2, 8, 4]).unwrap();
        let snap = net.snapshot();
        let text = snap.render();
        let back = Snapshot::parse(&text).unwrap();
        let mut fresh = Otn::for_sorting(8).unwrap();
        // Same register layout: sort() allocates on demand, so replay
        // the allocation by sorting once and restoring over it.
        let _ = otn::sort::sort(&mut fresh, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        fresh.restore(&back).unwrap();
        assert_eq!(fresh.clock(), net.clock());
        assert_eq!(fresh.snapshot().render(), text);
        assert!(out.time > BitTime::ZERO);
    }

    #[test]
    fn restore_rejects_wrong_shape_and_layout() {
        let mut a = Otn::for_sorting(8).unwrap();
        let _ = otn::sort::sort(&mut a, &[5, 3, 7, 1, 6, 2, 8, 4]).unwrap();
        let snap = a.snapshot();
        let mut wrong_size = Otn::for_sorting(16).unwrap();
        match wrong_size.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "row count", .. }) => {}
            other => panic!("expected row-count mismatch, got {other:?}"),
        }
        let mut wrong_regs = Otn::for_sorting(8).unwrap();
        match wrong_regs.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "register layout", .. }) => {}
            other => panic!("expected register-layout mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected_with_detail() {
        assert!(Snapshot::parse("not json").is_err());
        assert!(Snapshot::parse("{\"schema\":\"wrong/v9\"}").is_err());
        let mut net = Otn::for_sorting(4).unwrap();
        let _ = otn::sort::sort(&mut net, &[4, 3, 2, 1]).unwrap();
        let text = net.checkpoint_text();
        // Tamper: drop the clock field entirely.
        let tampered = text.replacen("\"clock\"", "\"clokk\"", 1);
        match Snapshot::parse(&tampered) {
            Err(SimError::SnapshotFormat { detail }) => {
                assert!(detail.contains("clock"), "{detail}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn otc_snapshot_round_trips_through_json_text() {
        let mut net = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut net, &(0..16).rev().collect::<Vec<_>>()).unwrap();
        let snap = net.snapshot();
        let text = snap.render();
        let back = Snapshot::parse(&text).unwrap();
        let mut fresh = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut fresh, &(0..16).collect::<Vec<_>>()).unwrap();
        fresh.restore(&back).unwrap();
        assert_eq!(fresh.clock(), net.clock());
        assert_eq!(fresh.snapshot().render(), text);
    }

    #[test]
    fn restore_rejects_wrong_cycle_length() {
        let mut a = Otc::for_sorting(16).unwrap();
        let _ = otc::sort::sort(&mut a, &(0..16).rev().collect::<Vec<_>>()).unwrap();
        let snap = a.snapshot();
        let mut b = Otc::new(4, 8, crate::CostModel::thompson(32)).unwrap();
        match b.restore(&snap) {
            Err(SimError::SnapshotMismatch { what: "cycle length", .. }) => {}
            other => panic!("expected cycle-length mismatch, got {other:?}"),
        }
    }

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*s ^ (*s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Overwrites every register and root port with `NULL`s, extreme words
    /// and words of every magnitude.
    fn scramble<T: Topology>(net: &mut WordNet<T>, mut seed: u64) {
        let mut word = || {
            let r = splitmix(&mut seed);
            match r % 8 {
                0 => None,
                1 => Some(EXTREMES[(r >> 3) as usize % EXTREMES.len()]),
                _ => Some(r as Word >> (r % 64)),
            }
        };
        for plane in &mut net.regs {
            for k in 0..plane.cells() {
                plane.set(k, word());
            }
        }
        for cell in net.roots.iter_mut().flatten() {
            *cell = word();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every snapshot of either network is a render/parse fixed point,
        /// and a snapshot of one network never restores into the other:
        /// the refusal is typed and leaves the target byte-identical.
        #[test]
        fn one_format_round_trips_and_never_crosses_topologies(
            row_log in 0u32..=4,
            col_log in 0u32..=4,
            n_log in 2u32..=8,
            faulty in any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            let mut otn = Otn::new(1 << row_log, 1 << col_log, CostModel::thompson(16)).unwrap();
            let (m, cycle) = Otc::dims_for(1 << n_log).unwrap();
            let mut otc = Otc::new(m, cycle, CostModel::thompson(1 << n_log)).unwrap();
            if faulty {
                let plan = FaultPlan::new(seed).with_word_fault_rate(0.05);
                otn.install_fault_plan(plan.clone());
                otc.install_fault_plan(plan);
            }
            let a = otn.alloc_reg("A");
            otn.load_reg(a, |i, j| Some((i * 7 + j) as Word));
            otn.root_to_leaf(Axis::Rows, a, all);
            otn.sum_to_root(Axis::Cols, a, all);
            let c = otc.alloc_reg("A");
            otc.load_reg(c, |i, j, q| Some((i * 7 + j + q) as Word));
            otc.root_to_cycle(Axis::Rows, c, |_, _, _| true);
            otc.sum_cycle_to_root(Axis::Cols, c, |_, _, _, _| true);
            scramble(&mut otn, seed);
            scramble(&mut otc, !seed);

            for text in [otn.checkpoint_text(), otc.checkpoint_text()] {
                let snap = Snapshot::parse(&text).unwrap();
                prop_assert_eq!(snap.render(), text);
            }
            let (otn_text, otc_text) = (otn.checkpoint_text(), otc.checkpoint_text());
            let into_otc = otc.restore(&otn.snapshot());
            prop_assert!(matches!(into_otc, Err(SimError::SnapshotMismatch { .. })), "{into_otc:?}");
            let into_otn = otn.restore(&otc.snapshot());
            prop_assert!(matches!(into_otn, Err(SimError::SnapshotMismatch { .. })), "{into_otn:?}");
            prop_assert_eq!(otn.checkpoint_text(), otn_text);
            prop_assert_eq!(otc.checkpoint_text(), otc_text);
        }

        /// A sorted network's document truncated at, or with one byte
        /// replaced at, any position parses or fails with a format error;
        /// it never panics.
        #[test]
        fn truncated_or_byte_edited_documents_parse_or_fail_typed(
            n_log in 2u32..=4,
            cycles in any::<bool>(),
            faulty in any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let n = 1usize << n_log;
            let xs: Vec<Word> = (0..n as Word).rev().collect();
            let plan = faulty.then(|| FaultPlan::new(seed).with_word_fault_rate(0.05));
            let text = if cycles {
                let mut net = Otc::for_sorting(n).unwrap();
                if let Some(p) = plan {
                    net.install_fault_plan(p);
                }
                let _ = otc::sort::sort(&mut net, &xs);
                net.checkpoint_text()
            } else {
                let mut net = Otn::for_sorting(n).unwrap();
                if let Some(p) = plan {
                    net.install_fault_plan(p);
                }
                let _ = otn::sort::sort(&mut net, &xs);
                net.checkpoint_text()
            };
            let check = |doc: &str| match Snapshot::parse(doc) {
                Ok(_) | Err(SimError::SnapshotFormat { .. }) => Ok(()),
                Err(other) => Err(TestCaseError::fail(format!("non-format error: {other:?}"))),
            };
            let mut buf = text.clone().into_bytes();
            let mut s = seed;
            for _ in 0..64 {
                let k = (splitmix(&mut s) % text.len() as u64) as usize;
                check(&text[..k])?;
                let old = std::mem::replace(&mut buf[k], b"{}[]\":,0-9ex \\"[k % 14]);
                check(std::str::from_utf8(&buf).unwrap())?;
                buf[k] = old;
            }
        }
    }
}
