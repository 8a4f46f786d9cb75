//! Telemetry and flight-recorder identity: the streaming bus and the
//! crash ring must be pure observers. At word level the bus's counters
//! agree with its own sketch over the whole registry repertoire
//! (`tests/support/repertoire.rs`; that metering changes no word-level
//! run is `tests/word_identity_suite.rs`'s gate); at engine level the black-box pair (telemetry + flight
//! recorder) completes at exactly the uninstrumented time and the
//! flight tail is a contiguous suffix of the event log (TEL-002). The
//! sketch itself is held to its ε rank-band contract on adversarial
//! streams (TEL-001), a supervised rollback must leave a parseable
//! `orthotrees-flight/v1` post-mortem behind, and the release-only
//! sweep sustains a ≥1000-problem pipelined batch. Both document
//! checkers reject, and never panic on, the hostile edits of valid
//! documents their schema tables do not admit.

use orthotrees::obs::json::Json;
use orthotrees::obs::schema;
use orthotrees::obs::telemetry::{
    self, within_rank_band, QuantileSketch, Telemetry, REPORTED_QUANTILES,
};
use orthotrees::otc::Otc;
use orthotrees::otn::{self, Otn};
use orthotrees::wordnet::{Cycles, Tree, WordNet};
use orthotrees_analysis::experiments::pipeline_telemetry;
use orthotrees_bench::profile::dense_plan;
use orthotrees_sim::experiments::{probe_engine, ProbeKind, PROBE_KINDS};
use orthotrees_sim::{
    experiments, CalendarKind, Engine, EventLog, FaultPlan as LinkFaultPlan, FlightRecorder,
    Recorder, RecoveryPolicy,
};
use orthotrees_vlsi::CostModel;
use proptest::prelude::*;

#[path = "support/hostile.rs"]
mod hostile;
use hostile::Edit;

#[path = "support/repertoire.rs"]
mod repertoire;
use repertoire::Load;

/// Fits a bit-level run with the black-box instruments: the event log,
/// the telemetry bus (snapshot interval 16τ) and the flight recorder.
fn black_box(e: Engine) -> Engine {
    e.with_event_log()
        .with_telemetry(Telemetry::new(16))
        .with_flight_recorder(FlightRecorder::default())
}

/// Takes the black-box instruments and a copy of the event log off a run.
fn take_black_box(e: &mut Engine) -> (Telemetry, FlightRecorder, Vec<EventLog>) {
    (e.take_telemetry().unwrap(), e.take_flight_recorder().unwrap(), e.log().to_vec())
}

/// Asserts the bus told the truth about a word-level run: the charge
/// counter matches the charge-duration sketch's population, and the
/// sketch never reports outside `[min, max]`.
fn assert_bus_consistency(tel: &Telemetry, charges: &str, taus: &str) {
    let count = tel.counter(charges);
    assert!(count > 0, "the repertoire must charge at least once");
    let sk = tel.sketch(taus).expect("every charge observes its duration");
    assert_eq!(sk.count(), count, "one observation per counted charge");
    for (_, q) in REPORTED_QUANTILES {
        let v = sk.quantile(q).unwrap();
        assert!(sk.min() <= v && v <= sk.max());
    }
}

/// Meters the repertoire on `T` at `n`, under `dense_plan(seed)` when
/// given, and asserts the bus's consistency on it.
fn assert_repertoire_bus<T: Load>(n: usize, seed: Option<u64>) {
    let mut net = repertoire::run::<T>(n, |net: &mut WordNet<T>| {
        net.install_telemetry(Telemetry::new(64));
        if let Some(seed) = seed {
            net.install_fault_plan(dense_plan(seed));
        }
    });
    assert_bus_consistency(&net.take_telemetry().unwrap(), T::CHARGES, T::CHARGE_TAU);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// OTN: the bus's counters agree with its own sketch over the
    /// metered repertoire — 2² to 2⁷ leaves, with and without a dense
    /// fault plan.
    #[test]
    fn otn_telemetry_agrees_with_itself(
        k in 2u32..=7,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        assert_repertoire_bus::<Tree>(1 << k, faulty.then_some(seed));
    }

    /// OTC: the same agreement over the stream repertoire.
    #[test]
    fn otc_telemetry_agrees_with_itself(
        size_idx in 0usize..3,
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        assert_repertoire_bus::<Cycles>([16, 64, 256][size_idx], faulty.then_some(seed));
    }

    /// Engine level: the black-box pair (telemetry + flight recorder)
    /// completes a bit-level broadcast at exactly the uninstrumented
    /// time, counts every delivery, and the flight tail passes the
    /// TEL-002 contiguous-suffix check against the event log.
    #[test]
    fn engine_black_box_is_clock_identical_and_contiguous(k in 2u32..=7) {
        let leaves = 1usize << k;
        let m = CostModel::thompson(leaves);
        let bare = experiments::broadcast_completion_time(leaves, &m).unwrap();
        let (t, mut e) = experiments::broadcast(leaves, &m, black_box).unwrap();
        let (tel, mut fl, log) = take_black_box(&mut e);
        prop_assert_eq!(bare, t);
        prop_assert_eq!(tel.counter("engine.delivered"), log.len() as u64);
        prop_assert_eq!(fl.recorded(), log.len() as u64);
        let dump = fl.dump("export", t, &[]);
        let findings = orthotrees_verify::telemetry::check_flight_dump("suite", &dump, &log);
        prop_assert!(findings.is_empty(), "{findings:?}");
    }

    /// TEL-001 at the source: on adversarial integer streams (heavy
    /// ties, wide dynamic range), every reported sketch quantile stays
    /// inside the ε rank band of the exact sorted samples.
    #[test]
    fn sketch_quantiles_stay_inside_their_rank_band(
        values in proptest::collection::vec(0u64..1_000_000, 1..600),
        eps_idx in 0usize..3,
        modulus_idx in 0usize..3,
    ) {
        let eps = [0.001, 0.01, 0.05][eps_idx];
        let modulus = [0u64, 7, 100][modulus_idx];
        let mut sk = QuantileSketch::new(eps);
        let stream: Vec<u64> =
            values.iter().map(|&v| if modulus == 0 { v } else { v % modulus }).collect();
        for &v in &stream {
            sk.observe(v);
        }
        let mut sorted = stream;
        sorted.sort_unstable();
        for (_, q) in REPORTED_QUANTILES {
            let v = sk.quantile(q).unwrap();
            prop_assert!(
                within_rank_band(&sorted, q, eps, v),
                "q={q} ε={eps}: {v} escapes the rank band of {} samples", sorted.len()
            );
        }
    }
}

/// Supervised crash recovery with the black-box pair riding along: the
/// recovery outcome matches the uninstrumented supervised run, and the
/// rollback leaves a parseable `orthotrees-flight/v1` post-mortem whose
/// count the bus agrees with.
#[test]
fn a_rollback_dumps_a_parseable_post_mortem() {
    let values: Vec<u64> = (0..16).collect();
    let m = CostModel::thompson(16);
    let policy =
        RecoveryPolicy { max_attempts: 12, checkpoint_events: 32, min_checkpoint_events: 4 };
    let (report_a, _, sum_a) = experiments::supervised_sum_recovery(&values, &m, &policy, |e| {
        e.with_recorder(Recorder::new())
    })
    .unwrap();
    let (report_b, mut e, sum_b) =
        experiments::supervised_sum_recovery(&values, &m, &policy, |e| {
            e.with_telemetry(Telemetry::new(16)).with_flight_recorder(FlightRecorder::default())
        })
        .unwrap();
    let (tel, fl) = (e.take_telemetry().unwrap(), e.take_flight_recorder().unwrap());
    assert_eq!(report_a, report_b, "the black box must not change recovery behaviour");
    assert_eq!(sum_a, sum_b);
    assert!(report_b.rollbacks >= 1, "the outage must actually trip the supervisor");
    assert_eq!(tel.counter("recovery.rollbacks"), u64::from(report_b.rollbacks));

    let dumps = fl.post_mortems();
    assert_eq!(dumps.len() as u64, u64::from(report_b.rollbacks), "one post-mortem per rollback");
    for pm in dumps {
        let doc = Json::parse(&pm.render()).expect("post-mortem must round-trip as JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(orthotrees::obs::flight::SCHEMA));
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("rollback"));
        assert!(doc.get("tail").and_then(Json::as_arr).is_some());
        assert!(doc.get("recorded_events").and_then(Json::as_u64).is_some());
    }
}

/// Attaching the bus registers every `engine.*` meter, but a meter the
/// run never touches stays out of every reader and export: a clean run
/// injects no fault, so `engine.faults_injected` is registered and
/// invisible, while the faulty run of the same probe shows it.
#[test]
fn a_registered_but_untouched_engine_meter_is_invisible() {
    let fault = "engine.faults_injected";
    let m = CostModel::thompson(16);
    let mut attached = Engine::new(m.delay).with_telemetry(Telemetry::new(16));
    let registered = attached.telemetry_mut().is_some_and(|t| t.is_registered(fault));
    assert!(registered, "registered on attachment");
    for faulty in [false, true] {
        let plan = faulty.then(|| LinkFaultPlan::new(99).with_link_fault_rate(0.3));
        let mut e = probe_engine(ProbeKind::Stream, 16, &m, CalendarKind::Ladder, plan, false)
            .with_telemetry(Telemetry::new(16));
        e.try_run().expect("probe runs within budget");
        let tel = e.take_telemetry().unwrap();
        assert!(tel.is_registered(fault));
        assert!(!tel.snapshots().is_empty(), "the run crossed a snapshot boundary");
        let in_rows =
            tel.snapshots().iter().any(|row| tel.row_counters(row).any(|(n, _)| n == fault));
        let shown = [
            tel.counters().any(|(n, _)| n == fault),
            in_rows,
            tel.to_json().render().contains(fault),
            tel.open_metrics().contains("engine_faults_injected"),
        ];
        assert_eq!(shown, [faulty; 4], "faulty = {faulty}: counters, rows, JSON, OpenMetrics");
    }
}

/// Release-only sweep (`ci.sh`): a ≥1000-problem pipelined batch
/// sustains its SLO — positive throughput, ordered quantiles bounded by
/// the makespan, and a sketch still inside its ε band of the exact
/// completions at that population.
#[test]
#[ignore = "release-only: 1024 pipelined problems"]
fn pipeline_slo_sustains_a_thousand_problems() {
    let slo = pipeline_telemetry(64, 1024, 42).unwrap();
    assert_eq!(slo.completions.len(), 1024);
    assert!(slo.problems_per_mtau() > 0.0);
    let [p50, p90, p99] = slo.quantiles;
    assert!(p50 <= p90 && p90 <= p99, "{:?}", slo.quantiles);
    assert!(p50 >= slo.single_latency.get());
    assert!(p99 <= slo.makespan.get());
    let mut sorted = slo.completions.clone();
    sorted.sort_unstable();
    let eps = slo.telemetry.epsilon();
    for (&(_, q), &v) in REPORTED_QUANTILES.iter().zip(&slo.quantiles) {
        assert!(within_rank_band(&sorted, q, eps, v), "q={q} v={v} outside ε band at 1024");
    }
}

// ---------------------------------------------------------------------
// Hostile documents: both checkers reject every hostile edit of a valid
// document that its schema table does not admit, at that field, and
// never panic.
// ---------------------------------------------------------------------

/// A valid telemetry document, a valid flight dump and the event log
/// the dump is a suffix of, from one black-box broadcast.
fn valid_documents() -> (Json, Json, Vec<orthotrees_sim::EventLog>) {
    let m = CostModel::thompson(64);
    let (t, mut e) = experiments::broadcast(64, &m, black_box).unwrap();
    let (mut tel, mut fl, log) = take_black_box(&mut e);
    assert!(!tel.snapshots().is_empty() && tel.sketches().count() > 0, "a document to mutate");
    tel.gauge("engine.links", 14);
    let dump = fl.dump("export", t, &[("injected", 0)]);
    (tel.to_json(), dump, log)
}

/// Makes hostile edit `edit` to target `target` of `doc` (element `pick`
/// of every array on the way) and judges `rejected_at` — the path the
/// checker rejects a document at — on the edited document and on its
/// rendered text read back.
fn judge_hostile_edit(
    doc: &Json,
    table: &[schema::Field],
    (target, pick, edit): (usize, usize, usize),
    rejected_at: impl Fn(&Json) -> Option<String>,
) -> Result<(), String> {
    let targets = hostile::targets(doc, table, pick);
    let target = &targets[target % targets.len()];
    let edits = Edit::all();
    let edit = &edits[edit % edits.len()];
    let bad = target.apply(doc, edit);
    target.judge(edit, rejected_at(&bad).as_deref())?;
    let back = Json::parse(&bad.render()).expect("a rendered document parses");
    target.judge(&edit.rendered(), rejected_at(&back).as_deref())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn telemetry_schema_flags_hostile_fields_without_panicking(
        target in 0usize..1_000,
        pick in 0usize..64,
        edit in 0usize..100,
    ) {
        let (doc, _, _) = valid_documents();
        prop_assert_eq!(telemetry::validate(&doc), Ok(()));
        let verdict = judge_hostile_edit(&doc, schema::TELEMETRY, (target, pick, edit), |d| {
            telemetry::validate(d).err().map(|e| e.path)
        });
        prop_assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn flight_dump_check_flags_hostile_fields_without_panicking(
        target in 0usize..1_000,
        pick in 0usize..64,
        edit in 0usize..100,
    ) {
        let (_, dump, log) = valid_documents();
        let check = |d: &Json| orthotrees_verify::telemetry::check_flight_dump("hostile", d, &log);
        prop_assert!(check(&dump).is_empty());
        let verdict = judge_hostile_edit(&dump, schema::FLIGHT, (target, pick, edit), |d| {
            check(d).first().map(|f| f.subject.clone())
        });
        prop_assert_eq!(verdict, Ok(()));
    }
}

// ---------------------------------------------------------------------
// Export identity: both exports of a bus, pinned as digests recorded
// before the registry stored its metrics by id, so a change to how the
// bus keeps its metrics cannot move a byte of what it exports.
// ---------------------------------------------------------------------

/// FNV-1a over the `orthotrees-telemetry/v1` document followed by the
/// OpenMetrics text.
fn export_digest(tel: &Telemetry) -> u64 {
    let text = tel.to_json().render() + &tel.open_metrics();
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The exports of one engine probe with `Telemetry::new(16)` attached,
/// clean or under a dense link-fault plan.
fn probe_exports(kind: ProbeKind, n: usize, faulty: bool) -> u64 {
    let m = CostModel::thompson(n);
    let plan = faulty.then(|| LinkFaultPlan::new(99).with_link_fault_rate(0.3));
    let mut e = probe_engine(kind, n, &m, CalendarKind::Ladder, plan, false)
        .with_telemetry(Telemetry::new(16));
    e.try_run().expect("probe runs within budget");
    export_digest(&e.take_telemetry().unwrap())
}

/// The exports of SORT-OTN and SORT-OTC at `n`, clean or under a
/// word-fault plan, each with `Telemetry::new(64)` installed.
fn sort_exports(n: usize, faulty: bool) -> [u64; 2] {
    let xs = orthotrees_analysis::workloads::distinct_words(n, 5);
    let mut otn_net = Otn::for_sorting(n).unwrap();
    otn_net.install_telemetry(Telemetry::new(64));
    let mut otc_net = Otc::for_sorting(n).unwrap();
    otc_net.install_telemetry(Telemetry::new(64));
    if faulty {
        otn_net.install_fault_plan(dense_plan(17));
        otc_net.install_fault_plan(dense_plan(17));
    }
    otn::sort::sort(&mut otn_net, &xs).unwrap();
    orthotrees::otc::sort::sort(&mut otc_net, &xs).unwrap();
    [otn_net.take_telemetry(), otc_net.take_telemetry()].map(|tel| export_digest(&tel.unwrap()))
}

/// The exports of one pipelined batch fed through `record_telemetry`,
/// plus two gauges (one of them 0) so the gauge exporter is pinned too.
fn pipeline_exports() -> u64 {
    let mut slo = pipeline_telemetry(16, 48, 42).unwrap();
    slo.telemetry.gauge("pipeline.issue_interval_tau", slo.issue_interval.get());
    slo.telemetry.gauge("pipeline.idle_stages", 0);
    export_digest(&slo.telemetry)
}

fn condition(faulty: bool) -> &'static str {
    if faulty {
        "faulty"
    } else {
        "clean"
    }
}

/// Every probe at each of `sizes` leaves, clean then faulty, as
/// `(label, digest)`.
fn probe_grid(sizes: &[usize]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &n in sizes {
        for faulty in [false, true] {
            for kind in PROBE_KINDS {
                let label = format!("{}/{n}/{}", kind.tag(), condition(faulty));
                out.push((label, probe_exports(kind, n, faulty)));
            }
        }
    }
    out
}

/// The SORT pair at each of `sizes`, under each of `conditions`.
fn sort_grid(sizes: &[usize], conditions: &[bool]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &n in sizes {
        for &faulty in conditions {
            let [otn, otc] = sort_exports(n, faulty);
            out.push((format!("sort-otn/{n}/{}", condition(faulty)), otn));
            out.push((format!("sort-otc/{n}/{}", condition(faulty)), otc));
        }
    }
    out
}

/// Compares `got` with `want` row by row and lists every mismatch, with
/// the digest computed now in the table's own syntax.
fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)]) {
    let bad: Vec<String> = (0..got.len().max(want.len()))
        .filter_map(|i| {
            let g = got.get(i).map(|(label, d)| (label.as_str(), *d));
            let w = want.get(i).copied();
            let row =
                g.map_or("missing".to_string(), |(label, d)| format!("(\"{label}\", {d:#018x})"));
            (g != w).then(|| format!("row {i}: got {row}, pinned {w:x?}"))
        })
        .collect();
    assert!(bad.is_empty(), "{} rows: {bad:#?}", got.len());
}

/// The pinned grid: every probe at n = 16 and 64 (clean and faulty), the
/// SORT pair at n = 64 under word faults, and one pipelined batch.
const PINNED_EXPORTS: [(&str, u64); 27] = [
    ("broadcast/16/clean", 0x00aa2a360bfc5973),
    ("send/16/clean", 0x67f8a3cf642f9e8b),
    ("sum/16/clean", 0xa82d6f7f09f1fa23),
    ("min/16/clean", 0x719dff6ec28139ad),
    ("leaf-to-leaf/16/clean", 0x9be048f4a37654ed),
    ("stream/16/clean", 0xe481d7b95fdd79df),
    ("broadcast/16/faulty", 0x6a8c5041e4cc9528),
    ("send/16/faulty", 0x45b07e3382a7ba21),
    ("sum/16/faulty", 0xd1a10fe962ea6f15),
    ("min/16/faulty", 0xc2663ae4b6d2aaef),
    ("leaf-to-leaf/16/faulty", 0xd6dd70ad0f43992d),
    ("stream/16/faulty", 0x1760b6ecf918c1b6),
    ("broadcast/64/clean", 0x1cdddd020753ea3a),
    ("send/64/clean", 0x24b343070c0c505b),
    ("sum/64/clean", 0x61409bc298bcad84),
    ("min/64/clean", 0xa4d87230736c03b3),
    ("leaf-to-leaf/64/clean", 0x9c6145d5dd37ef30),
    ("stream/64/clean", 0x3f0927489497e62a),
    ("broadcast/64/faulty", 0x11d9162dd8f8a0b1),
    ("send/64/faulty", 0x983e6f7bcbe0e5b1),
    ("sum/64/faulty", 0xd9095d4d3bcbeb9b),
    ("min/64/faulty", 0x0a468a9b9b660785),
    ("leaf-to-leaf/64/faulty", 0xf4ac27376eef9665),
    ("stream/64/faulty", 0xbe2acfa81213805e),
    ("sort-otn/64/faulty", 0xc7cf83166828dfc9),
    ("sort-otc/64/faulty", 0x2cbbae64e2d08e28),
    ("pipeline/16x48", 0x877c52011a6f9b1d),
];

#[test]
fn exports_match_their_pinned_digests() {
    let mut got = probe_grid(&[16, 64]);
    got.extend(sort_grid(&[64], &[true]));
    got.push(("pipeline/16x48".to_string(), pipeline_exports()));
    assert_digests(&got, &PINNED_EXPORTS);
}

/// Release-only sweep (`ci.sh`): the pinned grid widened to n = 16…512,
/// probes and the SORT pair both clean and faulty.
#[test]
#[ignore = "release-only sweep; run by ci.sh"]
fn telemetry_export_identity_sweep() {
    let sizes = [16, 32, 64, 128, 256, 512];
    let mut got = probe_grid(&sizes);
    got.extend(sort_grid(&sizes, &[false, true]));
    assert_digests(&got, &SWEPT_EXPORTS);
}

/// The sweep's digests, recorded with the pinned grid's.
const SWEPT_EXPORTS: [(&str, u64); 96] = [
    ("broadcast/16/clean", 0x00aa2a360bfc5973),
    ("send/16/clean", 0x67f8a3cf642f9e8b),
    ("sum/16/clean", 0xa82d6f7f09f1fa23),
    ("min/16/clean", 0x719dff6ec28139ad),
    ("leaf-to-leaf/16/clean", 0x9be048f4a37654ed),
    ("stream/16/clean", 0xe481d7b95fdd79df),
    ("broadcast/16/faulty", 0x6a8c5041e4cc9528),
    ("send/16/faulty", 0x45b07e3382a7ba21),
    ("sum/16/faulty", 0xd1a10fe962ea6f15),
    ("min/16/faulty", 0xc2663ae4b6d2aaef),
    ("leaf-to-leaf/16/faulty", 0xd6dd70ad0f43992d),
    ("stream/16/faulty", 0x1760b6ecf918c1b6),
    ("broadcast/32/clean", 0x0aea78060d171b75),
    ("send/32/clean", 0x94773d515288e0a6),
    ("sum/32/clean", 0x26637c9420e5d0ae),
    ("min/32/clean", 0x926fc572bc9cadd5),
    ("leaf-to-leaf/32/clean", 0x40767f1a6df6e20d),
    ("stream/32/clean", 0xa9bcdbaed1cf2233),
    ("broadcast/32/faulty", 0x05ad4abbd68a5411),
    ("send/32/faulty", 0xcfc34b1abf47841c),
    ("sum/32/faulty", 0xe34d6672a9feb444),
    ("min/32/faulty", 0xb290dfc386973096),
    ("leaf-to-leaf/32/faulty", 0x67a9b53be1d5c2d0),
    ("stream/32/faulty", 0x4d8295e68bbb3d32),
    ("broadcast/64/clean", 0x1cdddd020753ea3a),
    ("send/64/clean", 0x24b343070c0c505b),
    ("sum/64/clean", 0x61409bc298bcad84),
    ("min/64/clean", 0xa4d87230736c03b3),
    ("leaf-to-leaf/64/clean", 0x9c6145d5dd37ef30),
    ("stream/64/clean", 0x3f0927489497e62a),
    ("broadcast/64/faulty", 0x11d9162dd8f8a0b1),
    ("send/64/faulty", 0x983e6f7bcbe0e5b1),
    ("sum/64/faulty", 0xd9095d4d3bcbeb9b),
    ("min/64/faulty", 0x0a468a9b9b660785),
    ("leaf-to-leaf/64/faulty", 0xf4ac27376eef9665),
    ("stream/64/faulty", 0xbe2acfa81213805e),
    ("broadcast/128/clean", 0x22ceee51ed848551),
    ("send/128/clean", 0x6a59c1825acfd81d),
    ("sum/128/clean", 0xdb61051fc2d08425),
    ("min/128/clean", 0x331c490fccd60001),
    ("leaf-to-leaf/128/clean", 0x985c44705ce3494c),
    ("stream/128/clean", 0xe59b22a3b986389c),
    ("broadcast/128/faulty", 0xd718a807500c048f),
    ("send/128/faulty", 0x03610853b7848109),
    ("sum/128/faulty", 0xe70acc46ee7cb9b6),
    ("min/128/faulty", 0x04ca6a9a30c85894),
    ("leaf-to-leaf/128/faulty", 0x03610853b7848109),
    ("stream/128/faulty", 0x0839e51659ccd91d),
    ("broadcast/256/clean", 0xbe4fd51db356bbfe),
    ("send/256/clean", 0xc5c80326ca4329ff),
    ("sum/256/clean", 0xfa6f20a3e0940713),
    ("min/256/clean", 0x44c1504cbb915048),
    ("leaf-to-leaf/256/clean", 0x796d964bd00d258c),
    ("stream/256/clean", 0x04da61ea151ffd7f),
    ("broadcast/256/faulty", 0x61fe527464db8e15),
    ("send/256/faulty", 0xf38b6fb3a6f4eb12),
    ("sum/256/faulty", 0xf51ac69c73358996),
    ("min/256/faulty", 0x6de53f1bb8ad8e6a),
    ("leaf-to-leaf/256/faulty", 0xc377c735cd261ea1),
    ("stream/256/faulty", 0xdeb979c592b3e107),
    ("broadcast/512/clean", 0x61871fab2d7d17db),
    ("send/512/clean", 0x48240f487229948a),
    ("sum/512/clean", 0x493186f4e2cf5219),
    ("min/512/clean", 0xe1317b08e5d353fc),
    ("leaf-to-leaf/512/clean", 0x4a076ab2d24216a6),
    ("stream/512/clean", 0xeeeb4d22849e626b),
    ("broadcast/512/faulty", 0x6f5eaeaef0efc542),
    ("send/512/faulty", 0xc894d34fccad8cf3),
    ("sum/512/faulty", 0xb9deedddddca47b2),
    ("min/512/faulty", 0x8de657d2720a0406),
    ("leaf-to-leaf/512/faulty", 0x67aa04b59e111566),
    ("stream/512/faulty", 0xc91abeb09e8930f6),
    ("sort-otn/16/clean", 0xf861ed0dcc6cd248),
    ("sort-otc/16/clean", 0x3582d677b3d87401),
    ("sort-otn/16/faulty", 0xa41c5ece20ca72e1),
    ("sort-otc/16/faulty", 0x5651abc879b49a04),
    ("sort-otn/32/clean", 0xc73c4948dfb51141),
    ("sort-otc/32/clean", 0xb5bd79d814fbe07d),
    ("sort-otn/32/faulty", 0xafc6e2be8ebead2a),
    ("sort-otc/32/faulty", 0xe0a0dcb912d4e0c3),
    ("sort-otn/64/clean", 0xb55634076a36aa78),
    ("sort-otc/64/clean", 0xadfea0166b6de061),
    ("sort-otn/64/faulty", 0xc7cf83166828dfc9),
    ("sort-otc/64/faulty", 0x2cbbae64e2d08e28),
    ("sort-otn/128/clean", 0xe91c1190770855c8),
    ("sort-otc/128/clean", 0x1da7a1d7ba707fe8),
    ("sort-otn/128/faulty", 0x86e81dfd843dfbc1),
    ("sort-otc/128/faulty", 0xe1677e59e6b2c4f7),
    ("sort-otn/256/clean", 0xdb1701176542d368),
    ("sort-otc/256/clean", 0x8436f745d543d0bf),
    ("sort-otn/256/faulty", 0x1a5a3e79505c05dd),
    ("sort-otc/256/faulty", 0x33d303e45ca0b9eb),
    ("sort-otn/512/clean", 0x261dd9ebcb26371b),
    ("sort-otc/512/clean", 0x3ab4f49dfae0c8d4),
    ("sort-otn/512/faulty", 0xeefe66ec28e4c754),
    ("sort-otc/512/faulty", 0xb35820b0035e4c76),
];
