//! Schema tables against real documents: a fresh document of each of the
//! five `/v1` schemas (telemetry, flight, profile, bench, verify) and the
//! committed `BENCH_2.json` / `PROF_7.json` baselines.
//!
//! Every field of every document must have a row in its table, so no
//! field escapes the checker. The ignored sweep (release, `ci.sh`) makes
//! every hostile edit of [`Edit::all`] to every row of every table, at
//! the first eight elements of its arrays: an edit the row does not admit
//! must be rejected at that field or below it, and no edit may panic.

use orthotrees::obs::json::Json;
use orthotrees::obs::schema::{self, Field, Kind, SchemaError};
use orthotrees::obs::telemetry;
use orthotrees_analysis::experiments::pipeline_telemetry;
use orthotrees_analysis::report::ReportConfig;
use orthotrees_bench::{profile, summary};
use orthotrees_sim::{experiments, FlightRecorder};
use orthotrees_verify::diag::{Report, ReportError};
use orthotrees_verify::fixtures::firing_fixture;
use orthotrees_verify::telemetry::check_flight_dump;
use orthotrees_vlsi::CostModel;

#[path = "support/hostile.rs"]
mod hostile;
use hostile::Edit;

/// A document's checker, answering with the path it rejects the
/// document at (`None` when it accepts).
type Checker = Box<dyn Fn(&Json) -> Option<String>>;

fn path_of<E: 'static>(check: fn(&Json) -> Result<(), E>, path: fn(E) -> String) -> Checker {
    Box::new(move |doc| check(doc).err().map(path))
}

/// Each document with its table and checker; `full` adds the fresh
/// profile document, whose event-core microbench wants a release build.
fn documents(full: bool) -> Vec<(&'static str, Json, &'static [Field], Checker)> {
    let tel = pipeline_telemetry(16, 32, 7).expect("pipelined batch runs").telemetry.to_json();
    let m = CostModel::thompson(16);
    let (t, mut e) = experiments::broadcast(16, &m, |e| {
        e.with_event_log().with_flight_recorder(FlightRecorder::new(8))
    })
    .expect("black-box broadcast runs");
    let mut fl = e.take_flight_recorder().expect("flight recorder was installed");
    fl.note_checkpoint(3);
    let dump = fl.dump("export", t, &[("injected", 0)]);
    let log = e.log().to_vec();
    // TEL-002 names a rejected dump's field as its finding's subject.
    let flight: Checker =
        Box::new(move |d| check_flight_dump("sweep", d, &log).first().map(|f| f.subject.clone()));
    let mut report = firing_fixture("NET-004");
    report.extend(firing_fixture("SCHED-002").findings().iter().cloned());
    // A catalogue rule of the report runs only once its table admits it.
    let verify = path_of(
        |d| Report::from_json(d).map(|_| ()),
        |e| match e {
            ReportError::Shape(e) => e.path,
            other => format!("findings ({other})"),
        },
    );
    let cfg = ReportConfig {
        sort_ns: vec![16, 64],
        matmul_ns: vec![2, 4],
        graph_ns: vec![8, 16],
        seed: 42,
    };
    let parse = |text: &str| Json::parse(text).expect("committed baseline parses");
    let path = |e: SchemaError| e.path;
    let mut docs = vec![
        ("telemetry", tel, schema::TELEMETRY, path_of(telemetry::validate, path)),
        ("flight", dump, schema::FLIGHT, flight),
        ("verify", report.to_json(), schema::VERIFY, verify),
        (
            "bench",
            summary::bench_summary("quick", &cfg),
            schema::BENCH,
            path_of(summary::validate, path),
        ),
        (
            "BENCH_2",
            parse(include_str!("../BENCH_2.json")),
            schema::BENCH,
            path_of(summary::validate, path),
        ),
        (
            "PROF_7",
            parse(include_str!("../PROF_7.json")),
            schema::PROFILE,
            path_of(profile::validate, path),
        ),
    ];
    if full {
        let fresh = profile::profile_document("quick", 42);
        docs.push(("profile", fresh, schema::PROFILE, path_of(profile::validate, path)));
    }
    docs
}

/// The fields of `node` (at row pattern `pattern`) that no row of
/// `table` describes.
fn undescribed(node: &Json, pattern: &str, table: &[Field], out: &mut Vec<String>) {
    for (key, value) in node.as_obj().unwrap_or_default() {
        let path = if pattern.is_empty() { key.clone() } else { format!("{pattern}.{key}") };
        let Some(row) = table.iter().find(|f| {
            let (parent, names) = f.path.rsplit_once('.').unwrap_or(("", f.path));
            parent == pattern && names.split('|').any(|n| n == key)
        }) else {
            out.push(path);
            continue;
        };
        match (row.kind, value) {
            (Kind::Rows, Json::Arr(items)) => {
                items.iter().for_each(|item| undescribed(item, &format!("{path}[]"), table, out));
            }
            (Kind::Map(&Kind::Obj), Json::Obj(entries)) => entries
                .iter()
                .for_each(|(_, entry)| undescribed(entry, &format!("{path}{{}}"), table, out)),
            (Kind::Obj | Kind::Nullable(&Kind::Obj), _) => undescribed(value, &path, table, out),
            _ => {}
        }
    }
}

#[test]
fn every_field_of_every_document_has_a_row() {
    for (name, doc, table, checker) in documents(false) {
        assert_eq!(checker(&doc), None, "{name} is valid");
        let mut out = Vec::new();
        undescribed(&doc, "", table, &mut out);
        assert!(out.is_empty(), "{name}: fields without a row: {out:?}");
    }
}

#[test]
#[ignore = "release-only: every row of every table times every hostile edit"]
fn every_hostile_edit_of_every_row_is_rejected_or_admitted() {
    let edits = Edit::all();
    for (name, doc, table, checker) in documents(true) {
        assert_eq!(checker(&doc), None, "{name} is valid");
        let mut targets =
            (0..8).flat_map(|pick| hostile::targets(&doc, table, pick)).collect::<Vec<_>>();
        targets.sort_by(|a, b| a.path.cmp(&b.path));
        targets.dedup_by(|a, b| a.path == b.path);
        let reached = |row: &Field| {
            let mut names = row.path.rsplit('.').next().unwrap_or_default().split('|');
            names.all(|name| {
                let leaf = |t: &hostile::Target| t.path.rsplit('.').next() == Some(name);
                targets.iter().any(|t| t.row == *row && leaf(t))
            })
        };
        let unreached: Vec<_> = table.iter().filter(|row| !reached(row)).collect();
        assert!(unreached.is_empty(), "{name}: rows without a field: {unreached:?}");
        for target in &targets {
            for edit in &edits {
                let bad = target.apply(&doc, edit);
                let verdict = target.judge(edit, checker(&bad).as_deref());
                assert_eq!(verdict, Ok(()), "{name}");
                let back = Json::parse(&bad.render()).expect("a rendered document parses");
                let verdict = target.judge(&edit.rendered(), checker(&back).as_deref());
                assert_eq!(verdict, Ok(()), "{name}, read back from text");
            }
        }
    }
}

#[test]
fn targets_name_every_present_field_and_edits_apply_there() {
    let doc = r#"{"schema":"t","a":[{"b":1,"c":2},{"b":2,"c":3}],"m":{"k":{"n":true}}}"#;
    let doc = Json::parse(doc).unwrap();
    let table = [
        schema::req("schema", Kind::Tag("t")),
        schema::req("a", Kind::Rows),
        schema::req("a[].b|c", Kind::U64),
        schema::req("m", Kind::Map(&Kind::Obj)),
        schema::req("m{}.n", Kind::Bool),
        schema::opt("z", Kind::U64),
    ];
    let targets = hostile::targets(&doc, &table, 1);
    let paths: Vec<_> = targets.iter().map(|t| t.path.as_str()).collect();
    assert_eq!(paths, ["schema", "a", "a[1].b", "a[1].c", "m", "m.k", "m.k.n"]);
    let b = &targets[2];
    let edited = b.apply(&doc, &Edit::Set(Json::str("x")));
    assert_eq!(schema::check(&edited, &table).unwrap_err().path, "a[1].b");
    assert_eq!(b.judge(&Edit::Drop, None), Err("drop at a[1].b was accepted".to_string()));
    let misplaced = b.judge(&Edit::Drop, Some("a[1].bc"));
    assert_eq!(misplaced, Err("drop at a[1].b rejected at a[1].bc".to_string()));
    assert_eq!(b.judge(&Edit::Set(Json::u64(3)), None), Ok(()));
    assert!(matches!(Edit::Set(Json::Num(f64::NAN)).rendered(), Edit::Set(Json::Null)));
}
