//! Structured diagnostics: the rule catalogue, findings and reports.
//!
//! Every check in this crate reports through the same vocabulary: a
//! [`Finding`] names the violated rule (stable id), the network and the
//! node/link it anchors to, what is wrong, and how to fix it. A [`Report`]
//! collects findings across passes and renders them as text or as an
//! [`obs::json`](orthotrees_obs::json) document for machine consumption.
//!
//! Rule ids are **stable**: tests (the mutation matrix) and downstream
//! tooling key off them, so an id is never renumbered or reused.

use orthotrees_obs::json::Json;
use orthotrees_obs::schema::{self, SchemaError};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably wrong (e.g. budget heuristics).
    Warning,
    /// The network violates a structural or scheduling invariant.
    Error,
}

impl Severity {
    /// Lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable identifier (`NET-001`, `TREE-003`, ...).
    pub id: &'static str,
    /// One-line summary of what the rule checks.
    pub summary: &'static str,
    /// Severity of a violation.
    pub severity: Severity,
    /// The kind of element a finding anchors to (`RULES.md` column).
    pub subject: &'static str,
    /// Catalogue-level fix hint (individual findings carry a sharper,
    /// instance-specific hint).
    pub hint: &'static str,
}

/// The full rule catalogue, in id order (mirrored in DESIGN.md §10 and
/// the generated `RULES.md`).
pub const RULES: &[Rule] = &[
    Rule {
        id: "NET-001",
        summary: "input port driven by more than one link (write-write wiring conflict)",
        severity: Severity::Error,
        subject: "input port",
        hint: "rewire so every input port has exactly one driving link",
    },
    Rule {
        id: "NET-002",
        summary: "link endpoint references a node that does not exist (dangling wire)",
        severity: Severity::Error,
        subject: "link endpoint",
        hint: "point both link endpoints at nodes inside the netlist",
    },
    Rule {
        id: "NET-003",
        summary: "node degree or port fan-out exceeds the paper's constant bound",
        severity: Severity::Error,
        subject: "node",
        hint: "split the node or reroute links until the degree bound holds",
    },
    Rule {
        id: "NET-004",
        summary: "link connects a node to itself",
        severity: Severity::Error,
        subject: "link",
        hint: "remove the self-loop or retarget one endpoint",
    },
    Rule {
        id: "NET-005",
        summary: "two identical parallel links between the same port pair",
        severity: Severity::Error,
        subject: "link pair",
        hint: "drop the duplicate link",
    },
    Rule {
        id: "TREE-001",
        summary: "not a complete binary tree with the expected leaf count",
        severity: Severity::Error,
        subject: "tree",
        hint: "rebuild the tree with 2·leaves − 1 nodes and leaves-first ids",
    },
    Rule {
        id: "TREE-002",
        summary: "node unreachable from the tree root (disconnected subtree)",
        severity: Severity::Error,
        subject: "tree node",
        hint: "restore the missing internal links so the root reaches every node",
    },
    Rule {
        id: "TREE-003",
        summary: "wire length violates the strip embedding's level rule (pitch·2^(h−1))",
        severity: Severity::Error,
        subject: "tree wire",
        hint: "use the strip embedding's level length pitch·2^(h−1)",
    },
    Rule {
        id: "OTN-001",
        summary: "OTN dimensions are not powers of two",
        severity: Severity::Error,
        subject: "network shape",
        hint: "round the matrix dimensions to powers of two",
    },
    Rule {
        id: "OTN-002",
        summary: "OTN leaf pitch disagrees with the layout convention (w + depth + 1)",
        severity: Severity::Error,
        subject: "leaf pitch",
        hint: "set pitch to word bits + tree depth + 1",
    },
    Rule {
        id: "OTC-001",
        summary: "OTC cycle length is not the Θ(log N) decomposition of dims_for",
        severity: Severity::Error,
        subject: "cycle length",
        hint: "use the dims_for(n) decomposition for the cycle length",
    },
    Rule {
        id: "OTC-002",
        summary: "OTC pitch disagrees with the cycle-block convention",
        severity: Severity::Error,
        subject: "leaf pitch",
        hint: "set pitch to the cycle block max(2L−1, w+1) + depth + 1",
    },
    Rule {
        id: "AREA-001",
        summary: "constructed layout area disagrees with the closed-form prediction",
        severity: Severity::Error,
        subject: "layout",
        hint: "reconcile the constructed layout with the closed-form area",
    },
    Rule {
        id: "GEO-001",
        summary: "layout components overlap on the chip",
        severity: Severity::Error,
        subject: "chip component",
        hint: "move the overlapping component to a free strip",
    },
    Rule {
        id: "SCHED-001",
        summary: "two words occupy the same link entrance slot (write-write drive conflict)",
        severity: Severity::Error,
        subject: "link slot",
        hint: "re-stagger the schedule so each slot carries one word",
    },
    Rule {
        id: "SCHED-002",
        summary: "primitive's static step count exceeds its O(log² N) budget",
        severity: Severity::Warning,
        subject: "schedule",
        hint: "shorten the schedule or justify the budget excess",
    },
    Rule {
        id: "SCHED-003",
        summary: "derived static schedule disagrees with the charged closed-form cost",
        severity: Severity::Error,
        subject: "schedule",
        hint: "derive the schedule and the charged cost from one closed form",
    },
    Rule {
        id: "CKPT-001",
        summary: "checkpoint/restore round trip diverges from the uninterrupted run",
        severity: Severity::Error,
        subject: "engine snapshot",
        hint: "capture the forgotten engine state in the snapshot",
    },
    Rule {
        id: "CKPT-002",
        summary: "snapshot on-disk format broken (not a render/parse fixed point, tampering \
                  accepted, or shape mismatch not rejected)",
        severity: Severity::Error,
        subject: "snapshot file",
        hint: "make render/parse a fixed point and reject tampered documents",
    },
    Rule {
        id: "DET-001",
        summary: "same-timestamp events do not commute (tie-break order changes results)",
        severity: Severity::Error,
        subject: "event pair",
        hint: "make same-timestamp event handlers commutative",
    },
    Rule {
        id: "ENG-001",
        summary: "heap and ladder calendars deliver different event sequences for the same network",
        severity: Severity::Error,
        subject: "calendar pair",
        hint: "the ladder must honour the unique (at, seq) ordering key exactly",
    },
    Rule {
        id: "CRIT-001",
        summary: "clean ROOTTOLEAF critical path disagrees with the per-level closed-form delays",
        severity: Severity::Error,
        subject: "critical path",
        hint: "align per-level wire delays with the closed form",
    },
    Rule {
        id: "CRIT-002",
        summary: "critical path does not tile [0, completion] (gap, overlap or wrong endpoints)",
        severity: Severity::Error,
        subject: "critical path",
        hint: "close the gap/overlap so segments tile [0, completion]",
    },
    Rule {
        id: "CRIT-003",
        summary: "link slack accounting broken (no zero-slack completion link)",
        severity: Severity::Error,
        subject: "link slack",
        hint: "recompute slacks so the completion link has zero slack",
    },
    Rule {
        id: "PRIM-001",
        summary: "primitive registry disagrees with the CostModel (unpriced entry, \
                  drifted closed form, or unreachable cost kind)",
        severity: Severity::Error,
        subject: "registry entry",
        hint: "price the entry through CostModel::primitive_cost",
    },
    Rule {
        id: "PROF-001",
        summary: "profiler window sums do not tile the recorder's aggregate totals",
        severity: Severity::Error,
        subject: "profile window",
        hint: "make the window sums tile the recorder totals exactly",
    },
    Rule {
        id: "PROF-002",
        summary: "profiler window sequence has a gap or is not monotone from index 0",
        severity: Severity::Error,
        subject: "window sequence",
        hint: "emit windows contiguously from index 0",
    },
    Rule {
        id: "DFLOW-001",
        summary: "primitive reads a register cell no leg has written (uninitialized read)",
        severity: Severity::Error,
        subject: "register cell",
        hint: "declare the cell as a primitive input or write it in an earlier leg",
    },
    Rule {
        id: "DFLOW-002",
        summary: "dead register write (overwritten or never consumed before primitive end)",
        severity: Severity::Error,
        subject: "register write",
        hint: "drop the write or route its value to an output / later leg",
    },
    Rule {
        id: "DFLOW-003",
        summary: "write-write clobber of one register cell inside a single leg",
        severity: Severity::Error,
        subject: "register cell",
        hint: "split the writes across legs or give each its own cell",
    },
    Rule {
        id: "DFLOW-004",
        summary: "static result width disagrees with the registry's ResultWidth rule",
        severity: Severity::Error,
        subject: "result width",
        hint: "fix the combine monoid or the registry's declared width",
    },
    Rule {
        id: "DFLOW-005",
        summary: "static provenance set disagrees with the dynamic reach observed in traces",
        severity: Severity::Error,
        subject: "provenance set",
        hint: "make the executor move exactly the words the symbolic program declares",
    },
    Rule {
        id: "TEL-001",
        summary: "sketch-reported quantile falls outside the ε rank band of the exact quantiles",
        severity: Severity::Error,
        subject: "quantile sketch",
        hint: "feed the sketch every recorded sample and keep ε consistent between write and read",
    },
    Rule {
        id: "TEL-002",
        summary: "flight-recorder dump is not a contiguous suffix of the run's event log",
        severity: Severity::Error,
        subject: "flight dump",
        hint: "record every delivered event in order and never mutate the retained tail",
    },
];

/// Renders the catalogue as the markdown document committed as
/// `RULES.md` (regenerated by the `rulegen` binary; ci.sh diffs the two).
pub fn rules_markdown() -> String {
    let mut out = String::from(
        "# Rule catalogue\n\n\
         Generated from `orthotrees-verify`'s `diag::RULES` by the `rulegen`\n\
         binary — do not edit by hand; run\n\
         `cargo run -p orthotrees-verify --bin rulegen > RULES.md` instead.\n\
         ci.sh regenerates this file and fails on drift.\n\n\
         | id | severity | subject | summary | fix hint |\n\
         |----|----------|---------|---------|----------|\n",
    );
    for r in RULES {
        // Collapse the source's folded string literals to single spaces.
        let summary = r.summary.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.id,
            r.severity.name(),
            r.subject,
            summary,
            r.hint
        ));
    }
    out
}

/// Looks a rule up by id.
///
/// # Panics
///
/// Panics if `id` is not in the catalogue — rule ids are compile-time
/// constants, so an unknown id is a bug in this crate.
pub fn rule(id: &str) -> &'static Rule {
    RULES.iter().find(|r| r.id == id).unwrap_or_else(|| panic!("unknown rule id {id}"))
}

/// Looks a rule up by id without panicking — for data that crossed a
/// serialization boundary (e.g. [`Report::from_json`]), where an unknown
/// id is malformed input rather than a bug in this crate.
pub fn find_rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One diagnostic: a rule violation anchored to a network element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule's stable id.
    pub rule: &'static str,
    /// Severity (copied from the catalogue at construction).
    pub severity: Severity,
    /// Which network/configuration was being checked.
    pub network: String,
    /// The node/link/level the finding anchors to.
    pub subject: String,
    /// What is wrong, with the observed and expected values.
    pub detail: String,
    /// How to fix it.
    pub hint: String,
}

impl Finding {
    /// Creates a finding for catalogue rule `id`.
    pub fn new(
        id: &'static str,
        network: impl Into<String>,
        subject: impl Into<String>,
        detail: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Finding {
            rule: id,
            severity: rule(id).severity,
            network: network.into(),
            subject: subject.into(),
            detail: detail.into(),
            hint: hint.into(),
        }
    }

    /// Renders one line of text: `RULE severity network subject: detail`.
    pub fn render(&self) -> String {
        format!(
            "{} [{}] {} · {}: {} (fix: {})",
            self.rule,
            self.severity.name(),
            self.network,
            self.subject,
            self.detail,
            self.hint
        )
    }

    /// The finding as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::str(self.rule)),
            ("severity", Json::str(self.severity.name())),
            ("network", Json::str(self.network.clone())),
            ("subject", Json::str(self.subject.clone())),
            ("detail", Json::str(self.detail.clone())),
            ("hint", Json::str(self.hint.clone())),
        ])
    }
}

/// A collection of findings across verification passes.
#[derive(Clone, Debug, Default)]
pub struct Report {
    findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    /// Adds a batch of findings.
    pub fn extend(&mut self, fs: impl IntoIterator<Item = Finding>) {
        self.findings.extend(fs);
    }

    /// All findings, in insertion order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// True when no findings were collected.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings for one rule id.
    pub fn count(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// True if at least one finding matches `rule`.
    pub fn has(&self, rule: &str) -> bool {
        self.count(rule) > 0
    }

    /// Renders the report as human-readable text (one line per finding,
    /// plus a summary line).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let errors = self.findings.iter().filter(|f| f.severity == Severity::Error).count();
        let warnings = self.findings.len() - errors;
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// The report as a JSON document (schema `orthotrees-verify/v1`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("orthotrees-verify/v1")),
            ("findings", Json::arr(self.findings.iter().map(Finding::to_json))),
            (
                "errors",
                Json::u64(
                    self.findings.iter().filter(|f| f.severity == Severity::Error).count() as u64
                ),
            ),
            (
                "warnings",
                Json::u64(
                    self.findings.iter().filter(|f| f.severity == Severity::Warning).count() as u64
                ),
            ),
        ])
    }

    /// Parses a report back from its [`to_json`](Report::to_json)
    /// rendering: the [`schema::VERIFY`] table, then the catalogue (known
    /// rule ids, their severities, the tallies). `parse → from_json →
    /// to_json` is the identity on documents this crate emitted; the first
    /// check that fails is the [`ReportError`].
    pub fn from_json(doc: &Json) -> Result<Report, ReportError> {
        schema::check(doc, schema::VERIFY).map_err(ReportError::Shape)?;
        let mut report = Report::new();
        for (i, item) in schema::rows_at(doc, "findings").iter().enumerate() {
            let field = |key| item.get(key).and_then(Json::as_str).unwrap_or_default().to_string();
            let id = field("rule");
            let rule = find_rule(&id).ok_or(ReportError::UnknownRule { finding: i, id })?;
            let severity = field("severity");
            if severity != rule.severity.name() {
                return Err(ReportError::SeverityContradiction {
                    finding: i,
                    rule: rule.id,
                    found: severity,
                    catalogue: rule.severity,
                });
            }
            let [network, subject, detail, hint] =
                ["network", "subject", "detail", "hint"].map(field);
            report.push(Finding::new(rule.id, network, subject, detail, hint));
        }
        for (key, severity) in [("errors", Severity::Error), ("warnings", Severity::Warning)] {
            let parsed = report.findings.iter().filter(|f| f.severity == severity).count() as u64;
            let found = schema::u64_at(doc, key);
            if found != parsed {
                return Err(ReportError::TallyMismatch { key, found, parsed });
            }
        }
        Ok(report)
    }
}

/// Why [`Report::from_json`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// The document breaks the [`schema::VERIFY`] table.
    Shape(SchemaError),
    /// A finding names a rule id the catalogue does not have.
    UnknownRule {
        /// The finding's index.
        finding: usize,
        /// The rule id it names.
        id: String,
    },
    /// A finding's severity contradicts the catalogue's for its rule.
    SeverityContradiction {
        /// The finding's index.
        finding: usize,
        /// The rule id.
        rule: &'static str,
        /// The severity the finding carries.
        found: String,
        /// The catalogue's severity for the rule.
        catalogue: Severity,
    },
    /// The error or warning tally disagrees with the parsed findings.
    TallyMismatch {
        /// `errors` or `warnings`.
        key: &'static str,
        /// The tally the document carries.
        found: u64,
        /// The count of parsed findings of that severity.
        parsed: u64,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Shape(e) => write!(f, "{e}"),
            ReportError::UnknownRule { finding, id } => {
                write!(f, "finding {finding}: unknown rule id {id}")
            }
            ReportError::SeverityContradiction { finding, rule, found, catalogue } => write!(
                f,
                "finding {finding}: severity {found:?} contradicts the catalogue's {:?} for {rule}",
                catalogue.name()
            ),
            ReportError::TallyMismatch { key, found, parsed } => {
                write!(f, "{key} tally {found} disagrees with {parsed} parsed findings")
            }
        }
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
        }
    }

    #[test]
    fn findings_inherit_catalogue_severity() {
        let f = Finding::new("SCHED-002", "net", "subj", "detail", "hint");
        assert_eq!(f.severity, Severity::Warning);
        let f = Finding::new("NET-001", "net", "subj", "detail", "hint");
        assert_eq!(f.severity, Severity::Error);
    }

    #[test]
    fn report_round_trips_to_json() {
        let mut r = Report::new();
        r.push(Finding::new("NET-004", "t", "link 0", "self-loop", "remove it"));
        let doc = r.to_json().render();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("errors").and_then(Json::as_u64), Some(1));
        let arr = parsed.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("rule").and_then(Json::as_str), Some("NET-004"));
    }

    #[test]
    #[should_panic(expected = "unknown rule id")]
    fn unknown_rule_id_is_a_bug() {
        let _ = rule("NOPE-999");
    }

    #[test]
    fn report_parses_back_from_its_own_json() {
        let mut r = Report::new();
        r.push(Finding::new("NET-004", "t", "link 0", "self-loop", "remove it"));
        r.push(Finding::new("SCHED-002", "t", "sched", "over budget", "shorten"));
        let doc = Json::parse(&r.to_json().render()).unwrap();
        let back = Report::from_json(&doc).unwrap();
        assert_eq!(back.findings(), r.findings());
        assert_eq!(back.to_json(), r.to_json(), "round trip is the identity");
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        let bad_schema = Json::parse(r#"{"schema": "other/v9", "findings": []}"#).unwrap();
        assert!(matches!(
            Report::from_json(&bad_schema),
            Err(ReportError::Shape(e)) if e.path == "schema" && e.found == "\"other/v9\""
        ));
        let bad_rule = Json::parse(
            r#"{"schema": "orthotrees-verify/v1", "findings": [{"rule": "NOPE-1",
                "severity": "error", "network": "n", "subject": "s", "detail": "d",
                "hint": "h"}], "errors": 1, "warnings": 0}"#,
        )
        .unwrap();
        assert!(matches!(
            Report::from_json(&bad_rule),
            Err(ReportError::UnknownRule { finding: 0, id }) if id == "NOPE-1"
        ));
        let tampered = Json::obj([
            ("schema", Json::str("orthotrees-verify/v1")),
            ("findings", Json::arr([Finding::new("NET-001", "t", "s", "d", "h").to_json()])),
            ("errors", Json::u64(2)),
            ("warnings", Json::u64(0)),
        ]);
        assert!(matches!(
            Report::from_json(&tampered),
            Err(ReportError::TallyMismatch { key: "errors", found: 2, parsed: 1 })
        ));
    }

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*s ^ (*s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A report of `n` findings of rules drawn from the whole catalogue,
    /// with strings that need escaping.
    fn random_report(seed: &mut u64, n: usize) -> Report {
        const CHARS: [char; 12] =
            ['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '→', '}'];
        let text = |seed: &mut u64| -> String {
            let len = splitmix(seed) % 12;
            (0..len).map(|_| CHARS[(splitmix(seed) % CHARS.len() as u64) as usize]).collect()
        };
        let mut r = Report::new();
        for _ in 0..n {
            let rule = RULES[(splitmix(seed) % RULES.len() as u64) as usize].id;
            r.push(Finding::new(rule, text(seed), text(seed), text(seed), text(seed)));
        }
        r
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Rendering any catalogue report and parsing it back gives the
        /// same report and the same bytes.
        #[test]
        fn render_then_parse_is_the_identity(n in 0usize..8, seed in 0u64..u64::MAX) {
            let mut seed = seed;
            let report = random_report(&mut seed, n);
            let text = report.to_json().render();
            let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
            proptest::prop_assert!(back.findings() == report.findings());
            proptest::prop_assert!(back.to_json().render() == text);
        }
    }

    /// No truncation and no single-byte edit of a rendered report makes
    /// the reader panic: each parses to a report or fails typed.
    #[test]
    fn every_truncation_and_byte_edit_of_a_report_parses_or_fails_typed() {
        let mut seed = 11;
        let text = random_report(&mut seed, 3).to_json().render();
        let (mut parsed, mut rejected) = (0, 0);
        let mut check = |doc: &str| {
            if let Ok(json) = Json::parse(doc) {
                match Report::from_json(&json) {
                    Ok(_) => parsed += 1,
                    Err(e) => {
                        assert!(!e.to_string().is_empty());
                        rejected += 1;
                    }
                }
            }
        };
        for k in (0..text.len()).filter(|&k| text.is_char_boundary(k)) {
            check(&text[..k]);
        }
        let mut buf = text.as_bytes().to_vec();
        for k in 0..buf.len() {
            for b in 0..=u8::MAX {
                let old = std::mem::replace(&mut buf[k], b);
                if let Ok(doc) = std::str::from_utf8(&buf) {
                    check(doc);
                }
                buf[k] = old;
            }
        }
        assert!(parsed > 0 && rejected > 0, "{parsed} parsed, {rejected} rejected");
    }

    #[test]
    fn markdown_catalogue_lists_every_rule_once() {
        let md = rules_markdown();
        for r in RULES {
            assert_eq!(
                md.matches(&format!("| {} |", r.id)).count(),
                1,
                "{} appears exactly once",
                r.id
            );
        }
        assert!(md.contains("| DFLOW-005 | error | provenance set |"));
    }
}
