//! Identity pin of the quick reproduction report: the text
//! `full_report(&ReportConfig::default())` renders, which `repro --quick`
//! prints, must keep its recorded byte length and FNV-1a-64 digest. Every
//! simulation in the report is deterministic, so a refactor that runs the
//! same simulations in the same order under the same labels leaves both
//! figures unchanged; a deliberate output change re-records them.

use orthotrees_analysis::report::{full_report, ReportConfig};

/// FNV-1a-64 over the bytes of `text`.
fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn quick_report_matches_its_pinned_digest() {
    let text = full_report(&ReportConfig::default());
    assert_eq!(
        (text.len(), digest(&text)),
        (17_305, 0x9592_c47e_7e7c_2c44),
        "quick report changed; now ({}, {:#018x})",
        text.len(),
        digest(&text)
    );
}
