//! Versioned documents are input from outside the program (ROADMAP 6b):
//! a parser may refuse one, it may never panic on one.
//!
//! Two readers so far, each fed arbitrary strings and valid documents
//! with one scalar replaced:
//!
//! - [`CampusHealthDoc::from_json`] (`lightwave/campus-health/v1`);
//! - [`HistogramSnapshot`] / [`ExemplarSnapshot`] and their `restore`,
//!   which rebuild the dense histogram a snapshot describes — `None` for
//!   a bucket exponent outside `−128..=127`, a repeated exponent, counts
//!   that do not sum, a `min`/`max` outside the listed buckets, or
//!   exemplars without their bucket.

use lightwave::telemetry::rollup::{CampusHealthDoc, PortPath, RollupTree};
use lightwave::telemetry::{
    BurnRateLedger, ExemplarHistogram, ExemplarSnapshot, HistogramSnapshot,
};
use lightwave::units::Nanos;
use proptest::prelude::*;

/// Runs every reader over `text`; the only thing asserted is that each
/// returns. What a reader accepted is then used the way a consumer would.
fn read_everything(text: &str) {
    if let Ok(doc) = CampusHealthDoc::from_json(text) {
        let _ = (doc.to_json(), doc.top_burners(3), doc.dominant_cause());
        let _ = doc.pod(0).and(doc.switch(0, 1));
    }
    if let Ok(snap) = serde_json::from_str::<HistogramSnapshot>(text) {
        if let Some(h) = snap.restore() {
            let _ = (h.quantile(0.5), h.quantile_bucket(0.99), h.mean_estimate());
            assert_eq!(h.snapshot().restore(), Some(h), "restore is lossless");
        }
    }
    if let Ok(snap) = serde_json::from_str::<ExemplarSnapshot>(text) {
        if let Some(h) = snap.restore() {
            let _ = (h.quantile(0.5), h.quantile_exemplar(0.99));
        }
    }
}

fn campus_doc() -> String {
    let mut tree = RollupTree::new();
    tree.record("relocks", PortPath::new(0, 1, 4), Nanos(5), 1.0);
    tree.record("drift_db", PortPath::new(1, 0, 0), Nanos(7), -0.25);
    tree.scrape();
    let mut burn = BurnRateLedger::default();
    burn.observe(Nanos(0), 0, true);
    burn.observe(Nanos(40), 1, false);
    CampusHealthDoc::build(&tree, burn.assess(Nanos(100)), Nanos(100)).to_json()
}

fn exemplar_histogram() -> ExemplarHistogram {
    let mut h = ExemplarHistogram::new();
    for (i, v) in [1e-6, 3e-6, 0.5, 0.0, 42.0, 47.5].into_iter().enumerate() {
        h.record(v, i as u64, 100 + i as u64);
    }
    h
}

/// Byte spans of every scalar token of a JSON text: string literals
/// (keys included, quotes included), numbers, `true`/`false`/`null`.
fn scalar_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += 1 + usize::from(bytes[i] == b'\\');
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' | b'a'..=b'z' => {
                while i < bytes.len() && !b",:]} \n".contains(&bytes[i]) {
                    i += 1;
                }
            }
            _ => {
                i += 1;
                continue;
            }
        }
        spans.push(start..i);
    }
    spans
}

/// What a scalar is replaced with: out-of-range and wrong-sign numbers,
/// wrong types, the two exponents of the `restore` bug report.
const REPLACEMENTS: [&str; 14] = [
    "200",
    "-300",
    "-1",
    "0",
    "40000",
    "18446744073709551616",
    "1e400",
    "-0.5",
    "null",
    "true",
    "\"x\"",
    "\"\"",
    "[]",
    "{}",
];

#[test]
fn out_of_range_bucket_exponents_are_refused_not_indexed() {
    // The two documents of the bug report: 200 indexed past the dense
    // table, -300 wrapped to a huge index.
    for exp in ["200", "-300"] {
        let text =
            format!(r#"{{"count":1,"nonfinite":0,"min":1.5,"max":1.5,"buckets":[[{exp},1]]}}"#);
        let snap: HistogramSnapshot = serde_json::from_str(&text).expect("well-formed");
        assert_eq!(snap.restore(), None, "exponent {exp}");
    }
    let good = r#"{"count":1,"nonfinite":0,"min":1.5,"max":1.5,"buckets":[[0,1]]}"#;
    let snap: HistogramSnapshot = serde_json::from_str(good).expect("well-formed");
    assert_eq!(snap.restore().expect("in range").count(), 1);
}

#[test]
fn each_inconsistency_of_a_snapshot_is_refused() {
    let hist = exemplar_histogram();
    let good = hist.hist().snapshot();
    assert_eq!(good.restore().as_ref(), Some(hist.hist()));
    let bad = |edit: fn(&mut HistogramSnapshot)| {
        let mut snap = good.clone();
        edit(&mut snap);
        snap.restore()
    };
    assert_eq!(bad(|s| s.buckets[1].0 = s.buckets[0].0), None, "repeated");
    assert_eq!(bad(|s| s.buckets.swap(0, 1)), None, "not ascending");
    assert_eq!(bad(|s| s.count += 1), None, "counts do not sum");
    assert_eq!(bad(|s| s.min = None), None, "count without a range");
    assert_eq!(bad(|s| s.min = Some(1e9)), None, "min above max");
    assert_eq!(bad(|s| s.min = Some(-0.5)), None, "min not a sample");
    assert_eq!(bad(|s| s.min = Some(3e-6)), None, "min past bucket one");
    assert_eq!(bad(|s| s.max = Some(100.0)), None, "max past the last");
    assert_eq!(bad(|s| s.max = Some(f64::INFINITY)), None, "max infinite");
    assert_eq!(bad(|s| s.buckets.push((9, 0))), None, "empty bucket listed");

    let good = hist.snapshot();
    assert_eq!(good.restore(), Some(hist));
    let mut orphan = good.clone();
    orphan.exemplars[0].exp = 200;
    assert_eq!(orphan.restore(), None, "exemplar without its bucket");
    let mut wild = good;
    wild.counts.buckets[0].0 = 200;
    wild.exemplars[0].exp = 200;
    assert_eq!(wild.restore(), None, "exponent outside the bucket range");
}

#[test]
fn every_single_scalar_mutation_of_a_valid_document_returns() {
    let hist = exemplar_histogram();
    let documents = [
        campus_doc(),
        serde_json::to_string(&hist.hist().snapshot()).expect("serializes"),
        serde_json::to_string(&hist.snapshot()).expect("serializes"),
    ];
    let mut mutants = 0;
    for text in &documents {
        read_everything(text);
        for span in scalar_spans(text) {
            for replacement in REPLACEMENTS {
                let mutant = format!("{}{replacement}{}", &text[..span.start], &text[span.end..]);
                read_everything(&mutant);
                mutants += 1;
            }
        }
    }
    assert!(
        mutants > 2_000,
        "only {mutants} mutants: the spans were lost"
    );
}

#[test]
fn a_wrong_format_tag_is_an_error() {
    let text = campus_doc().replace("campus-health/v1", "campus-health/v0");
    assert!(CampusHealthDoc::from_json(&text).is_err());
    assert!(CampusHealthDoc::from_json(&campus_doc()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (read as lossy UTF-8) and arbitrary runs of JSON
    /// tokens: nothing a reader is handed makes it panic.
    #[test]
    fn arbitrary_text_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        tokens in proptest::collection::vec(
            proptest::sample::select(vec![
                "{", "}", "[", "]", ",", ":", "\"", "\\", "\"format\"", "\"buckets\"",
                "\"count\"", "\"counts\"", "\"exemplars\"", "\"min\"", "null", "true",
                "-", "0", "1", "200", "-300", "1e400", "1.5", " ", "\n", "\u{e9}",
            ]),
            0..60,
        ),
    ) {
        read_everything(&String::from_utf8_lossy(&bytes));
        read_everything(&tokens.concat());
    }

    /// A valid document cut short or with one byte overwritten.
    #[test]
    fn truncated_and_overwritten_documents_never_panic(
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let text = campus_doc();
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        read_everything(&text[..cut]);
        let mut bytes = text.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        read_everything(&String::from_utf8_lossy(&bytes));
    }
}
