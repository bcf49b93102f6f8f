//! Golden-vector regression suite for the RS(544,514) "KP4" codec.
//!
//! `tests/vectors/rs_kp4.json` was generated once from the frozen
//! reference implementation (`tests/oracle/reed_solomon.rs`) and committed;
//! every case was verified at generation time (decodes recover the
//! codeword, the t+1 case is a detected failure). These tests pin both
//! the fast kernels and the reference against that file, so neither can
//! drift without the diff showing up here — the known-answer half of the
//! kernel-equivalence contract (DESIGN §6.8); `tests/fec_differential.rs`
//! is the property-based half.

use lightwave::fec::gf::Gf;
use lightwave::fec::{ReedSolomon, RsScratch};
use oracle::ReferenceRs;
use serde::Deserialize;

#[path = "oracle/reed_solomon.rs"]
mod oracle;

#[derive(Deserialize)]
struct Code {
    n: usize,
    k: usize,
    t: usize,
}

#[derive(Deserialize)]
struct EncodeCase {
    name: String,
    message: Vec<Gf>,
    codeword: Vec<Gf>,
}

#[derive(Deserialize)]
struct DecodeCase {
    name: String,
    received: Vec<Gf>,
    error_positions: Vec<usize>,
    error_magnitudes: Vec<Gf>,
    corrected: usize,
    decoded: Vec<Gf>,
}

#[derive(Deserialize)]
struct FailureCase {
    name: String,
    received: Vec<Gf>,
    error_positions: Vec<usize>,
    received_after: Vec<Gf>,
}

#[derive(Deserialize)]
struct Vectors {
    code: Code,
    generator: Vec<Gf>,
    encode: Vec<EncodeCase>,
    decode: Vec<DecodeCase>,
    decode_failure: FailureCase,
}

fn vectors() -> Vectors {
    serde_json::from_str(include_str!("vectors/rs_kp4.json")).expect("golden vectors parse")
}

#[test]
fn corpus_shape_and_generator_are_kp4() {
    let v = vectors();
    assert_eq!((v.code.n, v.code.k, v.code.t), (544, 514, 15));
    // g(x) has degree 2t = 30 and is monic.
    assert_eq!(v.generator.len(), 31);
    assert_eq!(v.generator[30], 1);
    // The committed generator is *functionally* the KP4 generator: a codec
    // built from it encodes identically to one built from scratch.
    let from_vectors = ReferenceRs::from_parts(544, 514, v.generator.clone());
    let fresh = ReferenceRs::new(544, 514);
    for case in &v.encode {
        assert_eq!(
            from_vectors.encode(&case.message),
            fresh.encode(&case.message),
            "generator mismatch on `{}`",
            case.name
        );
    }
}

#[test]
fn encode_matches_golden_codewords() {
    let v = vectors();
    let fast = ReedSolomon::kp4();
    let reference = ReferenceRs::new(544, 544 - 30);
    let mut cw = Vec::new();
    for case in &v.encode {
        fast.encode_into(&case.message, &mut cw);
        assert_eq!(cw, case.codeword, "fast encode diverged on `{}`", case.name);
        assert_eq!(
            reference.encode(&case.message),
            case.codeword,
            "reference encode diverged on `{}`",
            case.name
        );
    }
}

#[test]
fn decode_recovers_golden_codewords_and_error_patterns() {
    let v = vectors();
    let fast = ReedSolomon::kp4();
    let reference = ReferenceRs::new(544, 514);
    let mut scratch = RsScratch::new();
    for case in &v.decode {
        // The recorded error pattern is self-consistent: received and
        // decoded differ exactly at the recorded positions/magnitudes.
        let diffs: Vec<(usize, Gf)> = case
            .received
            .iter()
            .zip(&case.decoded)
            .enumerate()
            .filter(|(_, (r, d))| r != d)
            .map(|(i, (r, d))| (i, r ^ d))
            .collect();
        let recorded: Vec<(usize, Gf)> = case
            .error_positions
            .iter()
            .copied()
            .zip(case.error_magnitudes.iter().copied())
            .collect();
        assert_eq!(diffs, recorded, "corpus inconsistency in `{}`", case.name);
        assert_eq!(case.corrected, recorded.len());

        let mut word = case.received.clone();
        assert_eq!(
            fast.decode_with(&mut word, &mut scratch),
            Ok(case.corrected),
            "fast decode result diverged on `{}`",
            case.name
        );
        assert_eq!(word, case.decoded, "fast decode output on `{}`", case.name);

        let mut word = case.received.clone();
        assert_eq!(reference.decode(&mut word), Ok(case.corrected));
        assert_eq!(word, case.decoded, "reference output on `{}`", case.name);
    }
}

#[test]
fn sixteen_errors_stay_a_detected_failure() {
    let v = vectors();
    let case = &v.decode_failure;
    assert_eq!(case.name, "sixteen_errors");
    assert_eq!(case.error_positions.len(), 16);
    let fast = ReedSolomon::kp4();
    let reference = ReferenceRs::new(544, 514);
    let mut scratch = RsScratch::new();

    let mut fast_word = case.received.clone();
    assert!(
        fast.decode_with(&mut fast_word, &mut scratch).is_err(),
        "t+1 errors must be detected, not miscorrected"
    );
    // The Err-path buffer is part of the contract (shadow mode compares
    // it), so the fast kernel must leave *exactly* the bytes the frozen
    // reference left when the vector was generated.
    assert_eq!(fast_word, case.received_after);

    let mut ref_word = case.received.clone();
    assert!(reference.decode(&mut ref_word).is_err());
    assert_eq!(ref_word, case.received_after);
}
