//! Golden-vector regression suite for the RS(544,514) "KP4" codec.
//!
//! `tests/vectors/rs_kp4.json` was generated once from the textbook codec
//! that `lightwave::fec::rs` now is, and committed; every case was verified
//! at generation time (decodes recover the codeword, the t+1 case is a
//! detected failure). These tests pin `ReedSolomon` to that file byte for
//! byte — encode, decode, and the buffer a failed decode leaves behind —
//! so the codec cannot drift without the diff showing up here.

use lightwave::fec::gf::Gf;
use lightwave::fec::ReedSolomon;
use serde::Deserialize;

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
    // The committed `{n, k, generator}`, read as a `ReedSolomon` document,
    // is the KP4 code.
    let doc = format!(
        r#"{{"n":{},"k":{},"generator":{}}}"#,
        v.code.n,
        v.code.k,
        serde_json::to_string(&v.generator).expect("a generator serializes")
    );
    let from_vectors: ReedSolomon =
        serde_json::from_str(&doc).expect("the corpus generator is a ReedSolomon");
    assert_eq!(from_vectors, ReedSolomon::kp4());
}

#[test]
fn encode_matches_golden_codewords() {
    let v = vectors();
    let rs = ReedSolomon::kp4();
    for case in &v.encode {
        assert_eq!(
            rs.encode(&case.message),
            case.codeword,
            "encode diverged on `{}`",
            case.name
        );
    }
}

#[test]
fn decode_recovers_golden_codewords_and_error_patterns() {
    let v = vectors();
    let rs = ReedSolomon::kp4();
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
            rs.decode(&mut word),
            Ok(case.corrected),
            "decode result diverged on `{}`",
            case.name
        );
        assert_eq!(word, case.decoded, "decode output on `{}`", case.name);
    }
}

#[test]
fn sixteen_errors_stay_a_detected_failure() {
    let v = vectors();
    let case = &v.decode_failure;
    assert_eq!(case.name, "sixteen_errors");
    assert_eq!(case.error_positions.len(), 16);
    let mut word = case.received.clone();
    assert!(
        ReedSolomon::kp4().decode(&mut word).is_err(),
        "t+1 errors must be detected, not miscorrected"
    );
    // The Err-path buffer is part of the contract: the codec leaves
    // exactly the bytes it left when the vector was generated.
    assert_eq!(word, case.received_after);
}
