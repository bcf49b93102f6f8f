//! Symbol interleaving: spreading bursts across codewords.
//!
//! High-rate PAM4 standards interleave multiple RS codewords across the
//! lane (KP4 deployments run 2- or 4-way interleaving) so that a burst —
//! a DFE error-propagation event, or in this system a glitching OCS
//! circuit — lands a few symbols in *each* codeword instead of burying
//! one. The depth-D block interleaver here multiplies the correctable
//! burst length by D.

use crate::gf::Gf;
use crate::rs::{ReedSolomon, TooManyErrors};
use serde::{Deserialize, Serialize};

/// A depth-D block symbol interleaver over RS codewords.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interleaver {
    /// The constituent code.
    pub code: ReedSolomon,
    /// Interleaving depth (codewords per frame).
    pub depth: usize,
}

impl Interleaver {
    /// Creates a depth-`depth` interleaver.
    ///
    /// # Panics
    /// Panics if depth is zero.
    pub fn new(code: ReedSolomon, depth: usize) -> Interleaver {
        assert!(depth >= 1, "depth must be at least 1");
        Interleaver { code, depth }
    }

    /// Symbols per interleaved frame on the line.
    pub(crate) fn frame_symbols(&self) -> usize {
        self.code.n() * self.depth
    }

    /// Payload symbols per frame.
    pub fn frame_payload(&self) -> usize {
        self.code.k() * self.depth
    }

    /// Longest guaranteed-correctable symbol burst per frame.
    pub fn burst_tolerance(&self) -> usize {
        self.code.t() * self.depth
    }

    /// Encodes `depth` messages (concatenated, `depth·k` symbols) into an
    /// interleaved line frame: symbol `i` of codeword `w` appears at line
    /// position `i·depth + w`.
    ///
    /// # Panics
    /// Panics if the payload length is wrong.
    pub fn encode(&self, payload: &[Gf]) -> Vec<Gf> {
        assert_eq!(payload.len(), self.frame_payload(), "payload length");
        let mut frame = vec![0 as Gf; self.frame_symbols()];
        for w in 0..self.depth {
            let msg = &payload[w * self.code.k()..(w + 1) * self.code.k()];
            let cw = self.code.encode(msg);
            for (i, &sym) in cw.iter().enumerate() {
                frame[i * self.depth + w] = sym;
            }
        }
        frame
    }

    /// Decodes an interleaved frame, returning the payload and the total
    /// symbol corrections made.
    pub fn decode(&self, frame: &[Gf]) -> Result<(Vec<Gf>, usize), TooManyErrors> {
        assert_eq!(frame.len(), self.frame_symbols(), "frame length");
        let mut payload = vec![0 as Gf; self.frame_payload()];
        let mut corrected = 0;
        for w in 0..self.depth {
            let mut cw: Vec<Gf> = (0..self.code.n())
                .map(|i| frame[i * self.depth + w])
                .collect();
            corrected += self.code.decode(&mut cw)?;
            payload[w * self.code.k()..(w + 1) * self.code.k()]
                .copy_from_slice(&cw[..self.code.k()]);
        }
        Ok((payload, corrected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn payload(il: &Interleaver, seed: u64) -> Vec<Gf> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..il.frame_payload())
            .map(|_| rng.random_range(0..1024u16))
            .collect()
    }

    #[test]
    fn clean_roundtrip() {
        let il = Interleaver::new(ReedSolomon::new(15, 11), 4);
        let p = payload(&il, 1);
        let frame = il.encode(&p);
        let (out, corrected) = il.decode(&frame).unwrap();
        assert_eq!(out, p);
        assert_eq!(corrected, 0);
    }

    #[test]
    fn burst_tolerance_scales_with_depth() {
        // RS(15,11) corrects bursts of 2 alone; depth 4 stretches that to 8
        // consecutive line symbols.
        let il = Interleaver::new(ReedSolomon::new(15, 11), 4);
        assert_eq!(il.burst_tolerance(), 8);
        let p = payload(&il, 2);
        let mut frame = il.encode(&p);
        for slot in frame.iter_mut().skip(13).take(8) {
            *slot ^= 0x3FF;
        }
        let (out, corrected) = il.decode(&frame).unwrap();
        assert_eq!(out, p);
        assert_eq!(corrected, 8);
    }

    #[test]
    fn same_burst_kills_the_uninterleaved_code() {
        // The identical 8-symbol burst into a depth-1 frame: dead.
        let il = Interleaver::new(ReedSolomon::new(15, 11), 1);
        let p = payload(&il, 3);
        let mut frame = il.encode(&p);
        for slot in frame.iter_mut().skip(3).take(8) {
            *slot ^= 0x3FF;
        }
        assert!(il.decode(&frame).is_err(), "8 > t = 2 in one codeword");
    }

    #[test]
    fn kp4_4way_handles_a_60_symbol_burst() {
        // Production-flavored: 4-way interleaved KP4 rides out a 60-symbol
        // (600-bit) line burst — an OCS circuit glitching for ~11 ns at
        // 53 Gb/s.
        let il = Interleaver::new(ReedSolomon::kp4(), 4);
        assert_eq!(il.burst_tolerance(), 60);
        let p = payload(&il, 4);
        let mut frame = il.encode(&p);
        for slot in frame.iter_mut().skip(777).take(60) {
            *slot ^= 0x155;
        }
        let (out, corrected) = il.decode(&frame).unwrap();
        assert_eq!(out, p);
        assert!(corrected == 60, "corrected {corrected}");
    }

    #[test]
    fn scattered_errors_still_bounded_per_codeword() {
        // Interleaving does not help random errors: t per codeword still
        // binds. 3 errors hitting the same codeword of RS(15,11) fail.
        let il = Interleaver::new(ReedSolomon::new(15, 11), 2);
        let p = payload(&il, 5);
        let mut frame = il.encode(&p);
        // Positions ≡ 0 (mod 2) all belong to codeword 0.
        frame[0] ^= 1;
        frame[4] ^= 1;
        frame[8] ^= 1;
        assert!(il.decode(&frame).is_err());
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_payload_length_rejected() {
        let il = Interleaver::new(ReedSolomon::new(15, 11), 2);
        let _ = il.encode(&[0; 5]);
    }
}
