//! Line codes and per-lane rates.
//!
//! Backward compatibility across transceiver generations (§3.3.1) hinges on
//! modules that can run multiple line rates: the latest 100G-PAM4-per-lane
//! OSFP must also run 50G PAM4 and 25G NRZ so a new aggregation block can
//! talk to an old one across the same OCS. The OCS itself is rate- and
//! format-agnostic (a mirror doesn't care), so rate negotiation is purely a
//! transceiver-DSP concern.

use lightwave_units::{Gbps, Gigahertz};
use serde::{Deserialize, Serialize};

/// Modulation format of one electrical/optical lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineCode {
    /// Non-return-to-zero on-off keying: 1 bit/symbol, 2 levels.
    Nrz,
    /// 4-level pulse-amplitude modulation: 2 bits/symbol, 4 levels.
    Pam4,
}

impl LineCode {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            LineCode::Nrz => 1,
            LineCode::Pam4 => 2,
        }
    }

    /// Number of amplitude levels.
    pub fn levels(self) -> usize {
        match self {
            LineCode::Nrz => 2,
            LineCode::Pam4 => 4,
        }
    }
}

/// A supported per-lane line rate, combining bit rate and line code.
///
/// These are the three generations the paper's backward-compatibility story
/// spans (§3.3.1: "the latest generation OSFP transceiver running at 100G
/// PAM4 per lane must also support 50G PAM4 and 25G NRZ operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaneRate {
    /// 25.78125 Gb/s NRZ (100GbE generation).
    Nrz25,
    /// 53.125 Gb/s PAM4 (400GbE generation).
    Pam4_50,
    /// 106.25 Gb/s PAM4 (800GbE generation).
    Pam4_100,
}

impl LaneRate {
    /// All rates, newest first.
    pub const ALL: [LaneRate; 3] = [LaneRate::Pam4_100, LaneRate::Pam4_50, LaneRate::Nrz25];

    /// The line code used at this rate.
    pub fn line_code(self) -> LineCode {
        match self {
            LaneRate::Nrz25 => LineCode::Nrz,
            LaneRate::Pam4_50 | LaneRate::Pam4_100 => LineCode::Pam4,
        }
    }

    /// Gross per-lane bit rate (including FEC overhead).
    pub fn bit_rate(self) -> Gbps {
        match self {
            LaneRate::Nrz25 => Gbps(25.781_25),
            LaneRate::Pam4_50 => Gbps(53.125),
            LaneRate::Pam4_100 => Gbps(106.25),
        }
    }

    /// Symbol (baud) rate.
    pub fn baud(self) -> f64 {
        self.bit_rate().gbps() * 1e9 / self.line_code().bits_per_symbol() as f64
    }

    /// Nominal receiver electrical bandwidth (~0.65 × baud for the DSP-based
    /// receivers modeled here).
    pub fn rx_bandwidth(self) -> Gigahertz {
        Gigahertz(0.65 * self.baud() / 1e9)
    }

    /// Highest rate two modules can negotiate: the older module's rate.
    pub fn negotiate(self, other: LaneRate) -> LaneRate {
        if self.generation() <= other.generation() {
            self
        } else {
            other
        }
    }

    /// Generation index (0 = oldest).
    pub fn generation(self) -> u8 {
        match self {
            LaneRate::Nrz25 => 0,
            LaneRate::Pam4_50 => 1,
            LaneRate::Pam4_100 => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pam4_carries_two_bits() {
        assert_eq!(LineCode::Pam4.bits_per_symbol(), 2);
        assert_eq!(LineCode::Pam4.levels(), 4);
        assert_eq!(LineCode::Nrz.bits_per_symbol(), 1);
    }

    #[test]
    fn baud_rates() {
        // 53.125 Gb/s PAM4 → 26.5625 GBd.
        assert!((LaneRate::Pam4_50.baud() - 26.5625e9).abs() < 1e3);
        // 25.78125 Gb/s NRZ → same number in baud.
        assert!((LaneRate::Nrz25.baud() - 25.78125e9).abs() < 1e3);
        // 100G PAM4 is 53.125 GBd.
        assert!((LaneRate::Pam4_100.baud() - 53.125e9).abs() < 1e3);
    }

    #[test]
    fn negotiation_picks_older_generation() {
        assert_eq!(
            LaneRate::Pam4_100.negotiate(LaneRate::Nrz25),
            LaneRate::Nrz25
        );
        assert_eq!(
            LaneRate::Pam4_50.negotiate(LaneRate::Pam4_100),
            LaneRate::Pam4_50
        );
        assert_eq!(
            LaneRate::Pam4_100.negotiate(LaneRate::Pam4_100),
            LaneRate::Pam4_100
        );
    }

    #[test]
    fn rx_bandwidth_scales_with_baud() {
        let b50 = LaneRate::Pam4_50.rx_bandwidth().ghz();
        let b100 = LaneRate::Pam4_100.rx_bandwidth().ghz();
        assert!((b100 / b50 - 2.0).abs() < 1e-9);
    }
}
