//! Seeded fault-schedule generation.
//!
//! A schedule is a short timeline of control-plane operations and
//! injected hardware faults, fully determined by `(seed, index)`. The
//! per-schedule generator stream is derived with the same splitmix64
//! mixer the parallel engine uses for shard streams
//! ([`lightwave_par::splitmix`]), so a hunt over indices `0..n` draws
//! from `n` decorrelated streams and any single schedule can be
//! regenerated — and replayed — without running the other `n - 1`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One injected event. Time is implicit: events apply at the world's
/// current simulation time, and only [`FaultKind::Advance`] moves it —
/// which is what lets the delta-debugging shrinker drop events without
/// re-timestamping the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Compose a slice of `cubes` elemental cubes (scheduler-pooled
    /// placement on idle cubes).
    Compose {
        /// Cube count; rounded to a composable shape (1, 2, 4 or 8).
        cubes: u8,
    },
    /// Release the `nth` live slice (modulo the live count).
    Release {
        /// Index into the live-slice list.
        nth: u8,
    },
    /// Preempt the youngest live slice — a scheduler eviction, which may
    /// land while the slice's circuits are still aligning.
    Preempt,
    /// Advance simulation time.
    Advance {
        /// Milliseconds to advance.
        millis: u32,
    },
    /// Fail a chassis FRU slot (0–1 PSUs, 2–5 fans, 6–13 HV drivers,
    /// 14 CPU, 15 FPGA).
    FailFru {
        /// Switch.
        ocs: u8,
        /// Chassis slot.
        slot: u8,
    },
    /// Field-replace a FRU slot (repairs a failed slot; replacing a
    /// healthy HV driver/FPGA still drops its mirror state).
    ReplaceFru {
        /// Switch.
        ocs: u8,
        /// Chassis slot.
        slot: u8,
    },
    /// Planned maintenance: plan + execute a FRU replacement through the
    /// fabric maintenance workflow, possibly overlapping an in-flight
    /// reconfiguration.
    Maintenance {
        /// Switch.
        ocs: u8,
        /// Chassis slot.
        slot: u8,
    },
    /// A MEMS mirror sticks: fail the mirror serving `port`, consuming a
    /// spare (or killing the port once spares are exhausted).
    FailMirror {
        /// Switch.
        ocs: u8,
        /// True for the north die.
        north: bool,
        /// Mirror port.
        port: u8,
    },
    /// Camera verification rejects an in-flight alignment on this switch:
    /// the first still-aligning circuit is kicked back through another
    /// camera loop. No-op if nothing is aligning there.
    VerifyReject {
        /// Switch.
        ocs: u8,
    },
    /// A transceiver loses lock and re-acquires at a fallback rate — one
    /// link-flap alarm.
    LinkFlap {
        /// Switch.
        ocs: u8,
        /// Port whose transceiver flapped.
        port: u8,
    },
    /// A DSP relock storm: a burst of rate-fallback alarms across
    /// `ports` consecutive ports of one switch (blast-radius fodder for
    /// the alarm correlator, and an escalation path to Critical).
    RelockStorm {
        /// Switch.
        ocs: u8,
        /// How many ports flap (1–16).
        ports: u8,
    },
    /// Silent optical creep: the mirror serving `port` degrades by `mdb`
    /// milli-dB of extra intrinsic loss. Raises no alarm and changes no
    /// chassis/spare state — only the fleet-health detectors can see it
    /// (via the switch's drift log). Emitted by
    /// [`FaultSchedule::generate_degradation`], never by the uniform
    /// [`FaultSchedule::generate`] draw (whose distribution is pinned).
    DegradeMirror {
        /// Switch.
        ocs: u8,
        /// True for the north die.
        north: bool,
        /// Mirror port.
        port: u8,
        /// Extra intrinsic loss, milli-dB.
        mdb: u16,
    },
    /// A fabric-as-a-service slice request arrives: the executor submits
    /// arrival `nth` of the world's service stream
    /// (`lightwave_service::arrival(world_seed, nth, Production)`) to its
    /// embedded [`lightwave_service::ServiceCore`]. The arrival content
    /// is a pure function of `(world_seed, nth)` — dropping earlier
    /// events never changes what a surviving arrival submits, which
    /// keeps delta-debugging sound. Emitted only by
    /// [`FaultSchedule::generate_service`], never by the pinned uniform
    /// [`FaultSchedule::generate`] draw.
    Arrival {
        /// Index into the world's service arrival stream.
        nth: u16,
    },
}

/// A deterministic fault schedule: regenerate with
/// [`FaultSchedule::generate`]`(seed, index)`, or carry an explicit
/// (possibly shrunk) event list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Hunt seed.
    pub seed: u64,
    /// Schedule index within the hunt (the stream selector).
    pub index: u64,
    /// The event list.
    pub events: Vec<FaultKind>,
}

/// Switch count the generator draws targets from (the 48-OCS superpod).
pub(crate) const GEN_OCS_COUNT: u8 = 48;

/// Advance menu, milliseconds. Deliberately includes steps shorter than
/// a camera alignment (~10–40 ms) so faults land mid-reconfiguration.
const ADVANCE_MENU_MS: [u32; 6] = [1, 5, 20, 60, 150, 400];

impl FaultSchedule {
    /// Generates schedule `index` of the hunt seeded `seed`.
    ///
    /// The stream is `StdRng::seed_from_u64(splitmix(seed, index))` —
    /// byte-for-byte the discipline `lightwave-par` uses for shard RNGs.
    pub fn generate(seed: u64, index: u64) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(lightwave_par::splitmix(seed, index));
        let n_events = rng.random_range(6..=14usize);
        let mut events = Vec::with_capacity(n_events);
        // Always open with a composition: an empty pod makes most
        // invariants vacuous.
        events.push(FaultKind::Compose {
            cubes: *pick(&mut rng, &[1u8, 2, 4, 8]),
        });
        while events.len() < n_events {
            events.push(Self::draw(&mut rng));
        }
        FaultSchedule {
            seed,
            index,
            events,
        }
    }

    fn draw(rng: &mut StdRng) -> FaultKind {
        let ocs = rng.random_range(0..GEN_OCS_COUNT);
        match rng.random_range(0..100u32) {
            0..=17 => FaultKind::Compose {
                cubes: *pick(rng, &[1u8, 2, 4, 8]),
            },
            18..=39 => FaultKind::Advance {
                millis: *pick(rng, &ADVANCE_MENU_MS),
            },
            40..=47 => FaultKind::Release {
                nth: rng.random_range(0..8u8),
            },
            48..=51 => FaultKind::Preempt,
            52..=61 => FaultKind::FailFru {
                ocs,
                slot: rng.random_range(0..16u8),
            },
            62..=71 => FaultKind::ReplaceFru {
                ocs,
                slot: rng.random_range(0..16u8),
            },
            72..=77 => FaultKind::Maintenance {
                ocs,
                slot: rng.random_range(0..16u8),
            },
            78..=87 => FaultKind::FailMirror {
                ocs,
                north: rng.random_bool(0.5),
                port: rng.random_range(0..64u8),
            },
            88..=92 => FaultKind::VerifyReject { ocs },
            93..=96 => FaultKind::LinkFlap {
                ocs,
                port: rng.random_range(0..64u8),
            },
            _ => FaultKind::RelockStorm {
                ocs,
                ports: rng.random_range(1..=16u8),
            },
        }
    }

    /// Generates slow-degradation schedule `index` of the hunt seeded
    /// `seed` — the fleet-health oracle corpus (`tests/fleet_health.rs`).
    ///
    /// Two families alternate by index parity, each ending in the hard
    /// failure the degradation foreshadows:
    ///
    /// - **loss creep** (even): one port's mirror degrades 25–40 mdb at
    ///   a time, 8–12 steps — each step under the spare-swap jump a
    ///   single legitimate event can cause — then the switch's FPGA dies
    ///   (slot 15: chassis down, Critical). The CUSUM change-point
    ///   detector must trip mid-creep, before the Critical.
    /// - **relock creep** (odd): one switch's transceivers flap 3× per
    ///   250 ms detector window, 4–6 windows back to back. The windowed
    ///   rate-spike detector trips on the third contiguous window; the
    ///   Link incident's 10th occurrence then escalates it to Critical.
    ///
    /// Uses the same `splitmix(seed, index)` stream discipline as
    /// [`FaultSchedule::generate`], but a distinct generator: the
    /// uniform draw's distribution is pinned by the determinism tests
    /// and must not change.
    pub fn generate_degradation(seed: u64, index: u64) -> FaultSchedule {
        // Offset the stream selector so index i here never mirrors
        // index i of the uniform generator.
        let mut rng = StdRng::seed_from_u64(lightwave_par::splitmix(seed ^ 0xDE64_AD00, index));
        let ocs = rng.random_range(0..GEN_OCS_COUNT);
        let mut events = vec![FaultKind::Compose {
            cubes: *pick(&mut rng, &[1u8, 2, 4]),
        }];
        if index.is_multiple_of(2) {
            let north = rng.random_bool(0.5);
            let port = rng.random_range(0..64u8);
            let steps = rng.random_range(8..=12u32);
            for _ in 0..steps {
                events.push(FaultKind::DegradeMirror {
                    ocs,
                    north,
                    port,
                    mdb: rng.random_range(25..=40u16),
                });
                events.push(FaultKind::Advance { millis: 60 });
            }
            events.push(FaultKind::FailFru { ocs, slot: 15 });
        } else {
            let base = rng.random_range(0..32u8);
            let rounds = rng.random_range(4..=6u32);
            for _ in 0..rounds {
                for p in 0..3u8 {
                    events.push(FaultKind::LinkFlap {
                        ocs,
                        port: base + p,
                    });
                }
                // Exactly one detector window per round: windows stay
                // contiguous, so the rate-spike streak can build.
                events.push(FaultKind::Advance { millis: 250 });
            }
        }
        FaultSchedule {
            seed,
            index,
            events,
        }
    }

    /// Generates service-chaos schedule `index` of the hunt seeded
    /// `seed`: fabric-as-a-service arrivals interleaved with hardware
    /// faults, so admission, preemption and completion all run against a
    /// degrading pod.
    ///
    /// Arrivals carry consecutive `nth` values — each one's *content* is
    /// still a pure function of the world seed, so the shrinker can drop
    /// any subset without perturbing the rest. The harness-managed slice
    /// operations (`Compose`/`Release`/`Preempt`) are deliberately
    /// absent: in these schedules the embedded service core is the sole
    /// owner of slices, so its bookkeeping invariants stay meaningful.
    ///
    /// Same `splitmix` stream discipline as [`FaultSchedule::generate`],
    /// with its own offset — the uniform draw's distribution is pinned
    /// and must not change.
    pub fn generate_service(seed: u64, index: u64) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(lightwave_par::splitmix(seed ^ 0xFAA5_CA11, index));
        // Enough arrivals that the production mix (≈2.4 cubes each) can
        // exhaust the 64-cube pod and exercise preemption and queue
        // blocking, not just admission.
        let arrivals = rng.random_range(28..=44u16);
        let mut events = Vec::new();
        let mut nth = 0u16;
        // Open with a burst so faults have service slices to land on.
        while nth < 3 {
            events.push(FaultKind::Arrival { nth });
            nth += 1;
        }
        while nth < arrivals {
            let ocs = rng.random_range(0..GEN_OCS_COUNT);
            events.push(match rng.random_range(0..100u32) {
                0..=39 => FaultKind::Advance {
                    millis: *pick(&mut rng, &ADVANCE_MENU_MS),
                },
                40..=59 => FaultKind::FailFru {
                    ocs,
                    slot: rng.random_range(0..16u8),
                },
                60..=74 => FaultKind::ReplaceFru {
                    ocs,
                    slot: rng.random_range(0..16u8),
                },
                75..=84 => FaultKind::FailMirror {
                    ocs,
                    north: rng.random_bool(0.5),
                    port: rng.random_range(0..64u8),
                },
                85..=92 => FaultKind::Maintenance {
                    ocs,
                    slot: rng.random_range(0..16u8),
                },
                93..=96 => FaultKind::LinkFlap {
                    ocs,
                    port: rng.random_range(0..64u8),
                },
                _ => FaultKind::VerifyReject { ocs },
            });
            if rng.random_bool(0.6) {
                events.push(FaultKind::Arrival { nth });
                nth += 1;
            }
        }
        // A settle tail: holds complete under the final fault state.
        events.push(FaultKind::Advance { millis: 400 });
        events.push(FaultKind::Advance { millis: 400 });
        FaultSchedule {
            seed,
            index,
            events,
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, menu: &'a [T]) -> &'a T {
    &menu[rng.random_range(0..menu.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_index_regenerates_identically() {
        for index in 0..32 {
            let a = FaultSchedule::generate(42, index);
            let b = FaultSchedule::generate(42, index);
            assert_eq!(a, b);
            assert!(a.events.len() >= 6 && a.events.len() <= 14);
            assert!(matches!(a.events[0], FaultKind::Compose { .. }));
        }
    }

    #[test]
    fn different_indices_diverge() {
        let a = FaultSchedule::generate(42, 0);
        let b = FaultSchedule::generate(42, 1);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn stream_derivation_matches_par() {
        // The determinism contract: schedule streams ARE par shard
        // streams. Pin the mixer so a drift in either crate fails here.
        let mut ours = StdRng::seed_from_u64(lightwave_par::splitmix(7, 3));
        let mut pars = StdRng::seed_from_u64(lightwave_par::splitmix(7, 3));
        use rand::RngCore;
        assert_eq!(ours.next_u64(), pars.next_u64());
    }

    #[test]
    fn events_roundtrip_through_serde() {
        let s = FaultSchedule::generate(9, 4);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
