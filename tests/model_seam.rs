//! The paper-model seam: three routines the figures run on, held to
//! values captured at the parent of PR 24 before its first edit.
//!
//! PR 24 folded near-verbatim copies in `availability::timeline`,
//! `optics::{ber, montecarlo}` and `transceiver::bidilink` into one routine
//! each. Unit tests there check shape (monotone, ordered, paired); nothing
//! pinned a value. `tests/vectors/model_seam/*.json` do: every `f64` as
//! `to_bits`, every Monte-Carlo count with the generator's next word, so a
//! draw that moved or a term that changed association shows as a row.
//!
//! Each row carries its own inputs and the test recomputes it. The vectors
//! were written by `capture` below, run on the parent commit (`4235233`):
//!
//! ```sh
//! git clone -q . /root/scratch/parent && git -C /root/scratch/parent checkout -q 4235233
//! sed 's/\.expect("the case runs")//' tests/model_seam.rs > /root/scratch/parent/tests/model_seam.rs
//! (cd /root/scratch/parent && cargo test --release --test model_seam -- --ignored capture)
//! cp -r /root/scratch/parent/tests/vectors/model_seam tests/vectors/
//! ```
//!
//! (the `sed` because `simulate` / `simulate_preempt` return `Result` since
//! this PR). Regenerate only for a change that means to move a model.

use lightwave::availability::timeline::{
    simulate, simulate_preempt, PolicyOutcome, PreemptParams, TimelineParams,
};
use lightwave::optics::ber::{mpi_db, OimConfig, Pam4Receiver};
use lightwave::optics::components::{Component, ComponentKind};
use lightwave::optics::link::LinkBudget;
use lightwave::optics::modulation::LaneRate;
use lightwave::optics::montecarlo::{simulate_ber_digital_oim, McChannel};
use lightwave::transceiver::{BidiLink, DspConfig, LaneReport, ModuleFamily, Transceiver};
use lightwave::units::Dbm;
use lightwave_bench::artifacts::fnv1a64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

fn vector_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/vectors/model_seam")
        .join(name)
}

/// Read at run time, so `capture` builds before the files exist.
fn stored<Row: DeserializeOwned>(name: &str) -> Vec<Row> {
    let text = std::fs::read_to_string(vector_path(name)).expect("vector file reads");
    serde_json::from_str(&text).expect("vectors parse")
}

/// One row per line, so a moved value is a one-line diff.
fn store<Row: Serialize>(name: &str, rows: &[Row]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| serde_json::to_string(row).expect("row serializes"))
        .collect();
    std::fs::create_dir_all(vector_path("")).expect("create the vector directory");
    std::fs::write(vector_path(name), format!("[\n{}\n]\n", rows.join(",\n")))
        .expect("vector file writes");
}

// ── availability::timeline ────────────────────────────────────────────

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Outcome {
    delivered_bits: u64,
    failures: u64,
    down_hours_bits: u64,
}

impl From<PolicyOutcome> for Outcome {
    fn from(o: PolicyOutcome) -> Outcome {
        Outcome {
            delivered_bits: o.delivered.to_bits(),
            failures: o.failures,
            down_hours_bits: o.down_hours.to_bits(),
        }
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct TimelineRow {
    case: String,
    seed: u64,
    reconfigurable: Outcome,
    static_fabric: Outcome,
    preemptive: Outcome,
    reactive: Outcome,
    caught: u64,
}

const TIMELINE_CASES: [&str; 5] = [
    "production_year",
    "zero_spares",
    "recall_0",
    "recall_1",
    "repair_outlasts_mtbf",
];

fn timeline_case(case: &str) -> PreemptParams {
    let year = PreemptParams::production_year();
    let base = |base: TimelineParams| PreemptParams { base, ..year };
    match case {
        "production_year" => year,
        "zero_spares" => base(TimelineParams {
            spare_cubes: 0,
            ..year.base
        }),
        "recall_0" => PreemptParams {
            detector_recall: 0.0,
            ..year
        },
        "recall_1" => PreemptParams {
            detector_recall: 1.0,
            ..year
        },
        // Most of the pool is under repair most of the time: spares run
        // out, and failures scheduled during a repair fire after it.
        "repair_outlasts_mtbf" => base(TimelineParams {
            cube_mttr_hours: 2.0 * year.base.cube_mtbf_hours,
            ..year.base
        }),
        other => panic!("unknown timeline case {other}"),
    }
}

fn timeline_row(case: &str, seed: u64) -> TimelineRow {
    let params = timeline_case(case);
    let both = simulate(&params.base, seed).expect("the case runs");
    let paired = simulate_preempt(&params, seed).expect("the case runs");
    TimelineRow {
        case: case.to_owned(),
        seed,
        reconfigurable: both.reconfigurable.into(),
        static_fabric: both.static_fabric.into(),
        preemptive: paired.preemptive.into(),
        reactive: paired.reactive.into(),
        caught: paired.caught,
    }
}

#[test]
fn timelines_match_the_parent_capture() {
    let rows: Vec<TimelineRow> = stored("timeline.json");
    assert_eq!(rows.len(), 30);
    for row in &rows {
        assert_eq!(&timeline_row(&row.case, row.seed), row);
    }
}

// ── optics::ber and optics::montecarlo ────────────────────────────────

fn preset(name: &str) -> Pam4Receiver {
    match name {
        "cwdm4_50g" => Pam4Receiver::cwdm4_50g(),
        "cwdm8_100g" => Pam4Receiver::cwdm8_100g(),
        other => panic!("unknown receiver preset {other}"),
    }
}

fn mpi_ratio(db: Option<f64>) -> f64 {
    db.map_or(0.0, mpi_db)
}

fn oim_config(on: bool) -> Option<OimConfig> {
    on.then(OimConfig::default)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `Pam4Receiver::{ber, thresholds}` at one point.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct AnalyticRow {
    preset: String,
    received_dbm: f64,
    mpi_db: Option<f64>,
    oim: bool,
    ber_bits: u64,
    thresholds_bits: Vec<u64>,
}

fn analytic_row(name: &str, received_dbm: f64, db: Option<f64>, oim: bool) -> AnalyticRow {
    let rx = preset(name);
    let (p, m, o) = (Dbm(received_dbm), mpi_ratio(db), oim_config(oim));
    AnalyticRow {
        preset: name.to_owned(),
        received_dbm,
        mpi_db: db,
        oim,
        ber_bits: rx.ber(p, m, o).prob().to_bits(),
        thresholds_bits: bits(&rx.thresholds(p, m, o)),
    }
}

/// One `McChannel`: what it was built as (`{:?}` prints every private
/// field, each `f64` in shortest round-trip form), what it counted, and
/// where it left the generator.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ChannelRow {
    received_dbm: f64,
    mpi_db: Option<f64>,
    oim: bool,
    symbols: u64,
    seed: u64,
    channel_debug_len: usize,
    channel_debug_fnv: u64,
    errors: u64,
    next_word: u64,
}

fn channel_row(
    received_dbm: f64,
    db: Option<f64>,
    oim: bool,
    symbols: u64,
    seed: u64,
) -> ChannelRow {
    let chan = McChannel::new(
        &Pam4Receiver::cwdm4_50g(),
        Dbm(received_dbm),
        mpi_ratio(db),
        oim_config(oim),
    );
    let debug = format!("{chan:?}");
    let mut rng = StdRng::seed_from_u64(seed);
    let errors = chan.run(symbols, &mut rng);
    ChannelRow {
        received_dbm,
        mpi_db: db,
        oim,
        symbols,
        seed,
        channel_debug_len: debug.len(),
        channel_debug_fnv: fnv1a64(debug.as_bytes()),
        errors,
        next_word: rng.next_u64(),
    }
}

/// `simulate_ber_digital_oim`: the real canceller on the physical beat.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct DigitalRow {
    received_dbm: f64,
    mpi_db: Option<f64>,
    symbols: u64,
    seed: u64,
    errors: u64,
    next_word: u64,
}

fn digital_row(received_dbm: f64, db: Option<f64>, symbols: u64, seed: u64) -> DigitalRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let result = simulate_ber_digital_oim(
        &Pam4Receiver::cwdm4_50g(),
        Dbm(received_dbm),
        mpi_ratio(db),
        symbols,
        &mut rng,
    );
    assert_eq!(result.bits, 2 * symbols);
    DigitalRow {
        received_dbm,
        mpi_db: db,
        symbols,
        seed,
        errors: result.errors,
        next_word: rng.next_u64(),
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum ReceiverRow {
    Analytic(AnalyticRow),
    Channel(ChannelRow),
    Digital(DigitalRow),
}

fn recompute(row: &ReceiverRow) -> ReceiverRow {
    match row {
        ReceiverRow::Analytic(r) => {
            ReceiverRow::Analytic(analytic_row(&r.preset, r.received_dbm, r.mpi_db, r.oim))
        }
        ReceiverRow::Channel(r) => ReceiverRow::Channel(channel_row(
            r.received_dbm,
            r.mpi_db,
            r.oim,
            r.symbols,
            r.seed,
        )),
        ReceiverRow::Digital(r) => {
            ReceiverRow::Digital(digital_row(r.received_dbm, r.mpi_db, r.symbols, r.seed))
        }
    }
}

#[test]
fn receivers_match_the_parent_capture() {
    let rows: Vec<ReceiverRow> = stored("pam4_receiver.json");
    assert_eq!(rows.len(), 160 + 9 + 4);
    for row in &rows {
        assert_eq!(&recompute(row), row);
    }
}

// ── transceiver::bidilink ─────────────────────────────────────────────

/// `[lane, received, dispersion_penalty, raw_ber, healthy, margin_orders]`,
/// floats as bits.
type LaneBits = [u64; 6];

fn lane_bits(lanes: &[LaneReport]) -> Vec<LaneBits> {
    lanes
        .iter()
        .map(|l| {
            [
                u64::from(l.lane),
                l.received.dbm().to_bits(),
                l.dispersion_penalty.db().to_bits(),
                l.raw_ber.prob().to_bits(),
                u64::from(l.healthy),
                l.margin_orders.to_bits(),
            ]
        })
        .collect()
}

/// One link: the family's nominal pair (`sample: None`) or the n-th pair
/// of [`sampled_links`], evaluated at the family's rate and at all three.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct LinkRow {
    family: String,
    sample: Option<usize>,
    evaluate: Vec<LaneBits>,
    /// In `LaneRate::ALL` order: 100G PAM4, 50G PAM4, 25G NRZ.
    at_rate: [Vec<LaneBits>; 3],
}

fn family(name: &str) -> ModuleFamily {
    match name {
        "Cwdm4Duplex" => ModuleFamily::Cwdm4Duplex,
        "Cwdm4Bidi" => ModuleFamily::Cwdm4Bidi,
        "Cwdm8Bidi" => ModuleFamily::Cwdm8Bidi,
        other => panic!("unknown module family {other}"),
    }
}

const SAMPLED_PAIRS: usize = 32;

/// A manufactured pair over a sampled fiber plant, drawn the way the
/// Fig. 13 census draws a port.
fn sampled_link(family: ModuleFamily, rng: &mut StdRng) -> BidiLink {
    let tx = Transceiver::sample(family, rng);
    let rx = Transceiver::sample(family, rng);
    let fiber_km = rng.random_range(0.02..0.15);
    let components = vec![
        Component::sampled(ComponentKind::WdmMux, rng),
        Component::sampled(ComponentKind::CirculatorPass, rng),
        Component::sampled(ComponentKind::Connector, rng),
        Component::fiber_span(fiber_km / 2.0),
        Component::sampled(ComponentKind::OcsPass, rng),
        Component::fiber_span(fiber_km / 2.0),
        Component::sampled(ComponentKind::Connector, rng),
        Component::sampled(ComponentKind::CirculatorPass, rng),
        Component::sampled(ComponentKind::WdmDemux, rng),
    ];
    BidiLink {
        tx_unit: tx,
        rx_unit: rx,
        budget: LinkBudget::new(tx.launch, components).expect("non-empty chain"),
        dsp: DspConfig::ml_production(),
        fiber_km,
    }
}

fn sampled_links(family: ModuleFamily) -> Vec<BidiLink> {
    let mut rng = StdRng::seed_from_u64(0x5EA4 ^ family as u64);
    (0..SAMPLED_PAIRS)
        .map(|_| sampled_link(family, &mut rng))
        .collect()
}

fn link_row(name: &str, sample: Option<usize>, link: &BidiLink) -> LinkRow {
    LinkRow {
        family: name.to_owned(),
        sample,
        evaluate: lane_bits(&link.evaluate()),
        at_rate: LaneRate::ALL.map(|rate| lane_bits(&link.evaluate_at_rate(rate))),
    }
}

fn link_rows(name: &str) -> Vec<LinkRow> {
    let fam = family(name);
    let nominal = BidiLink::superpod(
        Transceiver::nominal(fam),
        Transceiver::nominal(fam),
        DspConfig::ml_production(),
        0.2,
    );
    let mut rows = vec![link_row(name, None, &nominal)];
    let sampled = sampled_links(fam);
    rows.extend(
        sampled
            .iter()
            .enumerate()
            .map(|(n, link)| link_row(name, Some(n), link)),
    );
    rows
}

const FAMILIES: [&str; 3] = ["Cwdm4Duplex", "Cwdm4Bidi", "Cwdm8Bidi"];

#[test]
fn links_match_the_parent_capture() {
    let rows: Vec<LinkRow> = stored("bidilink.json");
    assert_eq!(rows.len(), FAMILIES.len() * (1 + SAMPLED_PAIRS));
    for (stored, name) in rows.chunks(1 + SAMPLED_PAIRS).zip(FAMILIES) {
        assert_eq!(link_rows(name), stored, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both families' receivers carry their family's rate, so judging a
    /// link at that rate explicitly is judging it.
    #[test]
    fn a_link_is_judged_at_its_familys_rate(seed in any::<u64>(), family in 0usize..3) {
        let family = ModuleFamily::ALL[family];
        let link = sampled_link(family, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(link.evaluate(), link.evaluate_at_rate(family.lane_rate()));
    }
}

// ── capture ───────────────────────────────────────────────────────────

/// Rewrites the three vector files from the library this test is built
/// against (see the module doc for when that is the right thing to do).
#[test]
#[ignore = "overwrites tests/vectors/model_seam/"]
fn capture() {
    let mut timeline = Vec::new();
    for case in TIMELINE_CASES {
        for seed in [0, 1, 7, 42, 2024, 0xDEAD_BEEF] {
            timeline.push(timeline_row(case, seed));
        }
    }
    store("timeline.json", &timeline);

    let mut receiver = Vec::new();
    // The Fig. 11 grid: −16…−7 dBm × the figure's four MPI levels × OIM.
    let mpi_levels = [None, Some(-38.0), Some(-32.0), Some(-26.0)];
    for name in ["cwdm4_50g", "cwdm8_100g"] {
        for dbm in (-16..=-7).map(f64::from) {
            for db in mpi_levels {
                for oim in [false, true] {
                    receiver.push(ReceiverRow::Analytic(analytic_row(name, dbm, db, oim)));
                }
            }
        }
    }
    // Clean, MPI and MPI + OIM kernels; the count straddles a noise block.
    for (db, oim) in [(None, false), (Some(-28.0), false), (Some(-28.0), true)] {
        for seed in [3, 42, 99] {
            receiver.push(ReceiverRow::Channel(channel_row(
                -12.5, db, oim, 200_017, seed,
            )));
        }
    }
    for db in [Some(-28.0), None] {
        for seed in [21, 33] {
            receiver.push(ReceiverRow::Digital(digital_row(-12.0, db, 100_000, seed)));
        }
    }
    store("pam4_receiver.json", &receiver);

    let links: Vec<LinkRow> = FAMILIES.into_iter().flat_map(link_rows).collect();
    store("bidilink.json", &links);
}
