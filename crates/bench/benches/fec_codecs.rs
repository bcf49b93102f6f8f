//! Codec microbenchmarks: the KP4 outer code and the soft inner code.
//!
//! The latency claims of §3.3.2 (< 20 ns inner decode at 200 Gb/s) are
//! about silicon, not software — but software throughput still gates how
//! much Monte-Carlo the waterfall experiments can afford, and the
//! encode/decode asymmetry (syndrome-only vs full BM/Chien/Forney) is
//! worth knowing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lightwave::fec::hamming::ExtHamming;
use lightwave::fec::{ConcatenatedCode, ReedSolomon, RsScratch};
use lightwave::units::Ber;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn kp4_encode(c: &mut Criterion) {
    let rs = ReedSolomon::kp4();
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<u16> = (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect();
    let mut g = c.benchmark_group("kp4");
    g.throughput(Throughput::Bytes((rs.k() * 10 / 8) as u64));
    g.bench_function("encode_544_514", |b| {
        b.iter(|| black_box(rs.encode(black_box(&data))))
    });
    g.finish();
}

fn kp4_decode(c: &mut Criterion) {
    let rs = ReedSolomon::kp4();
    let mut rng = StdRng::seed_from_u64(2);
    let data: Vec<u16> = (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect();
    let clean = rs.encode(&data);
    let mut g = c.benchmark_group("kp4");
    for nerr in [0usize, 5, 15] {
        let mut corrupted = clean.clone();
        for i in 0..nerr {
            corrupted[i * 31] ^= 0x155;
        }
        g.bench_function(format!("decode_{nerr}_errors"), |b| {
            b.iter_batched(
                || corrupted.clone(),
                |mut cw| {
                    rs.decode(&mut cw).expect("correctable");
                    black_box(cw)
                },
                BatchSize::SmallInput,
            )
        });
        // The steady-state shape: caller-owned scratch, zero allocation
        // per decode (the path every hot loop actually takes).
        let mut scratch = RsScratch::new();
        g.bench_function(format!("decode_with_scratch_{nerr}_errors"), |b| {
            b.iter_batched(
                || corrupted.clone(),
                |mut cw| {
                    rs.decode_with(&mut cw, &mut scratch).expect("correctable");
                    black_box(cw)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn hamming_decoding(c: &mut Criterion) {
    let code = ExtHamming;
    let cw = code.encode(0xDEAD_BEEF_0123_4567u128);
    let corrupted = cw ^ (1u128 << 40) ^ (1u128 << 90);
    let mut rel = [1.0f64; 128];
    rel[40] = 0.1;
    rel[90] = 0.12;
    rel[7] = 0.3;
    let mut g = c.benchmark_group("hamming128");
    g.bench_function("encode", |b| {
        b.iter(|| black_box(code.encode(black_box(0xDEAD_BEEF_0123_4567u128))))
    });
    g.bench_function("extract_data", |b| {
        b.iter(|| black_box(code.extract_data(black_box(cw))))
    });
    g.bench_function("hard_decode", |b| {
        b.iter(|| black_box(code.hard_decode(black_box(cw ^ (1u128 << 40)))))
    });
    g.bench_function("chase_decode_6bits", |b| {
        b.iter(|| black_box(code.chase_decode(black_box(corrupted), &rel, 6)))
    });
    g.finish();
}

/// One probe of fig12's threshold bisection at quick depth: encode, AWGN
/// channel and Chase decode of 1 500 blocks.
fn inner_waterfall(c: &mut Criterion) {
    let code = ConcatenatedCode::default();
    let mut g = c.benchmark_group("concat");
    g.bench_function("inner_waterfall_point_1500_blocks_chase6", |b| {
        b.iter(|| black_box(code.inner_waterfall_point(black_box(Ber::new(5e-3)), 1500, 5)))
    });
    g.finish();
}

criterion_group!(
    benches,
    kp4_encode,
    kp4_decode,
    hamming_decoding,
    inner_waterfall
);
criterion_main!(benches);
