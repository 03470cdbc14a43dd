//! Codec throughput: the latency asymmetry the paper's argument rests on —
//! CRC-31 + ECC-1 are trivial per line, multi-bit BCH (ECC-6) is not
//! (paper §I: "multibit ECC encoders and decoders incur latencies of
//! several tens of cycles", vs single-cycle ECC-1).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use sudoku_codes::{crc31, line_ecc, BitBuf, HammingSec, LineCodec, LineData};

fn sample_line(seed: u64) -> LineData {
    let mut data = LineData::zero();
    let mut x = seed | 1;
    for i in 0..512 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 1 {
            data.set_bit(i, true);
        }
    }
    data
}

fn bench_crc31(c: &mut Criterion) {
    let engine = crc31();
    let line = sample_line(1);
    c.bench_function("crc31_checksum_line", |b| {
        b.iter(|| engine.checksum_line(black_box(&line)))
    });
}

fn bench_ecc1(c: &mut Criterion) {
    let code = HammingSec::new(543);
    let mut payload = BitBuf::zeros(543);
    for i in (0..543).step_by(3) {
        payload.set(i, true);
    }
    let check = code.encode(&payload);
    c.bench_function("ecc1_encode_543", |b| {
        b.iter(|| code.encode(black_box(&payload)))
    });
    c.bench_function("ecc1_decode_single_error", |b| {
        b.iter_batched(
            || {
                let mut p = payload.clone();
                p.flip(100);
                p
            },
            |mut p| code.decode(&mut p, check),
            BatchSize::SmallInput,
        )
    });
}

fn bench_line_codec(c: &mut Criterion) {
    let codec = LineCodec::shared();
    let data = sample_line(3);
    let stored = codec.encode(&data);
    c.bench_function("line_codec_encode", |b| {
        b.iter(|| codec.encode(black_box(&data)))
    });
    c.bench_function("line_codec_read_check_clean", |b| {
        b.iter(|| codec.read_check(black_box(&stored)))
    });
    let mut faulty = stored;
    faulty.flip_bit(42);
    c.bench_function("line_codec_read_check_repair", |b| {
        b.iter(|| codec.read_check(black_box(&faulty)))
    });
    // The syndrome walk costs one table read per set bit, so the two
    // extremes: golden zero plus two faults (the Monte-Carlo shape; the
    // service's 2-bit writes are as sparse) and a clean random line (the
    // random-data encode above).
    let mut sparse = codec.encode(&LineData::zero());
    sparse.flip_bit(42);
    sparse.flip_bit(300);
    for (shape, line) in [("zero_2_faults", sparse), ("dense_clean", stored)] {
        c.bench_function(&format!("line_codec_scrub_check_{shape}"), |b| {
            b.iter(|| codec.scrub_check(black_box(&line)))
        });
    }
    c.bench_function("line_codec_encode_zero_2_faults", |b| {
        b.iter(|| codec.encode(black_box(&sparse.data)))
    });
}

fn bench_bch(c: &mut Criterion) {
    for t in [1usize, 6] {
        let code = line_ecc(t).expect("line ECC");
        let mut data = BitBuf::zeros(512);
        for i in (0..512).step_by(5) {
            data.set(i, true);
        }
        let parity = code.encode(&data);
        c.bench_function(&format!("bch_t{t}_encode"), |b| {
            b.iter(|| code.encode(black_box(&data)))
        });
        c.bench_function(&format!("bch_t{t}_decode_{t}_errors"), |b| {
            b.iter_batched(
                || {
                    let mut d = data.clone();
                    for e in 0..t {
                        d.flip(e * 67 + 3);
                    }
                    (d, parity.clone())
                },
                |(mut d, mut p)| code.decode(&mut d, &mut p),
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(codecs, bench_crc31, bench_ecc1, bench_line_codec, bench_bch);
criterion_main!(codecs);
