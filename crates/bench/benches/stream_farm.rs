//! The stream executor's throughput sweep (EXPERIMENTS.md, "BENCH_7"):
//! `run_farm` across worker counts, queue capacities, ordering and
//! per-item cost, and a three-stage `Pipeline`. Each iteration streams
//! `ITEMS` items, so items/sec is `ITEMS` over the printed time.

use std::time::Duration;

use criterion::{black_box, Criterion};
use patternlets_stream::{run_farm, FarmConfig, Obs, Pipeline};

const ITEMS: u64 = 200_000;

/// `cost` rounds of integer mixing: 0 prices the channel alone.
fn work(x: u64, cost: u32) -> u64 {
    (0..cost).fold(x, |v, _| {
        v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
    })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_farm");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for (workers, capacity, ordered, cost, name) in [
        (1, 64, false, 0, "farm_w1_cap64_trivial"),
        (2, 64, false, 0, "farm_w2_cap64_trivial"),
        (4, 64, false, 0, "farm_w4_cap64_trivial"),
        (4, 8, false, 0, "farm_w4_cap8_trivial"),
        (4, 64, true, 0, "farm_w4_cap64_ordered"),
        (4, 64, false, 200, "farm_w4_cap64_cost200"),
    ] {
        let cfg = FarmConfig {
            workers,
            capacity,
            ordered,
            ..FarmConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0u64;
                run_farm(&cfg, 0..ITEMS, |x| work(x, cost), |r| acc ^= r);
                black_box(acc)
            })
        });
    }
    for (cost, name) in [
        (0, "pipeline3_cap64_trivial"),
        (200, "pipeline3_cap64_cost200"),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0u64;
                Pipeline::source(0..ITEMS)
                    .stage(move |x| work(x, cost))
                    .stage(move |x| work(x, cost))
                    .run(64, &Obs::none(), |r| acc ^= r);
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
