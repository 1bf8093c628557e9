//! Ablation: the cost of the metrics instruments, on and off.
//!
//! Every instrumented site is a branch on an `Option<MetricsHub>`, so a
//! world with no hub attached must run the pingpong hot path at the same
//! speed as the plain `World::run` baseline — the `pingpong_baseline` /
//! `pingpong_metrics_off` pair bounds that claim, and
//! `pingpong_metrics_on` prices what turning the instruments on costs
//! (a handful of relaxed atomic adds per message). `team_loop_*` does
//! the same for the shmem schedule counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use patternlets_bench::workloads::pingpong;
use patternlets_metrics::MetricsHub;
use patternlets_mp::World;
use patternlets_shmem::{Schedule, Team};

/// Sum `0..1024` over the team on a dynamic schedule.
fn team_loop(team: Team) -> u64 {
    let total = AtomicU64::new(0);
    team.parallel(|ctx| {
        ctx.for_each(1024, Schedule::Dynamic(8), |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
    });
    total.into_inner()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_overhead");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));

    g.bench_function("pingpong_baseline", |b| {
        b.iter(|| World::run(2, |comm| pingpong(&comm, 64)))
    });
    g.bench_function("pingpong_metrics_off", |b| {
        b.iter(|| World::builder(2).run(|comm| pingpong(&comm, 64)).unwrap())
    });
    g.bench_function("pingpong_metrics_on", |b| {
        b.iter(|| {
            let hub = MetricsHub::new();
            World::builder(2)
                .metrics(hub.clone())
                .run(|comm| pingpong(&comm, 64))
                .unwrap();
            hub.snapshot().msgs_sent()
        })
    });

    for np in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("team_loop_off", np), &np, |b, &n| {
            b.iter(|| team_loop(Team::new(n)))
        });
        g.bench_with_input(BenchmarkId::new("team_loop_on", np), &np, |b, &n| {
            b.iter(|| team_loop(Team::new(n).with_metrics(MetricsHub::new())))
        });
    }

    g.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
