//! Ablation: the cost of the structured event layer, on and off.
//!
//! With no tracer attached the event closures must never run — the
//! `*_off` and `*_traced` series bound that claim on the same collective
//! and barrier workloads the `mp_collectives` / `barrier_variants`
//! benches measure.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use patternlets_mp::{Comm, SourceSel, World};
use patternlets_shmem::{Team, TeamCtx};
use patternlets_trace::Tracer;

/// Ten world barriers.
fn barriers(comm: Comm) {
    for _ in 0..10 {
        comm.barrier().unwrap();
    }
}

/// Ten rounds of passing a token to the next rank in a ring.
fn ring(comm: Comm) {
    let next = (comm.rank() + 1) % comm.size();
    for round in 0..10i32 {
        comm.send_one(comm.rank() as u64, next, round + 1).unwrap();
        comm.recv_one::<u64>(SourceSel::Any, round + 1).unwrap();
    }
}

/// A hundred team barriers.
fn team_barriers(ctx: &TeamCtx) {
    for _ in 0..100 {
        ctx.barrier();
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));

    // The message path is where the causal-stitching bookkeeping lives
    // (per-stream seq on MsgRecv, flow-event pairing in the exporter):
    // the off series must not move when that machinery changes — the
    // closures still never run without a tracer.
    for np in [2usize, 4] {
        for (name, body) in [("mp_barrier", barriers as fn(Comm)), ("mp_ring", ring)] {
            g.bench_with_input(
                BenchmarkId::new(format!("{name}_off"), np),
                &np,
                |b, &np| b.iter(|| World::run(np, body)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{name}_traced"), np),
                &np,
                |b, &np| {
                    b.iter(|| {
                        let tracer = Tracer::new();
                        World::builder(np).tracer(tracer.clone()).run(body).unwrap();
                        tracer.drain().events.len()
                    })
                },
            );
        }

        g.bench_with_input(BenchmarkId::new("team_barrier_off", np), &np, |b, &n| {
            b.iter(|| Team::new(n).parallel(team_barriers))
        });
        g.bench_with_input(BenchmarkId::new("team_barrier_traced", np), &np, |b, &n| {
            b.iter(|| {
                let tracer = Tracer::new();
                Team::new(n)
                    .with_tracer(tracer.clone())
                    .parallel(team_barriers);
                tracer.drain().events.len()
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
