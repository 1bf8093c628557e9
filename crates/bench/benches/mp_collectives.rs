//! Ablation: the message-passing collectives behind the MPI patternlets
//! (Figures 10–12, 23–28), including the linear-vs-tree and
//! reduce+bcast-vs-recursive-doubling algorithm comparisons, and the
//! zero-copy payload path against the encoded baseline.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use patternlets_core::reduce::ops;
use patternlets_mp::{Comm, World};

const PAYLOAD: usize = 256; // i64 elements per rank

/// `0..n` at the root, empty elsewhere: a broadcast's input.
fn root_buf(comm: &Comm, n: usize) -> Vec<i64> {
    if comm.is_master() {
        (0..n as i64).collect()
    } else {
        Vec::new()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("mp_collectives");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));

    for np in [2usize, 4, 8] {
        // World spawn alone, to subtract mentally from the rest.
        g.bench_with_input(BenchmarkId::new("world_spawn", np), &np, |b, &np| {
            b.iter(|| World::run(np, |comm| comm.rank()))
        });
        g.bench_with_input(BenchmarkId::new("barrier", np), &np, |b, &np| {
            b.iter(|| {
                World::run(np, |comm| {
                    for _ in 0..10 {
                        comm.barrier().unwrap();
                    }
                })
            })
        });
        for (id, linear) in [("bcast_linear", true), ("bcast", false)] {
            g.bench_with_input(BenchmarkId::new(id, np), &np, |b, &np| {
                b.iter(|| {
                    World::run(np, move |comm| {
                        let mut buf = root_buf(&comm, PAYLOAD);
                        match linear {
                            true => comm.bcast_linear(0, &mut buf),
                            false => comm.bcast(0, &mut buf),
                        }
                        .unwrap();
                        buf.len()
                    })
                })
            });
        }
        g.bench_with_input(BenchmarkId::new("reduce", np), &np, |b, &np| {
            b.iter(|| {
                World::run(np, |comm| {
                    let local: Vec<i64> = vec![comm.rank() as i64; PAYLOAD];
                    comm.reduce(0, &local, &ops::Sum).unwrap().map(|v| v[0])
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("gather", np), &np, |b, &np| {
            b.iter(|| {
                World::run(np, |comm| {
                    let local: Vec<i64> = vec![comm.rank() as i64; PAYLOAD];
                    comm.gather(0, &local).unwrap().map(|v| v.len())
                })
            })
        });
        for (id, rd) in [
            ("allreduce_reduce_bcast", false),
            ("allreduce_recursive_doubling", true),
        ] {
            g.bench_with_input(BenchmarkId::new(id, np), &np, |b, &np| {
                b.iter(|| {
                    World::run(np, move |comm| {
                        let local: Vec<i64> = vec![1; PAYLOAD];
                        match rd {
                            false => comm.allreduce(&local, &ops::Sum),
                            true => comm.allreduce_rd(&local, &ops::Sum),
                        }
                        .unwrap()[0]
                    })
                })
            });
        }
    }
    // The zero-copy fast path against the encoded baseline at p = 8
    // (EXPERIMENTS.md, "Zero-copy fast path"): 8192 and 256 i64s.
    for (id, encoded) in [("zerocopy", false), ("encoded", true)] {
        let world = || World::builder(8).encoded_payloads(encoded);
        g.bench_function(BenchmarkId::new("bcast_p8_64KiB", id), |b| {
            b.iter(|| {
                world()
                    .run(|comm| {
                        let mut buf = root_buf(&comm, 8192);
                        comm.bcast(0, &mut buf).unwrap();
                    })
                    .unwrap()
            })
        });
        g.bench_function(BenchmarkId::new("reduce_p8_2KiB", id), |b| {
            let local = [1i64; PAYLOAD];
            b.iter(|| {
                world()
                    .run(|comm| comm.reduce(0, &local, &ops::Sum).unwrap())
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn print_comm_model_table() {
    use patternlets_vtime::CommModel;
    println!("=== analytic collective costs (Hockney model, latency-bound cluster) ===");
    let m = CommModel::latency_bound();
    let payload = PAYLOAD;
    println!(
        "{:>6} {:>14} {:>12} {:>14} {:>12} {:>16} {:>14}",
        "p",
        "bcast linear",
        "bcast tree",
        "reduce linear",
        "reduce tree",
        "allred red+bc",
        "allred rd"
    );
    for p in [2usize, 4, 8, 16, 64, 256] {
        println!(
            "{p:>6} {:>14.0} {:>12.0} {:>14.0} {:>12.0} {:>16.0} {:>14.0}",
            m.bcast_linear(p, payload),
            m.bcast_tree(p, payload),
            m.reduce_linear(p, payload),
            m.reduce_tree(p, payload),
            m.allreduce_reduce_bcast(p, payload),
            m.allreduce_recursive_doubling(p, payload),
        );
    }
    println!("(tree algorithms overtake linear at p = 4 and win by p/lg p after)\n");
}

fn main() {
    print_comm_model_table();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
