//! Ablation: the loop-schedule family behind the Parallel Loop patternlets
//! (paper Fig. 13–18 and the "different chunk sizes or scheduling
//! algorithms" patternlets of §III.E).
//!
//! Two complementary measurements:
//!
//! 1. *Scheduling overhead* (Criterion, real time): an empty-body loop
//!    isolates what each schedule's chunk-claiming costs — static deals
//!    cost nothing per iteration, dynamic(1) pays an atomic op per
//!    iteration, chunking amortizes it.
//! 2. *Load balance* (virtual time, printed before the benches): makespans
//!    of a skewed loop under each schedule on 4 virtual processors — the
//!    result a multicore host would show, computed deterministically.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use patternlets_bench::workloads::skewed_costs;
use patternlets_shmem::sched::static_map;
use patternlets_shmem::{Schedule, Team};
use patternlets_vtime::models::{dynamic_loop_makespan, static_loop_makespan};

const ITERS: usize = 100_000;

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::StaticBlock,
        Schedule::StaticCyclic,
        Schedule::StaticChunked(64),
        Schedule::Dynamic(1),
        Schedule::Dynamic(64),
        Schedule::Guided(8),
    ]
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("loop_schedule_overhead");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for schedule in schedules() {
        for threads in [1usize, 4] {
            g.bench_with_input(
                BenchmarkId::new(schedule.name(), threads),
                &threads,
                |b, &n| {
                    let team = Team::new(n);
                    b.iter(|| {
                        let sink = std::sync::atomic::AtomicUsize::new(0);
                        team.parallel_for(ITERS, schedule, |i| {
                            // Minimal body: the schedule is the cost.
                            sink.fetch_add(i & 1, std::sync::atomic::Ordering::Relaxed);
                        });
                        sink.load(std::sync::atomic::Ordering::Relaxed)
                    })
                },
            );
        }
    }
    g.finish();
}

fn print_balance_table() {
    println!("=== load balance under skew (virtual time, 4 processors) ===");
    println!("iteration i costs i ticks; 1024 iterations; lower makespan is better");
    let costs = skewed_costs(1024);
    let n = 4;
    let total: u64 = costs.iter().sum();
    println!(
        "lower bound (perfect balance): {}",
        total.div_ceil(n as u64)
    );
    for (name, kind) in [
        ("static-block", Schedule::StaticBlock),
        ("static-cyclic", Schedule::StaticCyclic),
        ("static-chunked(64)", Schedule::StaticChunked(64)),
    ] {
        let map = static_map(kind, costs.len(), n);
        println!(
            "{name:>20}: makespan {}",
            static_loop_makespan(&costs, &map, n)
        );
    }
    println!(
        "{:>20}: makespan {}",
        "dynamic (greedy)",
        dynamic_loop_makespan(&costs, n)
    );
    println!();
}

fn main() {
    print_balance_table();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
