//! `omp/reduction` — the *Reduction* pattern (paper Fig. 20–22).
//!
//! An array of random values is summed twice: sequentially, then "in
//! parallel". With the reduction clause off ([`Mode::Off`](crate::harness::Mode::Off)) the parallel
//! sum races on a shared accumulator and (with >1 thread) typically loses
//! updates — Fig. 22's wrong answer. With it on, per-thread partials are
//! tree-combined and the sums agree (Fig. 21).

use patternlets_core::rng::{fill_mod, Xoshiro256StarStar};
use patternlets_shmem::sync::racy::RacyCell;
use patternlets_shmem::{ops, Schedule, Team};

use crate::harness::{Patternlet, RunConfig, Technology};

/// Array size; the paper uses 1,000,000.
pub const SIZE: usize = 1_000_000;

/// The patternlet descriptor.
pub const PATTERNLET: Patternlet = Patternlet {
    name: "omp/reduction",
    technology: Technology::Omp,
    patterns: &["Reduction", "Loop Parallelism", "Replicated Data"],
    figures: &["Fig. 20", "Fig. 21", "Fig. 22"],
    summary: "sequential vs parallel array sum; the race and its fix",
    exercise: "Run Off with 4 tasks several times: does the parallel sum \
               change between runs? Why is it (almost) always too small, \
               never too large? Turn the reduction clause On and explain \
               what per-thread partials change.",
    run,
};

/// The sequential baseline from the paper's `sequentialSum`.
pub fn sequential_sum(a: &[i64]) -> i64 {
    a.iter().sum()
}

/// The parallel sum, in both of the paper's variants.
pub fn parallel_sum(a: &[i64], tasks: usize, with_reduction: bool) -> i64 {
    parallel_sum_on(&Team::new(tasks), a, with_reduction)
}

/// [`parallel_sum`] on a caller-supplied team, so a harness-configured
/// team (tracer/metrics attached) can observe the loop.
pub fn parallel_sum_on(team: &Team, a: &[i64], with_reduction: bool) -> i64 {
    if with_reduction {
        // `#pragma omp parallel for reduction(+:sum)`
        team.parallel_for_reduce(a.len(), Schedule::StaticBlock, &ops::Sum, |i| a[i])
    } else {
        // `#pragma omp parallel for` with a shared, unprotected `sum`:
        // the Fig. 22 data race, modelled without UB by RacyCell.
        let sum = RacyCell::new(0);
        team.parallel_for(a.len(), Schedule::StaticBlock, |i| {
            sum.add_racy(a[i]);
        });
        sum.get()
    }
}

fn run(cfg: &RunConfig) {
    let sink = cfg.sink(0);
    let mut rng = Xoshiro256StarStar::seeded(2015);
    let mut a = vec![0i64; SIZE];
    fill_mod(&mut rng, &mut a, 1000);

    let seq = sequential_sum(&a);
    let par = parallel_sum_on(&cfg.team(cfg.tasks), &a, cfg.mode.is_on());
    sink.println(format!("Seq. sum: \t{seq}"));
    sink.println(format!("Par. sum: \t{par}"));
    if par != seq {
        sink.println(format!(
            "*** race lost {} updates across {} tasks ***",
            seq - par,
            cfg.tasks
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mode;

    fn array(n: usize) -> Vec<i64> {
        let mut rng = Xoshiro256StarStar::seeded(7);
        let mut a = vec![0i64; n];
        fill_mod(&mut rng, &mut a, 1000);
        a
    }

    #[test]
    fn figure_21_reduction_matches_sequential() {
        let a = array(200_000);
        let seq = sequential_sum(&a);
        for tasks in [1, 2, 4, 8] {
            assert_eq!(parallel_sum(&a, tasks, true), seq, "tasks={tasks}");
        }
    }

    #[test]
    fn figure_22_race_never_overshoots_and_single_thread_is_exact() {
        let a = array(200_000);
        let seq = sequential_sum(&a);
        // One thread cannot race with itself.
        assert_eq!(parallel_sum(&a, 1, false), seq);
        // With several threads the racy sum is bounded above by the truth
        // (lost updates only shrink a sum of non-negative values).
        let racy = parallel_sum(&a, 4, false);
        assert!(racy <= seq, "racy sum {racy} exceeded the true sum {seq}");
    }

    #[test]
    fn patternlet_output_reports_both_sums() {
        let out = PATTERNLET.run_captured(2, Mode::On);
        let texts = out.texts();
        assert!(texts[0].starts_with("Seq. sum:"));
        assert!(texts[1].starts_with("Par. sum:"));
        let seq: i64 = texts[0].split_whitespace().last().unwrap().parse().unwrap();
        let par: i64 = texts[1].split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(seq, par, "with the reduction clause the sums agree");
    }
}
