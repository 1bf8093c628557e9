//! The *Parallel Loop* pattern as a worksharing construct —
//! `#pragma omp for` / `#pragma omp parallel for`.
//!
//! [`TeamCtx::for_each`] divides a loop's iterations among the team threads
//! according to a [`Schedule`] (paper §III.C); [`Team::parallel_for`] fuses
//! region creation and the loop, like OpenMP's combined
//! `#pragma omp parallel for`; [`Team::parallel_for_reduce`] adds the
//! reduction clause (paper Fig. 20's `parallel for reduction(+:sum)`).

use patternlets_metrics::CounterId;

use crate::reduce::ReduceOp;
use crate::sched::{Cursor, LoopScheduler, Schedule};
use crate::team::{Team, TeamCtx};

/// The (chunks-claimed, iterations-run) counter pair for a schedule kind.
/// Per-lane iteration counts under one schedule are what the exporter
/// turns into the load-imbalance ratio.
fn schedule_counters(schedule: Schedule) -> (CounterId, CounterId) {
    match schedule {
        Schedule::StaticBlock => (CounterId::ChunksStaticBlock, CounterId::ItersStaticBlock),
        Schedule::StaticCyclic => (CounterId::ChunksStaticCyclic, CounterId::ItersStaticCyclic),
        Schedule::StaticChunked(_) => (
            CounterId::ChunksStaticChunked,
            CounterId::ItersStaticChunked,
        ),
        Schedule::Dynamic(_) => (CounterId::ChunksDynamic, CounterId::ItersDynamic),
        Schedule::Guided(_) => (CounterId::ChunksGuided, CounterId::ItersGuided),
    }
}

impl TeamCtx<'_> {
    /// `#pragma omp for schedule(...)`: split `0..len` across the team,
    /// then wait at the implicit end-of-construct barrier.
    ///
    /// All team threads must call this with the same `len` and `schedule`.
    pub fn for_each(&self, len: usize, schedule: Schedule, f: impl FnMut(usize)) {
        self.for_each_nowait(len, schedule, f);
        self.barrier();
    }

    /// `#pragma omp for schedule(...) nowait`: as [`TeamCtx::for_each`] but
    /// threads proceed as soon as their own iterations are done.
    pub fn for_each_nowait(&self, len: usize, schedule: Schedule, mut f: impl FnMut(usize)) {
        let n = self.num_threads();
        let (chunks_id, iters_id) = schedule_counters(schedule);
        let sched = self.shared_construct(|| LoopScheduler::new(schedule, len, n));
        let mut cursor = Cursor::new();
        while let Some(chunk) = sched.next_chunk(self.thread_num(), &mut cursor) {
            self.obs().chunk_claim(
                self.thread_num(),
                chunk.start,
                chunk.len(),
                chunks_id,
                iters_id,
            );
            for i in chunk {
                f(i);
            }
        }
    }

    /// `#pragma omp for reduction(op:acc)`: each thread folds its own
    /// iterations into a private accumulator (the fix students discover for
    /// the paper's Fig. 22 data race), then the partials are tree-combined.
    /// Returns the global result in every thread.
    pub fn for_each_reduce<T>(
        &self,
        len: usize,
        schedule: Schedule,
        op: &dyn ReduceOp<T>,
        mut f: impl FnMut(usize) -> T,
    ) -> T
    where
        T: Clone + Send + 'static,
    {
        let n = self.num_threads();
        let (chunks_id, iters_id) = schedule_counters(schedule);
        let sched = self.shared_construct(|| LoopScheduler::new(schedule, len, n));
        let mut cursor = Cursor::new();
        let mut local = op.identity();
        while let Some(chunk) = sched.next_chunk(self.thread_num(), &mut cursor) {
            self.obs().chunk_claim(
                self.thread_num(),
                chunk.start,
                chunk.len(),
                chunks_id,
                iters_id,
            );
            for i in chunk {
                local = op.combine(local, f(i));
            }
        }
        self.reduce(local, op)
    }
}

impl Team {
    /// `#pragma omp parallel for`: fork a team just to run one loop.
    pub fn parallel_for<F>(&self, len: usize, schedule: Schedule, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel(|ctx| ctx.for_each_nowait(len, schedule, &f));
    }

    /// `#pragma omp parallel for reduction(op:acc)` — paper Fig. 20's
    /// `parallelSum` once both directives are uncommented.
    pub fn parallel_for_reduce<T, F>(
        &self,
        len: usize,
        schedule: Schedule,
        op: &dyn ReduceOp<T>,
        f: F,
    ) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(usize) -> T + Sync,
    {
        let results = self.parallel_map(|ctx| ctx.for_each_reduce(len, schedule, op, &f));
        results.into_iter().next().expect("team is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ops;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    #[test]
    fn for_each_executes_every_index_once() {
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::StaticChunked(3),
            Schedule::Dynamic(2),
            Schedule::Guided(1),
        ] {
            let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
            Team::new(4).parallel(|ctx| {
                ctx.for_each(100, schedule, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{schedule:?} missed or duplicated iterations"
            );
        }
    }

    #[test]
    fn for_each_records_paper_iteration_assignment() {
        // Paper Fig. 15: 8 iterations, 2 threads, equal chunks:
        // thread 0 → 0..4, thread 1 → 4..8.
        let owner: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(usize::MAX)).collect();
        Team::new(2).parallel(|ctx| {
            let me = ctx.thread_num();
            ctx.for_each(8, Schedule::StaticBlock, |i| {
                owner[i].store(me, Ordering::Relaxed);
            });
        });
        let owners: Vec<usize> = owner.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn for_each_has_implicit_barrier() {
        let done = AtomicUsize::new(0);
        Team::new(4).parallel(|ctx| {
            ctx.for_each(16, Schedule::Dynamic(1), |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
            // After the implicit barrier, ALL 16 iterations are complete,
            // no matter which thread we are.
            assert_eq!(done.load(Ordering::SeqCst), 16);
        });
    }

    #[test]
    fn parallel_for_reduce_sums_like_sequential() {
        let a: Vec<i64> = (0..10_000).map(|i| (i * 7 % 1000) as i64).collect();
        let expected: i64 = a.iter().sum();
        for n in [1, 2, 4] {
            let got =
                Team::new(n)
                    .parallel_for_reduce(a.len(), Schedule::StaticBlock, &ops::Sum, |i| a[i]);
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn for_each_reduce_returns_same_value_everywhere() {
        let results = Team::new(4).parallel_map(|ctx| {
            ctx.for_each_reduce(100, Schedule::StaticCyclic, &ops::Sum, |i| i as i64)
        });
        assert!(results.iter().all(|&r| r == 4950), "{results:?}");
    }

    #[test]
    fn reduce_max_over_loop() {
        let a: Vec<i64> = vec![3, 9, 2, 7, 9, 1];
        let got =
            Team::new(3).parallel_for_reduce(a.len(), Schedule::Dynamic(1), &ops::Max, |i| a[i]);
        assert_eq!(got, 9);
    }

    #[test]
    fn empty_loop_is_fine() {
        let count = AtomicUsize::new(0);
        Team::new(3).parallel(|ctx| {
            ctx.for_each(0, Schedule::StaticBlock, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        let s = Team::new(3).parallel_for_reduce(0, Schedule::Guided(1), &ops::Sum, |i| i as i64);
        assert_eq!(s, 0);
    }

    #[test]
    fn more_threads_than_iterations() {
        let hits: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(0)).collect();
        Team::new(8).parallel(|ctx| {
            ctx.for_each(3, Schedule::StaticBlock, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
