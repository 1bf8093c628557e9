//! Thread teams and parallel regions — the *Fork-Join* and *SPMD* patterns.
//!
//! [`Team::parallel`] is the analogue of `#pragma omp parallel`: it forks a
//! team of OS threads, runs the same closure in each (single program,
//! multiple data — paper §III.A), and joins them all before returning
//! (fork-join with an implicit barrier at region end).
//!
//! Inside the region each thread holds a [`TeamCtx`] giving its id
//! (`omp_get_thread_num`), the team size (`omp_get_num_threads`), and the
//! synchronization and worksharing constructs.
//!
//! ## Worksharing construct identity
//!
//! OpenMP requires every thread of a team to encounter the same worksharing
//! and synchronization constructs in the same order; we inherit that rule.
//! Each `TeamCtx` carries an *encounter counter*; the k-th collective
//! construct a thread encounters is matched with the k-th of every other
//! thread through a shared table. Violating the rule (e.g. calling `reduce`
//! in only half the threads) deadlocks or panics, just as it would in
//! OpenMP.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use patternlets_core::{Error, OpContext, Result};
use patternlets_metrics::{MetricsHub, Obs};
use patternlets_trace::Tracer;

use crate::barrier::{AbortableBarrier, Barrier, BarrierKind};
use crate::reduce::{tree_fold, ReduceOp};

/// Render a panic payload as a message, like the runtime's default hook.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// A parallel-region factory: holds the team size and barrier algorithm.
///
/// ```
/// use patternlets_shmem::Team;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let hits = AtomicUsize::new(0);
/// Team::new(4).parallel(|ctx| {
///     hits.fetch_add(ctx.thread_num() + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
/// ```
#[derive(Debug, Clone)]
pub struct Team {
    n: usize,
    barrier_kind: BarrierKind,
    obs: Obs,
}

impl Team {
    /// A team of `n` threads (the `omp_set_num_threads(n)` analogue).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a team needs at least one thread");
        Team {
            n,
            barrier_kind: BarrierKind::Central,
            obs: Obs::none(),
        }
    }

    /// A team sized to the machine (`available_parallelism`), the OpenMP
    /// default when `omp_set_num_threads` is never called.
    pub fn machine_sized() -> Self {
        let n = std::thread::available_parallelism()
            .map(|nz| nz.get())
            .unwrap_or(1);
        Team::new(n)
    }

    /// Select the barrier algorithm used by this team's regions.
    pub fn with_barrier(mut self, kind: BarrierKind) -> Self {
        self.barrier_kind = kind;
        self
    }

    /// Attach a structured-event [`Tracer`]: each thread emits
    /// region-begin/end, barrier-wait/release, and loop-chunk-claim events
    /// on its thread-id lane. Drain the tracer after the region to inspect
    /// or export the stream.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.obs.tracer = Some(tracer);
        self
    }

    /// Attach a [`MetricsHub`]: each thread records barrier-wait
    /// histograms and per-schedule chunk/iteration counters on its
    /// thread-id lane. Snapshot the hub after the region; the per-lane
    /// iteration counts give the load-imbalance ratio per schedule.
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.obs.metrics = Some(hub);
        self
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Fork a team, run `body` in every thread, join — `#pragma omp
    /// parallel`. Panics in any thread propagate after all threads joined.
    ///
    /// A panicking thread is recorded in the region's failure state before
    /// the panic propagates, so survivors blocked in
    /// [`TeamCtx::try_barrier`] observe [`Error::TaskPanicked`] instead of
    /// hanging. (The plain [`TeamCtx::barrier`] has no such escape — that
    /// hang is the bug the fault-aware constructs exist to demonstrate.)
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn(&TeamCtx) + Sync,
    {
        let shared = RegionShared::new(self.n, self.barrier_kind, self.obs.clone());
        let run = |tid: usize| {
            let ctx = TeamCtx::new(tid, &shared);
            let region = shared.obs.region(tid, shared.n);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            drop(region);
            shared.record_departure(tid, &outcome);
            if let Err(payload) = outcome {
                std::panic::resume_unwind(payload);
            }
        };
        std::thread::scope(|scope| {
            // Thread 0 runs on the caller's thread, like an OpenMP master;
            // threads 1..n are forked.
            for tid in 1..self.n {
                let run = &run;
                scope.spawn(move || run(tid));
            }
            run(0);
        });
    }

    /// Like [`Team::parallel`], but collect each thread's return value,
    /// indexed by thread id.
    pub fn parallel_map<R, F>(&self, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&TeamCtx) -> R + Sync,
    {
        let results: Vec<Mutex<Option<R>>> = (0..self.n).map(|_| Mutex::new(None)).collect();
        self.parallel(|ctx| {
            let r = body(ctx);
            *results[ctx.thread_num()].lock() = Some(r);
        });
        results
            .into_iter()
            .map(|m| m.into_inner().expect("every thread produced a result"))
            .collect()
    }

    /// Fault-tolerant region: like [`Team::parallel_map`], but a panicking
    /// thread yields `Err(TaskPanicked)` in *its own* slot instead of
    /// tearing the region down, and survivors keep running. Pair with
    /// [`TeamCtx::try_barrier`] so survivors observe the failure at their
    /// next synchronization point instead of hanging on a dead teammate.
    pub fn try_parallel_map<R, F>(&self, body: F) -> Vec<Result<R>>
    where
        R: Send,
        F: Fn(&TeamCtx) -> Result<R> + Sync,
    {
        let shared = RegionShared::new(self.n, self.barrier_kind, self.obs.clone());
        let results: Vec<Mutex<Option<Result<R>>>> =
            (0..self.n).map(|_| Mutex::new(None)).collect();
        let run = |tid: usize| {
            let ctx = TeamCtx::new(tid, &shared);
            let region = shared.obs.region(tid, shared.n);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            drop(region);
            shared.record_departure(tid, &outcome);
            *results[tid].lock() = Some(match outcome {
                Ok(r) => r,
                Err(payload) => Err(Error::TaskPanicked {
                    task: tid,
                    message: panic_message(payload.as_ref()),
                }),
            });
        };
        std::thread::scope(|scope| {
            for tid in 1..self.n {
                let run = &run;
                scope.spawn(move || run(tid));
            }
            run(0);
        });
        results
            .into_iter()
            .map(|m| m.into_inner().expect("every thread produced a result"))
            .collect()
    }
}

impl Default for Team {
    fn default() -> Self {
        Team::machine_sized()
    }
}

/// State shared by all threads of one parallel region.
pub(crate) struct RegionShared {
    n: usize,
    barrier: Arc<dyn Barrier>,
    /// Named critical-section locks (`#pragma omp critical(name)`).
    criticals: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Encounter-keyed collective construct state (reduce areas, single
    /// claims, section counters, loop schedulers).
    constructs: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    /// Fault-aware synchronization: the cancellable barrier behind
    /// [`TeamCtx::try_barrier`].
    abortable: AbortableBarrier,
    /// Threads that left the region (normally or by panic); a departed
    /// thread can never arrive at a barrier again.
    departed: Vec<AtomicBool>,
    /// Panic messages by thread id, recorded before the panic propagates.
    panics: Mutex<HashMap<usize, String>>,
    /// Tracer and metrics hub, shared by every thread of the region; each
    /// thread records on its thread-id lane.
    obs: Obs,
}

impl RegionShared {
    fn new(n: usize, barrier_kind: BarrierKind, obs: Obs) -> Self {
        RegionShared {
            n,
            barrier: barrier_kind.build(n),
            criticals: Mutex::new(HashMap::new()),
            constructs: Mutex::new(HashMap::new()),
            abortable: AbortableBarrier::new(n),
            departed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            panics: Mutex::new(HashMap::new()),
            obs,
        }
    }

    /// Record that `tid`'s body returned or panicked, then wake any
    /// `try_barrier` waiters so they re-evaluate their cancel condition.
    fn record_departure<T>(&self, tid: usize, outcome: &std::thread::Result<T>) {
        if let Err(payload) = outcome {
            self.panics
                .lock()
                .insert(tid, panic_message(payload.as_ref()));
        }
        self.departed[tid].store(true, Ordering::SeqCst);
        self.abortable.poke();
    }

    /// The cancel condition for fault-aware waits: the lowest-id panicked
    /// thread (as `TaskPanicked`), else the lowest-id departed thread (as
    /// `Deadlock` — it can never arrive), else `None`.
    fn failure(&self, op: &'static str) -> Option<Error> {
        let panics = self.panics.lock();
        if let Some(&task) = panics.keys().min() {
            return Some(Error::TaskPanicked {
                task,
                message: panics[&task].clone(),
            });
        }
        drop(panics);
        (0..self.n)
            .find(|&t| self.departed[t].load(Ordering::SeqCst))
            .map(|t| {
                Error::Deadlock(OpContext::new(op).detail(format!(
                    "thread {t} left the parallel region and can never arrive"
                )))
            })
    }
}

/// A thread's view of its parallel region.
pub struct TeamCtx<'region> {
    tid: usize,
    shared: &'region RegionShared,
    encounter: Cell<u64>,
}

impl<'region> TeamCtx<'region> {
    fn new(tid: usize, shared: &'region RegionShared) -> Self {
        TeamCtx {
            tid,
            shared,
            encounter: Cell::new(0),
        }
    }

    /// This thread's id in `0..num_threads()` — `omp_get_thread_num()`.
    #[inline]
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// Team size — `omp_get_num_threads()`.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.shared.n
    }

    /// True for thread 0.
    #[inline]
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }

    /// The region's tracer and metrics hub.
    pub(crate) fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// `#pragma omp barrier`: block until every team thread arrives.
    pub fn barrier(&self) {
        let _phase = self.shared.obs.barrier(self.tid);
        self.shared.barrier.wait(self.tid);
    }

    /// Fault-aware barrier: like [`TeamCtx::barrier`], but if a team
    /// member panicked (or returned from the region body) before arriving,
    /// the survivors fail with [`Error::TaskPanicked`] (or
    /// [`Error::Deadlock`]) instead of hanging forever. A phase that
    /// completes is never retroactively failed.
    pub fn try_barrier(&self) -> Result<()> {
        let _phase = self.shared.obs.barrier(self.tid);
        self.shared
            .abortable
            .wait(|| self.shared.failure("barrier"))
    }

    /// `#pragma omp master`: run `f` on thread 0 only. No implied barrier,
    /// exactly like OpenMP. Returns `Some(r)` on the master, `None`
    /// elsewhere.
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if self.is_master() {
            Some(f())
        } else {
            None
        }
    }

    /// `#pragma omp critical` — unnamed; all unnamed criticals in the
    /// region exclude one another.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        self.critical_named("", f)
    }

    /// `#pragma omp critical(name)` — criticals with the same name exclude
    /// one another; differently named criticals may overlap.
    pub fn critical_named<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let lock = {
            let mut map = self.shared.criticals.lock();
            Arc::clone(map.entry(name.to_string()).or_default())
        };
        let _guard = lock.lock();
        f()
    }

    /// Fetch (or create) the shared state for the next collective construct
    /// this thread encounters. All team threads must encounter constructs
    /// in the same order.
    pub(crate) fn shared_construct<T>(&self, make: impl FnOnce() -> T) -> Arc<T>
    where
        T: Any + Send + Sync,
    {
        let key = self.encounter.get();
        self.encounter.set(key + 1);
        let mut map = self.shared.constructs.lock();
        let entry = map
            .entry(key)
            .or_insert_with(|| Arc::new(make()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("construct type mismatch: team threads diverged")
    }

    /// `#pragma omp single`: exactly one (first-arriving) thread runs `f`;
    /// implicit barrier afterwards. Returns `Some(r)` in the executing
    /// thread.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let r = self.single_nowait(f);
        self.barrier();
        r
    }

    /// `#pragma omp single nowait`: as [`TeamCtx::single`] but without the
    /// trailing barrier.
    pub fn single_nowait<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let claim = self.shared_construct(SingleClaim::default);
        if !claim.0.swap(true, std::sync::atomic::Ordering::AcqRel) {
            Some(f())
        } else {
            None
        }
    }

    /// `#pragma omp sections`: each section runs exactly once, dealt to
    /// whichever thread claims it first; implicit barrier afterwards.
    pub fn sections(&self, sections: &[&(dyn Fn() + Sync)]) {
        let counter = self.shared_construct(SectionCounter::default);
        loop {
            let i = counter.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= sections.len() {
                break;
            }
            sections[i]();
        }
        self.barrier();
    }

    /// `reduction(op:var)`: combine per-thread `local` values with `op`
    /// (associative), returning the global result *in every thread* —
    /// OpenMP's reduction clause semantics, and also `MPI_Allreduce`'s.
    /// Partials are combined pairwise in thread-id order, so
    /// non-commutative associative ops are safe.
    pub fn reduce<T>(&self, local: T, op: &dyn ReduceOp<T>) -> T
    where
        T: Clone + Send + 'static,
    {
        let n = self.num_threads();
        let area = self.shared_construct(|| ReduceArea::<T>::new(n));
        *area.slots[self.tid].lock() = Some(local);
        self.barrier();
        if self.is_master() {
            let partials: Vec<T> = area
                .slots
                .iter()
                .map(|s| s.lock().take().expect("every thread deposited a partial"))
                .collect();
            *area.result.lock() = Some(tree_fold(op, &partials));
        }
        self.barrier();
        let result = area.result.lock().clone();
        result.expect("master published the result")
    }
}

#[derive(Default)]
struct SingleClaim(std::sync::atomic::AtomicBool);

#[derive(Default)]
struct SectionCounter(std::sync::atomic::AtomicUsize);

struct ReduceArea<T> {
    slots: Vec<Mutex<Option<T>>>,
    result: Mutex<Option<T>>,
}

impl<T> ReduceArea<T> {
    fn new(n: usize) -> Self {
        ReduceArea {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            result: Mutex::new(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ops;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_thread_runs_with_distinct_id() {
        let seen: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        Team::new(6).parallel(|ctx| {
            assert_eq!(ctx.num_threads(), 6);
            seen[ctx.thread_num()].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn parallel_map_collects_by_thread_id() {
        let out = Team::new(5).parallel_map(|ctx| ctx.thread_num() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_thread_team_works() {
        let out = Team::new(1).parallel_map(|ctx| {
            ctx.barrier();
            let s = ctx.reduce(21i64, &ops::Sum);
            ctx.barrier();
            s * 2
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn master_runs_only_on_thread_zero() {
        let count = AtomicUsize::new(0);
        Team::new(4).parallel(|ctx| {
            ctx.master(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_runs_exactly_once_each_encounter() {
        let count = AtomicUsize::new(0);
        Team::new(4).parallel(|ctx| {
            for _ in 0..5 {
                ctx.single(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn single_returns_value_in_exactly_one_thread() {
        let owners = Team::new(4).parallel_map(|ctx| ctx.single(|| "ran").is_some());
        assert_eq!(owners.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn sections_each_run_once() {
        let counts: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let s0 = || {
            counts[0].fetch_add(1, Ordering::Relaxed);
        };
        let s1 = || {
            counts[1].fetch_add(1, Ordering::Relaxed);
        };
        let s2 = || {
            counts[2].fetch_add(1, Ordering::Relaxed);
        };
        Team::new(2).parallel(|ctx| {
            ctx.sections(&[&s0, &s1, &s2]);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn reduce_sum_all_threads_see_result() {
        for n in [1, 2, 3, 4, 7, 8] {
            let out = Team::new(n).parallel_map(|ctx| {
                let local = (ctx.thread_num() + 1) as i64;
                ctx.reduce(local, &ops::Sum)
            });
            let expected = (n * (n + 1) / 2) as i64;
            assert!(out.iter().all(|&x| x == expected), "n={n}: {out:?}");
        }
    }

    #[test]
    fn reduce_noncommutative_preserves_thread_order() {
        let op = ops::FnOp::new(String::new(), |a: String, b: String| a + &b);
        let out = Team::new(4).parallel_map(|ctx| ctx.reduce(ctx.thread_num().to_string(), &op));
        assert!(out.iter().all(|s| s == "0123"), "{out:?}");
    }

    #[test]
    fn repeated_reduces_in_one_region() {
        let out = Team::new(3).parallel_map(|ctx| {
            let a = ctx.reduce(1i64, &ops::Sum);
            let b = ctx.reduce(ctx.thread_num() as i64, &ops::Max);
            (a, b)
        });
        assert!(out.iter().all(|&(a, b)| a == 3 && b == 2), "{out:?}");
    }

    #[test]
    fn criticals_with_same_name_exclude() {
        // A non-atomic read-modify-write under critical stays consistent.
        let cell = Mutex::new(0i64); // value protected only by discipline
        let unprotected = std::sync::atomic::AtomicI64::new(0);
        Team::new(4).parallel(|ctx| {
            for _ in 0..1000 {
                ctx.critical(|| {
                    let v = *cell.lock();
                    // widen the window
                    std::hint::black_box(v);
                    *cell.lock() = v + 1;
                });
                unprotected.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(*cell.lock(), 4000);
        assert_eq!(unprotected.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn differently_named_criticals_do_not_interfere_with_correctness() {
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        Team::new(4).parallel(|ctx| {
            for _ in 0..100 {
                ctx.critical_named("a", || *a.lock() += 1);
                ctx.critical_named("b", || *b.lock() += 1);
            }
        });
        assert_eq!(*a.lock(), 400);
        assert_eq!(*b.lock(), 400);
    }

    #[test]
    fn barrier_separates_phases() {
        let before = AtomicUsize::new(0);
        Team::new(4).parallel(|ctx| {
            before.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_sized_team_rejected() {
        let _ = Team::new(0);
    }

    #[test]
    fn try_barrier_behaves_like_barrier_without_faults() {
        let before = AtomicUsize::new(0);
        Team::new(4).parallel(|ctx| {
            before.fetch_add(1, Ordering::SeqCst);
            ctx.try_barrier().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn panicked_member_surfaces_task_panicked_to_survivors() {
        use patternlets_core::Error;
        let out = Team::new(4).try_parallel_map(|ctx| {
            if ctx.thread_num() == 2 {
                panic!("injected fault in thread 2");
            }
            ctx.try_barrier()?;
            Ok(ctx.thread_num())
        });
        // The panicking thread reports its own panic...
        assert!(
            matches!(&out[2], Err(Error::TaskPanicked { task: 2, message })
                if message.contains("injected fault")),
            "{:?}",
            out[2]
        );
        // ...and every survivor observes it at the barrier instead of
        // hanging.
        for tid in [0, 1, 3] {
            assert!(
                matches!(&out[tid], Err(Error::TaskPanicked { task: 2, .. })),
                "thread {tid}: {:?}",
                out[tid]
            );
        }
    }

    #[test]
    fn early_return_surfaces_deadlock_to_survivors() {
        use patternlets_core::Error;
        let out = Team::new(3).try_parallel_map(|ctx| {
            if ctx.thread_num() == 1 {
                return Ok(0); // leaves without reaching the barrier
            }
            ctx.try_barrier()?;
            Ok(1)
        });
        assert!(matches!(out[1], Ok(0)));
        for tid in [0, 2] {
            assert!(
                matches!(&out[tid], Err(Error::Deadlock(_))),
                "thread {tid}: {:?}",
                out[tid]
            );
        }
    }

    #[test]
    fn try_parallel_map_all_ok_without_faults() {
        let out = Team::new(4).try_parallel_map(|ctx| {
            ctx.try_barrier()?;
            Ok(ctx.thread_num() * 2)
        });
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 2, 4, 6]);
    }

    #[test]
    fn parallel_records_panic_for_try_barrier_waiters() {
        // Even in a plain `parallel` region, a panicking thread must
        // release try_barrier survivors before the panic propagates.
        use patternlets_core::Error;
        let survivor_saw = Mutex::new(None);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Team::new(2).parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    panic!("boom");
                }
                *survivor_saw.lock() = Some(ctx.try_barrier());
            });
        }));
        assert!(result.is_err(), "the panic still propagates to the caller");
        let saw = survivor_saw.lock().take().expect("survivor ran");
        assert!(
            matches!(saw, Err(Error::TaskPanicked { task: 1, .. })),
            "{saw:?}"
        );
    }

    #[test]
    fn barrier_kind_is_configurable() {
        for kind in BarrierKind::ALL {
            let before = AtomicUsize::new(0);
            Team::new(3).with_barrier(kind).parallel(|ctx| {
                before.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
                assert_eq!(before.load(Ordering::SeqCst), 3);
            });
        }
    }
}
