//! The *Barrier* pattern (paper §III.B), in four classic algorithms.
//!
//! A barrier separates execution into phases: no task may proceed past the
//! barrier until all tasks have reached it (Figures 7–9 of the paper). The
//! paper treats the barrier as a primitive supplied by OpenMP/MPI; since we
//! build the runtime from scratch, we implement the textbook algorithms and
//! expose them for the `barrier_variants` ablation bench:
//!
//! * [`CentralBarrier`] — mutex + condvar around a count/generation pair.
//!   Simple, blocking, O(n) serialized arrivals.
//! * [`SenseReversingBarrier`] — one atomic counter plus a flipping sense
//!   flag; spinning with yield. O(n) arrivals, O(1) release broadcast.
//! * [`TreeBarrier`] — arrivals combine up a binary tree (O(log n) critical
//!   path), release via a single generation word.
//! * [`DisseminationBarrier`] — ⌈log₂ n⌉ rounds of pairwise signalling; no
//!   single hot location, every thread does the same work.
//!
//! All four are *reusable* (cyclic): the same barrier object synchronizes an
//! unbounded sequence of phases, which is what a loop body containing
//! `#pragma omp barrier` needs.
//!
//! Memory ordering: arrivals publish with `Release` and waiters observe with
//! `Acquire`, so everything a thread did before `wait()` happens-before
//! everything any thread does after the matching release (the property the
//! paper's Figure 9 output depends on).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use patternlets_core::{Error, Result};

/// A value aligned to 128 bytes (two cache lines, for adjacent-line
/// prefetch), so hot atomics owned by different threads don't
/// false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A cyclic (reusable) barrier for a fixed-size team.
pub trait Barrier: Send + Sync {
    /// Block until every thread in the team has called `wait` for the
    /// current phase. `tid` must be this thread's dense id in
    /// `0..num_threads()`; each id must participate exactly once per phase.
    fn wait(&self, tid: usize);

    /// Team size this barrier was built for.
    fn num_threads(&self) -> usize;
}

/// Which barrier algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Mutex + condvar (blocking).
    Central,
    /// Sense-reversing atomic counter (spinning).
    SenseReversing,
    /// Binary combining tree (spinning).
    Tree,
    /// Dissemination / butterfly (spinning).
    Dissemination,
}

impl BarrierKind {
    /// Build a barrier of this kind for `n` threads.
    pub fn build(self, n: usize) -> Arc<dyn Barrier> {
        assert!(n > 0, "a barrier needs at least one thread");
        match self {
            BarrierKind::Central => Arc::new(CentralBarrier::new(n)),
            BarrierKind::SenseReversing => Arc::new(SenseReversingBarrier::new(n)),
            BarrierKind::Tree => Arc::new(TreeBarrier::new(n)),
            BarrierKind::Dissemination => Arc::new(DisseminationBarrier::new(n)),
        }
    }

    /// All kinds, for ablation sweeps.
    pub const ALL: [BarrierKind; 4] = [
        BarrierKind::Central,
        BarrierKind::SenseReversing,
        BarrierKind::Tree,
        BarrierKind::Dissemination,
    ];

    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BarrierKind::Central => "central",
            BarrierKind::SenseReversing => "sense-reversing",
            BarrierKind::Tree => "tree",
            BarrierKind::Dissemination => "dissemination",
        }
    }
}

/// Spin politely: a few pause hints, then yield to the OS scheduler. On a
/// machine with fewer cores than threads (this repro runs on one core),
/// yielding is what makes spinning barriers make forward progress.
#[inline]
fn spin_wait(mut spins: u32) -> u32 {
    if spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    spins = spins.saturating_add(1);
    spins
}

// ---------------------------------------------------------------------------
// Central (mutex + condvar)
// ---------------------------------------------------------------------------

struct CentralState {
    arrived: usize,
    generation: u64,
}

/// Classic centralized barrier: the last arrival bumps the generation and
/// wakes everyone.
pub struct CentralBarrier {
    n: usize,
    state: Mutex<CentralState>,
    cv: Condvar,
}

impl CentralBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        CentralBarrier {
            n,
            state: Mutex::new(CentralState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }
}

impl Barrier for CentralBarrier {
    fn wait(&self, _tid: usize) {
        let mut st = self.state.lock();
        let my_gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
        } else {
            while st.generation == my_gen {
                self.cv.wait(&mut st);
            }
        }
    }

    fn num_threads(&self) -> usize {
        self.n
    }
}

// ---------------------------------------------------------------------------
// Sense-reversing
// ---------------------------------------------------------------------------

/// Sense-reversing barrier: a shared count plus a phase ("sense") word.
/// Each arrival decrements the count; the last arrival resets it and flips
/// the sense, releasing the spinners.
pub struct SenseReversingBarrier {
    n: usize,
    count: CachePadded<AtomicU64>,
    sense: CachePadded<AtomicU64>, // phase counter; spinners wait for it to move
}

impl SenseReversingBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        SenseReversingBarrier {
            n,
            count: CachePadded(AtomicU64::new(n as u64)),
            sense: CachePadded(AtomicU64::new(0)),
        }
    }
}

impl Barrier for SenseReversingBarrier {
    fn wait(&self, _tid: usize) {
        let my_sense = self.sense.load(Ordering::Acquire);
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset for the next phase, then release.
            self.count.store(self.n as u64, Ordering::Relaxed);
            self.sense
                .store(my_sense.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0;
            while self.sense.load(Ordering::Acquire) == my_sense {
                spins = spin_wait(spins);
            }
        }
    }

    fn num_threads(&self) -> usize {
        self.n
    }
}

// ---------------------------------------------------------------------------
// Combining tree
// ---------------------------------------------------------------------------

/// Binary combining-tree barrier. Thread `i`'s children are `2i+1` and
/// `2i+2`. Arrivals propagate leaf→root as monotone per-thread episode
/// counters; the root publishes the episode in a single release word.
pub struct TreeBarrier {
    n: usize,
    arrive: Vec<CachePadded<AtomicU64>>,
    release: CachePadded<AtomicU64>,
}

impl TreeBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        TreeBarrier {
            n,
            arrive: (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            release: CachePadded(AtomicU64::new(0)),
        }
    }
}

impl Barrier for TreeBarrier {
    fn wait(&self, tid: usize) {
        debug_assert!(tid < self.n);
        // Episode this thread is completing: one past its own arrive count.
        let episode = self.arrive[tid].load(Ordering::Relaxed) + 1;
        // Wait for both children's subtrees to finish this episode.
        for child in [2 * tid + 1, 2 * tid + 2] {
            if child < self.n {
                let mut spins = 0;
                while self.arrive[child].load(Ordering::Acquire) < episode {
                    spins = spin_wait(spins);
                }
            }
        }
        // Publish our own (and our subtree's) arrival.
        self.arrive[tid].store(episode, Ordering::Release);
        if tid == 0 {
            self.release.store(episode, Ordering::Release);
        } else {
            let mut spins = 0;
            while self.release.load(Ordering::Acquire) < episode {
                spins = spin_wait(spins);
            }
        }
    }

    fn num_threads(&self) -> usize {
        self.n
    }
}

// ---------------------------------------------------------------------------
// Dissemination
// ---------------------------------------------------------------------------

/// Dissemination barrier: ⌈log₂ n⌉ rounds; in round `r` thread `i` signals
/// thread `(i + 2^r) mod n` and waits to have been signalled itself. Each
/// `(round, receiver)` pair has a dedicated monotone counter, so no location
/// is written by more than one thread per episode.
pub struct DisseminationBarrier {
    n: usize,
    rounds: usize,
    /// `flags[r][i]`: how many episodes in which thread `i` has been
    /// signalled in round `r`.
    flags: Vec<Vec<CachePadded<AtomicU64>>>,
    /// Per-thread episode counters (only the owner writes).
    episode: Vec<CachePadded<AtomicU64>>,
}

impl DisseminationBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let rounds = usize::BITS as usize - (n - 1).leading_zeros() as usize;
        let rounds = if n == 1 { 0 } else { rounds };
        DisseminationBarrier {
            n,
            rounds,
            flags: (0..rounds)
                .map(|_| (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect())
                .collect(),
            episode: (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect(),
        }
    }
}

impl Barrier for DisseminationBarrier {
    fn wait(&self, tid: usize) {
        debug_assert!(tid < self.n);
        let episode = self.episode[tid].load(Ordering::Relaxed) + 1;
        for r in 0..self.rounds {
            let partner = (tid + (1 << r)) % self.n;
            self.flags[r][partner].fetch_add(1, Ordering::AcqRel);
            let mut spins = 0;
            while self.flags[r][tid].load(Ordering::Acquire) < episode {
                spins = spin_wait(spins);
            }
        }
        self.episode[tid].store(episode, Ordering::Relaxed);
    }

    fn num_threads(&self) -> usize {
        self.n
    }
}

// ---------------------------------------------------------------------------
// Abortable (fault-aware central)
// ---------------------------------------------------------------------------

/// A cancellable central barrier, the fault-aware mirror of
/// [`CentralBarrier`]: waiters periodically evaluate a cancel condition,
/// so a phase abandoned by a panicked (or departed) team member surfaces
/// an error to the survivors instead of hanging them forever.
///
/// The cancel condition is only consulted while the phase is *incomplete*:
/// once the last thread arrives, every waiter completes the phase even if
/// a cancel condition was raised concurrently — completed phases stay
/// completed. A cancelled waiter withdraws its arrival, so the abort is
/// symmetric: either the whole team passes, or every blocked survivor
/// reports the cancel error.
pub struct AbortableBarrier {
    n: usize,
    state: Mutex<CentralState>,
    cv: Condvar,
}

impl AbortableBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a barrier needs at least one thread");
        AbortableBarrier {
            n,
            state: Mutex::new(CentralState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` threads arrive for this phase, or until
    /// `cancel` reports an error. The condition is re-checked on every
    /// wake-up and at least every few milliseconds; use
    /// [`AbortableBarrier::poke`] to force an immediate re-check.
    pub fn wait(&self, cancel: impl Fn() -> Option<Error>) -> Result<()> {
        let mut st = self.state.lock();
        let my_gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return Ok(());
        }
        loop {
            // Release condition first: a completed phase beats a
            // concurrently-raised cancel condition.
            if st.generation != my_gen {
                return Ok(());
            }
            if let Some(err) = cancel() {
                st.arrived -= 1;
                return Err(err);
            }
            self.cv.wait_for(&mut st, Duration::from_millis(5));
        }
    }

    /// Wake every waiter so it re-evaluates its cancel condition now
    /// (called when a team member panics or leaves the region).
    pub fn poke(&self) {
        self.cv.notify_all();
    }

    /// Team size this barrier was built for.
    pub fn num_threads(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Drive `phases` barrier episodes with `n` threads and assert the
    /// fundamental barrier property: at the moment any thread leaves phase
    /// `p`, all `n` threads have finished their pre-barrier work of phase
    /// `p`.
    fn exercise(barrier: Arc<dyn Barrier>, n: usize, phases: usize) {
        let before = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for tid in 0..n {
                let barrier = Arc::clone(&barrier);
                let before = &before;
                scope.spawn(move || {
                    for phase in 0..phases {
                        before.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(tid);
                        // Everyone must have done `before` for this phase.
                        let seen = before.load(Ordering::SeqCst);
                        assert!(
                            seen >= (phase + 1) * n,
                            "phase {phase}: saw only {seen} arrivals"
                        );
                        barrier.wait(tid); // phase-exit barrier keeps counts aligned
                    }
                });
            }
        });
        assert_eq!(before.load(Ordering::SeqCst), n * phases);
    }

    #[test]
    fn all_kinds_synchronize_various_team_sizes() {
        for kind in BarrierKind::ALL {
            for n in [1, 2, 3, 4, 5, 8] {
                exercise(kind.build(n), n, 5);
            }
        }
    }

    #[test]
    fn reusable_over_many_phases() {
        for kind in BarrierKind::ALL {
            exercise(kind.build(4), 4, 50);
        }
    }

    #[test]
    fn single_thread_barrier_is_a_noop() {
        for kind in BarrierKind::ALL {
            let b = kind.build(1);
            for _ in 0..10 {
                b.wait(0);
            }
            assert_eq!(b.num_threads(), 1);
        }
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: Vec<_> = BarrierKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = BarrierKind::Central.build(0);
    }

    #[test]
    fn abortable_barrier_completes_when_all_arrive() {
        let b = AbortableBarrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let b = &b;
                scope.spawn(move || {
                    for _ in 0..10 {
                        b.wait(|| None).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn abortable_barrier_cancel_releases_waiters() {
        use std::sync::atomic::AtomicBool;
        let b = AbortableBarrier::new(3);
        let abort = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (b, abort) = (&b, &abort);
                handles.push(scope.spawn(move || {
                    b.wait(|| {
                        abort.load(Ordering::SeqCst).then(|| Error::TaskPanicked {
                            task: 9,
                            message: "x".into(),
                        })
                    })
                }));
            }
            // The third member never arrives; raise the cancel condition.
            std::thread::sleep(Duration::from_millis(20));
            abort.store(true, Ordering::SeqCst);
            b.poke();
            for h in handles {
                let err = h.join().unwrap().unwrap_err();
                assert!(matches!(err, Error::TaskPanicked { task: 9, .. }));
            }
        });
    }

    #[test]
    fn abortable_barrier_phase_completion_beats_cancel() {
        // A completing arrival wins over a raised cancel condition: the
        // sole member of a 1-thread barrier completes the phase on
        // arrival, so its (permanently true) cancel is never consulted.
        let b = AbortableBarrier::new(1);
        b.wait(|| {
            Some(Error::TaskPanicked {
                task: 0,
                message: "never seen".into(),
            })
        })
        .unwrap();
        assert_eq!(b.num_threads(), 1);
    }

    #[test]
    fn dissemination_rounds_counts() {
        assert_eq!(DisseminationBarrier::new(1).rounds, 0);
        assert_eq!(DisseminationBarrier::new(2).rounds, 1);
        assert_eq!(DisseminationBarrier::new(3).rounds, 2);
        assert_eq!(DisseminationBarrier::new(4).rounds, 2);
        assert_eq!(DisseminationBarrier::new(5).rounds, 3);
        assert_eq!(DisseminationBarrier::new(8).rounds, 3);
        assert_eq!(DisseminationBarrier::new(9).rounds, 4);
    }
}
