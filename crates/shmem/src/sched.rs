//! Loop-iteration scheduling — the *Parallel Loop* pattern (paper §III.C).
//!
//! The paper demonstrates two static schedules (`parallelLoopEqualChunks`,
//! `parallelLoopChunksOf1`) and mentions patternlets for "different chunk
//! sizes or scheduling algorithms" (§III.E). We implement the full OpenMP
//! schedule family:
//!
//! * [`Schedule::StaticBlock`] — `schedule(static)`: one contiguous
//!   equal-size chunk per thread, `chunk = ⌈len / n⌉` exactly as the paper's
//!   Figure 16 computes it (with proper clamping at the end of the range).
//! * [`Schedule::StaticCyclic`] — `schedule(static,1)`: iteration `i` goes
//!   to thread `i mod n`.
//! * [`Schedule::StaticChunked(k)`](Schedule::StaticChunked) — `schedule(static,k)`: chunks of `k`
//!   dealt round-robin.
//! * [`Schedule::Dynamic(k)`](Schedule::Dynamic) — `schedule(dynamic,k)`: chunks of `k` claimed
//!   first-come-first-served from a shared atomic counter.
//! * [`Schedule::Guided(k)`](Schedule::Guided) — `schedule(guided,k)`: each claim takes
//!   `max(k, remaining / n)` iterations, so chunks shrink as the loop
//!   drains.
//!
//! Every schedule *partitions* the iteration space: each index is executed
//! exactly once, whatever the team size (property-tested below).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An OpenMP-style loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous block of `⌈len/n⌉` iterations per thread.
    StaticBlock,
    /// Round-robin single iterations (`schedule(static,1)`).
    StaticCyclic,
    /// Round-robin chunks of the given size (`schedule(static,k)`).
    StaticChunked(usize),
    /// First-come chunks of the given size (`schedule(dynamic,k)`).
    Dynamic(usize),
    /// Shrinking chunks, at least the given size (`schedule(guided,k)`).
    Guided(usize),
}

impl Schedule {
    /// Name for reports and bench labels.
    pub fn name(&self) -> String {
        match self {
            Schedule::StaticBlock => "static-block".into(),
            Schedule::StaticCyclic => "static-cyclic".into(),
            Schedule::StaticChunked(k) => format!("static-chunked({k})"),
            Schedule::Dynamic(k) => format!("dynamic({k})"),
            Schedule::Guided(k) => format!("guided({k})"),
        }
    }

    /// Is the iteration→thread mapping fixed before execution?
    pub fn is_static(&self) -> bool {
        matches!(
            self,
            Schedule::StaticBlock | Schedule::StaticCyclic | Schedule::StaticChunked(_)
        )
    }
}

/// Per-thread scheduling cursor; cheap and reused across chunks.
#[derive(Debug, Default, Clone)]
pub struct Cursor {
    /// For static schedules: how many chunks this thread has already taken.
    taken: usize,
    /// For `StaticBlock`: whether the single block was taken.
    done: bool,
}

impl Cursor {
    /// Fresh cursor for the start of a loop.
    pub fn new() -> Self {
        Cursor::default()
    }
}

/// Shared per-loop scheduler: threads pull chunks until exhaustion.
///
/// ```
/// use patternlets_shmem::sched::{LoopScheduler, Schedule, Cursor};
/// let sched = LoopScheduler::new(Schedule::StaticBlock, 8, 2);
/// let mut cur = Cursor::new();
/// assert_eq!(sched.next_chunk(0, &mut cur), Some(0..4));
/// assert_eq!(sched.next_chunk(0, &mut cur), None);
/// ```
pub struct LoopScheduler {
    kind: Schedule,
    len: usize,
    n_threads: usize,
    /// Shared claim counter for dynamic/guided.
    next: AtomicUsize,
}

impl LoopScheduler {
    /// Scheduler for `len` iterations over `n_threads` threads.
    pub fn new(kind: Schedule, len: usize, n_threads: usize) -> Self {
        assert!(n_threads > 0, "scheduler needs at least one thread");
        if let Schedule::StaticChunked(k) | Schedule::Dynamic(k) | Schedule::Guided(k) = kind {
            assert!(k > 0, "chunk size must be positive");
        }
        LoopScheduler {
            kind,
            len,
            n_threads,
            next: AtomicUsize::new(0),
        }
    }

    /// The iteration-space length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the loop has no iterations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Claim the next chunk for thread `tid`. Returns `None` when this
    /// thread has no more work.
    pub fn next_chunk(&self, tid: usize, cursor: &mut Cursor) -> Option<Range<usize>> {
        debug_assert!(tid < self.n_threads);
        match self.kind {
            Schedule::StaticBlock => {
                if cursor.done {
                    return None;
                }
                cursor.done = true;
                let chunk = self.len.div_ceil(self.n_threads);
                let start = tid.saturating_mul(chunk).min(self.len);
                let stop = (tid + 1).saturating_mul(chunk).min(self.len);
                if start >= stop {
                    None
                } else {
                    Some(start..stop)
                }
            }
            Schedule::StaticCyclic => self.static_chunked(1, tid, cursor),
            Schedule::StaticChunked(k) => self.static_chunked(k, tid, cursor),
            Schedule::Dynamic(k) => {
                // Claim by fetch_update rather than fetch_add: the counter
                // never grows past `len`, so calls after exhaustion (or a
                // huge `k`) can never wrap it back into the iteration
                // space and re-issue work.
                let start = self
                    .next
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                        (cur < self.len).then(|| cur.saturating_add(k).min(self.len))
                    })
                    .ok()?;
                Some(start..start.saturating_add(k).min(self.len))
            }
            Schedule::Guided(k) => loop {
                let start = self.next.load(Ordering::Relaxed);
                if start >= self.len {
                    return None;
                }
                let remaining = self.len - start;
                let take = (remaining / self.n_threads).max(k).min(remaining);
                if self
                    .next
                    .compare_exchange_weak(
                        start,
                        start + take,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return Some(start..start + take);
                }
            },
        }
    }

    fn static_chunked(&self, k: usize, tid: usize, cursor: &mut Cursor) -> Option<Range<usize>> {
        // The `cursor.taken`-th chunk owned by `tid` starts at
        // (tid + taken * n) * k. A multiply that overflows means the true
        // start lies beyond `usize::MAX >= len`, so no iterations remain
        // for this thread — and since starts grow with `taken`, none
        // remain for any later chunk either.
        let chunk_index = tid.checked_add(cursor.taken.checked_mul(self.n_threads)?)?;
        let start = chunk_index.checked_mul(k)?;
        if start >= self.len {
            return None;
        }
        cursor.taken += 1;
        // Saturate the end: `start + k` can overflow for huge `k`, and a
        // wrapped end would silently drop the iterations `start..len`.
        Some(start..start.saturating_add(k).min(self.len))
    }

    /// All indices thread `tid` would execute, in order. For static
    /// schedules this is the exact mapping; for dynamic/guided it reflects
    /// one single-threaded draining and is only meaningful in tests.
    pub fn indices_for(&self, tid: usize) -> Vec<usize> {
        let mut cur = Cursor::new();
        let mut out = Vec::new();
        while let Some(r) = self.next_chunk(tid, &mut cur) {
            out.extend(r);
        }
        out
    }
}

/// The full static iteration→thread mapping: `map[i]` is the thread that
/// executes iteration `i`. Panics for non-static schedules.
pub fn static_map(kind: Schedule, len: usize, n_threads: usize) -> Vec<usize> {
    assert!(kind.is_static(), "static_map requires a static schedule");
    let mut map = vec![usize::MAX; len];
    for tid in 0..n_threads {
        let sched = LoopScheduler::new(kind, len, n_threads);
        for i in sched.indices_for(tid) {
            debug_assert_eq!(map[i], usize::MAX, "iteration {i} double-assigned");
            map[i] = tid;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn static_block_matches_paper_figures_14_15() {
        // Paper Fig. 14: 1 thread does iterations 0..8.
        assert_eq!(static_map(Schedule::StaticBlock, 8, 1), vec![0; 8]);
        // Paper Fig. 15: thread 0 does 0..4, thread 1 does 4..8.
        assert_eq!(
            static_map(Schedule::StaticBlock, 8, 2),
            vec![0, 0, 0, 0, 1, 1, 1, 1]
        );
        // Paper Fig. 18 (MPI, 4 processes): pairs.
        assert_eq!(
            static_map(Schedule::StaticBlock, 8, 4),
            vec![0, 0, 1, 1, 2, 2, 3, 3]
        );
    }

    #[test]
    fn static_block_clamps_ragged_ends() {
        // len=5, n=4 → chunk=2: threads get [0,2),[2,4),[4,5),∅.
        let map = static_map(Schedule::StaticBlock, 5, 4);
        assert_eq!(map, vec![0, 0, 1, 1, 2]);
        // More threads than iterations.
        let map = static_map(Schedule::StaticBlock, 3, 8);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn static_cyclic_deals_round_robin() {
        assert_eq!(
            static_map(Schedule::StaticCyclic, 8, 3),
            vec![0, 1, 2, 0, 1, 2, 0, 1]
        );
    }

    #[test]
    fn static_chunked_deals_chunks_round_robin() {
        assert_eq!(
            static_map(Schedule::StaticChunked(2), 10, 2),
            vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 0]
        );
        assert_eq!(
            static_map(Schedule::StaticChunked(3), 7, 2),
            vec![0, 0, 0, 1, 1, 1, 0]
        );
    }

    #[test]
    fn dynamic_drains_everything_single_threaded() {
        let sched = LoopScheduler::new(Schedule::Dynamic(3), 10, 4);
        let got = sched.indices_for(0);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn guided_chunks_shrink() {
        let sched = LoopScheduler::new(Schedule::Guided(1), 100, 4);
        let mut cur = Cursor::new();
        let mut sizes = Vec::new();
        while let Some(r) = sched.next_chunk(0, &mut cur) {
            sizes.push(r.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        // First chunk is remaining/n = 25; sizes never increase.
        assert_eq!(sizes[0], 25);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        // Tail chunks respect the minimum.
        assert!(*sizes.last().unwrap() >= 1);
    }

    #[test]
    fn dynamic_under_contention_partitions_exactly() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for kind in [Schedule::Dynamic(2), Schedule::Guided(1)] {
            let len = 1000;
            let n = 4;
            let sched = LoopScheduler::new(kind, len, n);
            let hits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            std::thread::scope(|scope| {
                for tid in 0..n {
                    let sched = &sched;
                    let hits = &hits;
                    scope.spawn(move || {
                        let mut cur = Cursor::new();
                        while let Some(r) = sched.next_chunk(tid, &mut cur) {
                            for i in r {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{:?} failed to partition",
                kind
            );
        }
    }

    #[test]
    fn empty_loop_yields_no_chunks() {
        for kind in [
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::StaticChunked(4),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            let sched = LoopScheduler::new(kind, 0, 3);
            assert!(sched.is_empty());
            for tid in 0..3 {
                assert!(sched.indices_for(tid).is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = LoopScheduler::new(Schedule::Dynamic(0), 10, 2);
    }

    #[test]
    fn guided_chunk_larger_than_len_takes_everything_at_once() {
        // k > len: the very first claim is clamped to the whole range —
        // no iteration lost, no out-of-range index issued.
        let sched = LoopScheduler::new(Schedule::Guided(500), 10, 4);
        let mut cur = Cursor::new();
        assert_eq!(sched.next_chunk(0, &mut cur), Some(0..10));
        assert_eq!(sched.next_chunk(0, &mut cur), None);
        for tid in 1..4 {
            assert!(sched.indices_for(tid).is_empty());
        }
    }

    #[test]
    fn repeated_claims_on_empty_loop_stay_none() {
        // len == 0: claiming must be a stable no-op, even thousands of
        // times (a dynamic counter that kept growing could eventually
        // wrap back into range).
        for kind in [
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::StaticChunked(3),
            Schedule::Dynamic(usize::MAX),
            Schedule::Guided(7),
        ] {
            let sched = LoopScheduler::new(kind, 0, 2);
            let mut cur = Cursor::new();
            for _ in 0..10_000 {
                assert_eq!(sched.next_chunk(0, &mut cur), None, "{kind:?}");
            }
        }
    }

    #[test]
    fn huge_chunk_sizes_do_not_overflow_the_chunk_end() {
        // Before the fix, `start + k` wrapped for k near usize::MAX and
        // the wrapped end silently emptied the chunk, losing iterations.
        let sched = LoopScheduler::new(Schedule::StaticChunked(usize::MAX), 10, 3);
        assert_eq!(sched.indices_for(0), (0..10).collect::<Vec<_>>());
        assert!(sched.indices_for(1).is_empty());
        assert!(sched.indices_for(2).is_empty());

        let sched = LoopScheduler::new(Schedule::Dynamic(usize::MAX), 10, 2);
        let mut cur = Cursor::new();
        assert_eq!(sched.next_chunk(0, &mut cur), Some(0..10));
        for _ in 0..1000 {
            assert_eq!(sched.next_chunk(1, &mut cur), None);
        }
    }

    #[test]
    fn static_chunked_mul_overflow_means_genuinely_exhausted() {
        // chunk_index * k overflowing usize means the true start exceeds
        // any possible `len`: the thread is out of work, and because chunk
        // starts grow with the cursor, no later chunk was skipped.
        let sched = LoopScheduler::new(Schedule::StaticChunked(usize::MAX), 10, 4);
        // tid 3's first chunk starts at 3 * usize::MAX: mul overflow.
        assert!(sched.indices_for(3).is_empty());
        // tid 0 still owns the whole (tiny) range.
        assert_eq!(sched.indices_for(0), (0..10).collect::<Vec<_>>());

        // A second chunk for tid 0 would start at 4 * usize::MAX — the
        // cursor path also hits the overflow and terminates cleanly.
        let mut cur = Cursor::new();
        assert_eq!(sched.next_chunk(0, &mut cur), Some(0..10));
        assert_eq!(sched.next_chunk(0, &mut cur), None);
    }

    #[test]
    fn dynamic_counter_never_wraps_after_exhaustion() {
        // Post-exhaustion claims used to keep fetch_add'ing the counter;
        // enough of them could wrap it back below `len` and re-issue
        // iterations. The fetch_update claim is bounded by `len` forever.
        let sched = LoopScheduler::new(Schedule::Dynamic(2), 6, 2);
        assert_eq!(sched.indices_for(0), vec![0, 1, 2, 3, 4, 5]);
        let mut cur = Cursor::new();
        for _ in 0..10_000 {
            assert_eq!(sched.next_chunk(1, &mut cur), None);
        }
    }

    #[test]
    fn schedule_names() {
        assert_eq!(Schedule::StaticBlock.name(), "static-block");
        assert_eq!(Schedule::Dynamic(4).name(), "dynamic(4)");
        assert!(Schedule::StaticBlock.is_static());
        assert!(!Schedule::Guided(1).is_static());
    }

    proptest! {
        /// Every static schedule assigns every iteration to exactly one
        /// thread, for arbitrary sizes and team sizes.
        #[test]
        fn static_schedules_partition(
            len in 0usize..200,
            n in 1usize..9,
            k in 1usize..7,
        ) {
            for kind in [
                Schedule::StaticBlock,
                Schedule::StaticCyclic,
                Schedule::StaticChunked(k),
            ] {
                let map = static_map(kind, len, n);
                prop_assert!(map.iter().all(|&t| t < n));
            }
        }

        /// StaticBlock gives each thread a contiguous range and threads
        /// appear in increasing order (the Fig. 15/18 shape).
        #[test]
        fn static_block_is_contiguous_and_ordered(
            len in 1usize..200,
            n in 1usize..9,
        ) {
            let map = static_map(Schedule::StaticBlock, len, n);
            prop_assert!(map.windows(2).all(|w| w[0] <= w[1]));
        }

        /// Dynamic scheduling drained by one thread visits 0..len in order.
        #[test]
        fn dynamic_single_drain_complete(len in 0usize..300, n in 1usize..9, k in 1usize..9) {
            let sched = LoopScheduler::new(Schedule::Dynamic(k), len, n);
            prop_assert_eq!(sched.indices_for(0), (0..len).collect::<Vec<_>>());
        }

        /// Guided likewise, and its chunk sizes never grow.
        #[test]
        fn guided_single_drain_complete(len in 0usize..300, n in 1usize..9, k in 1usize..9) {
            let sched = LoopScheduler::new(Schedule::Guided(k), len, n);
            let mut cur = Cursor::new();
            let mut all = Vec::new();
            let mut last = usize::MAX;
            while let Some(r) = sched.next_chunk(0, &mut cur) {
                prop_assert!(r.len() <= last);
                last = r.len();
                all.extend(r);
            }
            prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
        }
    }
}
