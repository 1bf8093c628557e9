//! Higher-level pattern helpers: *Fork-Join* and *Master-Worker*.
//!
//! The paper lists Fork-Join (OpenMP and Pthreads) and Master-Worker
//! patternlets among its collection (§III.E). These helpers package the
//! patterns as library calls:
//!
//! * [`fork_join`] — run heterogeneous closures concurrently and join them
//!   all, returning their results (the Pthreads `pthread_create` /
//!   `pthread_join` shape).
//! * [`MasterWorker`] — a work queue: a pool of workers claims the
//!   master's items one at a time from a shared cursor, and results flow
//!   back to the master.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fork each closure onto its own thread, join all, and return the results
/// in argument order. Panics propagate after all threads complete.
pub fn fork_join<R: Send>(tasks: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.into_iter().map(|t| scope.spawn(t)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("forked task panicked"))
            .collect()
    })
}

/// Two-closure fork-join, Rayon's `join` shape: run `a` and `b` in
/// parallel, return both results.
pub fn join2<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("joined task panicked"))
    })
}

/// The *Master-Worker* pattern: `n_workers` worker threads take the
/// master's work items one at a time and hand back `(worker_id, result)`
/// pairs.
pub struct MasterWorker;

impl MasterWorker {
    /// Process `items` with `n_workers` workers applying `work`. A worker
    /// asks for more work by claiming the next index from a shared cursor,
    /// and reads the item in place. Results are returned as
    /// `(worker_id, item_index, result)` tuples in completion order, so
    /// callers can observe both the answer and the (nondeterministic)
    /// division of labour.
    pub fn run<T, R, F>(n_workers: usize, items: Vec<T>, work: F) -> Vec<(usize, usize, R)>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        assert!(n_workers > 0, "need at least one worker");
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            for wid in 0..n_workers {
                let (items, next, results, work) = (&items, &next, &results, &work);
                scope.spawn(move || loop {
                    // Relaxed: the cursor publishes no data (the items are
                    // read-only); the RMW alone hands each index out once.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = work(item);
                    results.lock().push((wid, i, r));
                });
            }
        });
        results.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_join_returns_results_in_argument_order() {
        let out = fork_join(vec![
            Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
            Box::new(|| 2),
            Box::new(|| 3),
        ]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn fork_join_actually_runs_concurrently_or_at_least_all() {
        let count = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let count = &count;
                Box::new(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                    i * i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = fork_join(tasks);
        assert_eq!(count.load(Ordering::Relaxed), 8);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn join2_returns_both() {
        let (a, b) = join2(|| "left", || 42);
        assert_eq!(a, "left");
        assert_eq!(b, 42);
    }

    #[test]
    fn master_worker_processes_every_item_once() {
        let items: Vec<u64> = (0..50).collect();
        let results = MasterWorker::run(4, items, |&x| x * 2);
        assert_eq!(results.len(), 50);
        let mut by_index: Vec<(usize, u64)> = results.iter().map(|&(_, i, r)| (i, r)).collect();
        by_index.sort_unstable();
        for (i, (idx, r)) in by_index.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*r, (i as u64) * 2);
        }
        // Worker ids are within range.
        assert!(results.iter().all(|&(w, _, _)| w < 4));
    }

    #[test]
    fn master_worker_single_worker_is_sequentialish() {
        let results = MasterWorker::run(1, vec![1, 2, 3], |&x: &i32| x + 1);
        assert!(results.iter().all(|&(w, _, _)| w == 0));
        let mut rs: Vec<i32> = results.iter().map(|&(_, _, r)| r).collect();
        rs.sort_unstable();
        assert_eq!(rs, vec![2, 3, 4]);
    }

    #[test]
    fn master_worker_empty_items() {
        let results = MasterWorker::run(3, Vec::<i32>::new(), |&x| x);
        assert!(results.is_empty());
    }

    #[test]
    fn master_worker_claims_every_index_once_at_every_team_size() {
        for workers in 1..=8usize {
            // No items, fewer items than workers, and several per worker.
            for n in [0, 1, workers - 1, workers, 3 * workers + 1, 200] {
                let items: Vec<usize> = (0..n).collect();
                let results = MasterWorker::run(workers, items, |&x| x * 10);
                let mut claims = vec![0; n];
                for &(w, i, r) in &results {
                    assert!(w < workers);
                    assert_eq!(r, i * 10);
                    claims[i] += 1;
                }
                assert!(
                    claims.iter().all(|&c| c == 1),
                    "{workers} workers, {n} items: {claims:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn master_worker_zero_workers_rejected() {
        let _ = MasterWorker::run(0, vec![1], |&x: &i32| x);
    }
}
