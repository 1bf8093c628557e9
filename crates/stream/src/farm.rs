//! The task farm: one input stream fanned out to N replicated workers.
//!
//! The farm is the streaming form of master-worker, built the FastFlow
//! way from 1:1 [`spsc_edge`](crate::spsc_edge)s only: each worker owns
//! a work edge from the **emitter** and a result edge to the
//! **collector** (the calling thread). The emitter deals blocks of
//! `batch_for(capacity)` items round-robin, FastFlow's default: block `b`
//! goes to worker `b % N`. The collector reads block `b` back from result
//! edge `b % N`, in full, and then moves to the next edge. A worker's
//! output is FIFO, so that is emission order without sequence numbers or
//! a reorder buffer: the farm never reorders. Only the last block can be
//! short, so end-of-stream on the edge being read ends the pass. All
//! threads are scoped, so the worker closure may borrow from the
//! caller's stack.
//!
//! The farm cannot deadlock. The collector only ever waits for the
//! oldest block it has not delivered, `b`, and the emitter queued `b` in
//! full before any later block. Every earlier block of worker `b % N` is
//! delivered, so `b`'s items head that worker's work edge and its results
//! head the result edge: the worker pops what the emitter pushes, and
//! the collector pops what the worker pushes.
//!
//! [`farm_feedback`] adds the feedback edge: workers receive a
//! [`Feedback`] handle and may inject *new* work items into their own
//! input queue. That turns the farm into a dynamic task pool — wavefront
//! sweeps and divide-and-conquer both reduce to it. Termination is the
//! interesting part: EOS-by-sender-drop cannot work on a cycle (workers
//! hold senders forever), so the farm counts **in-flight items** — seeds
//! plus injections minus completions — and the worker that finishes the
//! last one closes the queue for everyone.

use crate::channel::{batch_for, bounded, unbounded, Sender};
use crate::spsc_edge::spsc_edge;
use crate::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shape of a farm run.
#[derive(Clone)]
pub struct FarmConfig {
    /// Replicated worker count (minimum 1).
    pub workers: usize,
    /// Capacity of each work and result queue.
    pub capacity: usize,
    /// Kept for callers that state their intent: `run_farm` delivers in
    /// emission order either way, and `farm_feedback` in completion order.
    pub ordered: bool,
    /// Observability hooks for every queue.
    pub obs: Obs,
    /// First queue id: work queues report on `queue_base`, result queues
    /// on `queue_base + 1` (so two farms can share one metrics hub).
    pub queue_base: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            workers: 4,
            capacity: 64,
            ordered: true,
            obs: Obs::none(),
            queue_base: 0,
        }
    }
}

/// Run `worker` over every item of `input` on `cfg.workers` threads,
/// feeding each result to `collect` on the calling thread, in emission
/// order whatever `cfg.ordered` says.
///
/// Trace lanes: emitter 0, workers `1..=N`, collector `N + 1`.
pub fn run_farm<T, U, I, W, C>(cfg: &FarmConfig, input: I, worker: W, mut collect: C)
where
    T: Send,
    U: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    W: Fn(T) -> U + Sync,
    C: FnMut(U),
{
    let workers = cfg.workers.max(1);
    let capacity = cfg.capacity.max(1);
    let (work_txs, work_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| spsc_edge(capacity, cfg.queue_base, &cfg.obs))
        .unzip();
    let (res_txs, res_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| spsc_edge(capacity, cfg.queue_base + 1, &cfg.obs))
        .unzip();
    let chunk = batch_for(capacity);
    // Fused: after a short block the emitter asks once more, and a
    // resumed iterator would deal items the collector never reads.
    let mut input = input.into_iter().fuse();
    std::thread::scope(|s| {
        // The work senders are on lane 0, the emitter's, from birth.
        s.spawn(move || {
            let mut block = Vec::with_capacity(chunk);
            for tx in work_txs.iter().cycle() {
                block.extend(input.by_ref().take(chunk));
                if block.is_empty() || !tx.send_many(block.drain(..)) {
                    return;
                }
            }
        });
        for (w, (rx, tx)) in work_rxs.into_iter().zip(res_txs).enumerate() {
            let (rx, tx) = (rx.for_lane(w + 1), tx.for_lane(w + 1));
            let worker = &worker;
            s.spawn(move || {
                let mut out = Vec::with_capacity(chunk);
                while let Some(batch) = rx.recv_many(chunk) {
                    out.extend(batch.into_iter().map(worker));
                    if !tx.send_many(out.drain(..)) {
                        break;
                    }
                }
            });
        }
        let res_rxs: Vec<_> = res_rxs
            .into_iter()
            .map(|rx| rx.for_lane(workers + 1))
            .collect();
        'pass: for rx in res_rxs.iter().cycle() {
            let mut left = chunk;
            while left > 0 {
                let Some(batch) = rx.recv_many(left) else {
                    break 'pass;
                };
                left -= batch.len();
                batch.into_iter().for_each(&mut collect);
            }
        }
    });
}

/// A worker's handle onto its own input queue: the feedback edge.
pub struct Feedback<T> {
    tx: Sender<T>,
    in_flight: AtomicUsizeRef,
}

type AtomicUsizeRef = std::sync::Arc<AtomicUsize>;

impl<T> Feedback<T> {
    /// Inject a new work item into the farm. The in-flight count is
    /// raised *before* the push, so the farm cannot observe a momentary
    /// zero between a parent finishing and its children arriving.
    pub fn inject(&self, item: T) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.tx.send(item);
    }
}

/// A farm whose workers can inject follow-on work: seeds go in, every
/// item (seed or injected) is handed to `worker` exactly once, and each
/// `Some` return value is gathered into the result (completion order —
/// there is no stable emission order on a cycle to restore).
///
/// The run ends when the in-flight count — seeds plus injections minus
/// completed items — reaches zero; the worker that zeroes it closes the
/// queue, which releases every parked worker through EOS.
pub fn farm_feedback<T, U, W>(cfg: &FarmConfig, seeds: Vec<T>, worker: W) -> Vec<U>
where
    T: Send,
    U: Send,
    W: Fn(T, &Feedback<T>) -> Option<U> + Sync,
{
    let workers = cfg.workers.max(1);
    // The feedback edge must be unbounded: a bounded cycle deadlocks when
    // every worker is blocked pushing and none is left popping.
    let (work_tx, work_rx) = unbounded::<T>(cfg.queue_base, &cfg.obs);
    let (res_tx, res_rx) = bounded::<U>(cfg.capacity.max(1), cfg.queue_base + 1, &cfg.obs);
    let in_flight: AtomicUsizeRef = std::sync::Arc::new(AtomicUsize::new(seeds.len()));
    if seeds.is_empty() {
        return Vec::new();
    }
    for seed in seeds {
        work_tx.send(seed);
    }
    let mut results = Vec::new();
    std::thread::scope(|s| {
        for w in 0..workers {
            let rx = work_rx.for_lane(w + 1);
            let feedback = Feedback {
                tx: work_tx.for_lane(w + 1),
                in_flight: std::sync::Arc::clone(&in_flight),
            };
            let tx = res_tx.for_lane(w + 1);
            let worker = &worker;
            s.spawn(move || {
                while let Some(item) = rx.recv() {
                    let out = worker(item, &feedback);
                    if let Some(result) = out {
                        if !tx.send(result) {
                            break;
                        }
                    }
                    if feedback.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last in-flight item: the stream is over for all.
                        feedback.tx.close();
                    }
                }
            });
        }
        drop(work_tx);
        drop(work_rx);
        drop(res_tx);
        let res_rx = res_rx.for_lane(workers + 1);
        while let Some(result) = res_rx.recv() {
            results.push(result);
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternlets_metrics::{CounterId, GaugeId, MetricsHub};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn an_ordered_farm_restores_emission_order() {
        let mut out = Vec::new();
        let cfg = FarmConfig {
            workers: 8,
            capacity: 4,
            ordered: true,
            ..FarmConfig::default()
        };
        run_farm(
            &cfg,
            0..2000u64,
            |x| {
                // Jittered work so completion order scrambles.
                if x % 17 == 0 {
                    std::thread::yield_now();
                }
                x * x
            },
            |r| out.push(r),
        );
        let expected: Vec<u64> = (0..2000).map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn an_unordered_farm_loses_order_but_nothing_else() {
        let mut out = Vec::new();
        let cfg = FarmConfig {
            workers: 6,
            ordered: false,
            ..FarmConfig::default()
        };
        run_farm(&cfg, 0..1000u32, |x| x, |r| out.push(r));
        out.sort_unstable();
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn a_one_worker_farm_degenerates_to_a_serial_map() {
        let mut out = Vec::new();
        let cfg = FarmConfig {
            workers: 1,
            ..FarmConfig::default()
        };
        run_farm(&cfg, vec![3, 1, 4, 1, 5], |x: i32| x + 10, |r| out.push(r));
        assert_eq!(out, vec![13, 11, 14, 11, 15]);
    }

    #[test]
    fn workers_may_borrow_from_the_callers_stack() {
        let table = vec![10, 20, 30];
        let mut out = Vec::new();
        run_farm(
            &FarmConfig::default(),
            0..3usize,
            |i| table[i],
            |r| out.push(r),
        );
        assert_eq!(out, table);
    }

    #[test]
    fn output_is_in_emission_order_at_every_shape() {
        for capacity in [1, 4, 64] {
            let block = batch_for(capacity);
            for workers in 1..=8 {
                for items in [0, 1, block - 1, block, workers * block + 1] {
                    for ordered in [true, false] {
                        let cfg = FarmConfig {
                            workers,
                            capacity,
                            ordered,
                            ..FarmConfig::default()
                        };
                        let mut out = Vec::new();
                        let jittered = |x: usize| {
                            if x.is_multiple_of(7) {
                                std::thread::yield_now();
                            }
                            x * 3
                        };
                        run_farm(&cfg, 0..items, jittered, |r| out.push(r));
                        assert_eq!(
                            out,
                            (0..items).map(|x| x * 3).collect::<Vec<_>>(),
                            "{workers} workers, capacity {capacity}, {items} items, \
                             ordered {ordered}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_panicking_worker_ends_the_pass_and_every_item_drops_once() {
        struct Counted(usize, Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let made = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let (m, d) = (Arc::clone(&made), Arc::clone(&dropped));
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cfg = FarmConfig {
                workers: 3,
                capacity: 4,
                ..FarmConfig::default()
            };
            let input = (0..1000).map(move |i| {
                m.fetch_add(1, Ordering::SeqCst);
                Counted(i, Arc::clone(&d))
            });
            let fail_midway = |c: Counted| {
                assert_ne!(c.0, 500, "the worker fails on item 500");
                c
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                run_farm(&cfg, input, fail_midway, drop)
            }));
            done_tx.send(outcome.is_err()).unwrap();
        });
        let panicked = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("run_farm returns within the deadline");
        assert!(panicked, "the worker's panic reaches the caller");
        assert!(made.load(Ordering::SeqCst) > 500);
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            made.load(Ordering::SeqCst),
            "every item made was dropped exactly once"
        );
    }

    #[test]
    fn every_item_crosses_one_work_and_one_result_edge() {
        let hub = MetricsHub::new();
        let cfg = FarmConfig {
            workers: 3,
            capacity: 8,
            obs: Obs {
                tracer: None,
                metrics: Some(hub.clone()),
            },
            queue_base: 5,
            ..FarmConfig::default()
        };
        run_farm(&cfg, 0..1000u32, |x| x, drop);
        let snap = hub.snapshot();
        let items_in = |q| {
            snap.lane(q)
                .map_or(0, |l| l.counter(CounterId::StreamItemsIn))
        };
        assert_eq!((items_in(5), items_in(6)), (1000, 1000));
        assert_eq!(snap.total(CounterId::StreamItemsIn), 2000);
        assert!(snap.total_max(GaugeId::StreamQueueDepth) <= 8, "bound held");
    }

    #[test]
    fn feedback_injection_processes_the_whole_tree_exactly_once() {
        // Each item n < 100 injects 2n+1 and 2n+2: a binary tree rooted
        // at 0 with every node < 100 internal. All nodes must be visited.
        let cfg = FarmConfig {
            workers: 4,
            ..FarmConfig::default()
        };
        let mut visited = farm_feedback(&cfg, vec![0u32], |n, fb| {
            if n < 100 {
                fb.inject(2 * n + 1);
                fb.inject(2 * n + 2);
            }
            Some(n)
        });
        visited.sort_unstable();
        let mut expected: Vec<u32> = (0..=200).collect();
        expected.sort_unstable();
        assert_eq!(visited, expected);
    }

    #[test]
    fn feedback_with_no_seeds_returns_immediately() {
        let out: Vec<u8> = farm_feedback(&FarmConfig::default(), Vec::<u8>::new(), |x, _| Some(x));
        assert!(out.is_empty());
    }

    #[test]
    fn feedback_workers_can_filter_results() {
        // Count down from each seed, only the zeros are emitted.
        let cfg = FarmConfig {
            workers: 3,
            ..FarmConfig::default()
        };
        let out = farm_feedback(&cfg, vec![5u32, 3, 8], |n, fb| {
            if n == 0 {
                Some(0u32)
            } else {
                fb.inject(n - 1);
                None
            }
        });
        assert_eq!(out, vec![0, 0, 0]);
    }
}
