//! The bounded MPMC channel every stream patternlet is built from.
//!
//! Design constraints, in priority order:
//!
//! 1. **The bound is a hard invariant.** `send` on a full queue *blocks*
//!    until a consumer makes room — it never grows the queue, never drops
//!    the item, never spins. This is the backpressure that keeps a fast
//!    producer from burying a slow stage; the depth gauge can never read
//!    above the capacity, and the `channel_props` proptest pins that.
//! 2. **End-of-stream is unambiguous.** Senders are reference-counted;
//!    when the last one drops (or someone calls [`Sender::close`]) the
//!    channel stops accepting items, consumers drain what is queued, and
//!    then every `recv` returns `None` — the EOS token FastFlow threads
//!    through its queues, here encoded in the type instead of a sentinel
//!    value. Symmetrically, when every `Receiver` is gone, `send` returns
//!    `false` so producers of an abandoned stream stop instead of
//!    deadlocking against a queue nobody will ever drain.
//! 3. **Parking is amortisable.** One mutex guards the deque; two
//!    condvars (`not_full`, `not_empty`) park exactly the side that has
//!    to wait, and waiter counts let the uncontended path skip the
//!    `notify` syscall. That still leaves one wake per item when the two
//!    sides run in lock-step (the common case on few cores: the consumer
//!    pops from a full queue, so *every* pop must wake the parked
//!    producer — a syscall per item). [`Sender::send_many`] and
//!    [`Receiver::recv_many`] exist for exactly that: they move a whole
//!    batch per lock acquisition and pay one park/notify per *batch*,
//!    which is what keeps a trivial-work farm above a million items a
//!    second on a single core.

use crate::Obs;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Items the built-in executors (pipeline stages, farm workers and
/// collectors) move per lock acquisition via [`Sender::send_many`] /
/// [`Receiver::recv_many`]. On a machine with fewer cores than stage
/// threads the two sides of a queue run in lock-step, and an unbatched
/// transfer pays a park/notify *syscall per item*; batching amortises
/// that to one per `BATCH`, which is the difference between ~0.9M and
/// several million trivial items a second on one core.
pub(crate) const BATCH: usize = 32;

/// The per-transfer batch for a queue of `capacity` slots: [`BATCH`],
/// clamped to the capacity (min 1). The clamp aligns the transfer unit
/// with the queue bound: a receiver asking for a *full* queueful moves
/// everything available in one lock acquisition, so a small queue costs
/// one park/notify cycle per `capacity` items — the best it can do.
/// Clamping below capacity is actively harmful (a `capacity/2` batch
/// makes the consumer wake twice to drain one queueful, measured at
/// 0.69M vs 1.10M items/sec through a capacity-8 farm), and clamping
/// above it buys nothing: `send_many`/`recv_many` already move partial
/// batches, so the extra headroom never transfers.
pub(crate) fn batch_for(capacity: usize) -> usize {
    BATCH.min(capacity.max(1))
}

struct Inner<T> {
    items: VecDeque<T>,
    /// Set by [`Sender::close`] or the last `Sender` drop: no more items
    /// will ever be accepted (what is queued still drains).
    closed: bool,
    /// Producers currently parked on `not_full`.
    send_waiters: usize,
    /// Consumers currently parked on `not_empty`.
    recv_waiters: usize,
    /// The one-shot EOS trace event has been emitted.
    eos_traced: bool,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// Queue id: the metrics lane for this queue's counters and gauge.
    queue: usize,
    obs: Obs,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// The producing half. Cloneable; the channel reaches end-of-stream when
/// the last clone drops. Carries a stage id (`lane`) for trace attribution.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
    lane: usize,
}

/// The consuming half. Cloneable (MPMC): each queued item is delivered to
/// exactly one receiver.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    lane: usize,
}

/// A bounded channel of `capacity` slots. `queue` is the id under which
/// this queue's metrics are recorded (lane = queue id); `obs` carries the
/// tracer/metrics hooks, both optional.
pub fn bounded<T>(capacity: usize, queue: usize, obs: &Obs) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "a zero-capacity queue can never move an item");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            items: VecDeque::with_capacity(capacity.min(1024)),
            closed: false,
            send_waiters: 0,
            recv_waiters: 0,
            eos_traced: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity,
        queue,
        obs: obs.clone(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            lane: 0,
        },
        Receiver { shared, lane: 0 },
    )
}

/// An effectively unbounded channel: `send` never blocks on a full queue.
///
/// Exists for exactly one customer — the farm's **feedback edge**. A
/// cycle in the dataflow graph cannot use a bounded queue: if every
/// worker is blocked pushing feedback into a full queue, no worker is
/// left popping it, and the farm deadlocks. FastFlow makes its feedback
/// queues unbounded for the same reason; acyclic edges should always use
/// [`bounded`].
pub fn unbounded<T>(queue: usize, obs: &Obs) -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX, queue, obs)
}

impl<T> Sender<T> {
    /// A clone attributed to stage `lane` in the trace.
    pub fn for_lane(&self, lane: usize) -> Sender<T> {
        let mut s = self.clone();
        s.lane = lane;
        s
    }

    /// Push an item, blocking while the queue is full. Returns `false` —
    /// with the item dropped — if the channel is closed or every receiver
    /// is gone; `true` once the item is queued.
    pub fn send(&self, item: T) -> bool {
        let shared = &self.shared;
        let mut inner = shared.inner.lock();
        loop {
            if inner.closed || shared.receivers.load(Ordering::Acquire) == 0 {
                return false;
            }
            if inner.items.len() < shared.capacity {
                break;
            }
            inner.send_waiters += 1;
            shared.not_full.wait(&mut inner);
            inner.send_waiters -= 1;
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        debug_assert!(depth <= shared.capacity, "backpressure bound violated");
        let wake = inner.recv_waiters > 0;
        drop(inner);
        if wake {
            shared.not_empty.notify_one();
        }
        shared
            .obs
            .stage_push(self.lane, shared.queue, depth - 1, depth);
        true
    }

    /// Push a whole batch, blocking for room as needed, paying one lock
    /// acquisition and at most one wake per *queue-refill* instead of per
    /// item. The bound still holds at every instant: when the batch is
    /// larger than the free space, the surplus waits for consumers
    /// exactly as [`send`](Sender::send) would.
    ///
    /// Returns `false` if the channel closed or lost its last receiver
    /// part-way (remaining items are dropped), `true` once everything is
    /// queued. An empty batch is a no-op `true`.
    pub fn send_many(&self, items: impl IntoIterator<Item = T>) -> bool {
        let shared = &self.shared;
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let mut inner = shared.inner.lock();
            while inner.items.len() >= shared.capacity
                && !inner.closed
                && shared.receivers.load(Ordering::Relaxed) > 0
            {
                inner.send_waiters += 1;
                shared.not_full.wait(&mut inner);
                inner.send_waiters -= 1;
            }
            if inner.closed || shared.receivers.load(Ordering::Acquire) == 0 {
                return false;
            }
            let before = inner.items.len();
            while inner.items.len() < shared.capacity {
                match items.next() {
                    Some(item) => inner.items.push_back(item),
                    None => break,
                }
            }
            let after = inner.items.len();
            debug_assert!(after <= shared.capacity, "backpressure bound violated");
            let wake = inner.recv_waiters > 0;
            drop(inner);
            if wake {
                // The batch may be enough for several parked consumers.
                shared.not_empty.notify_all();
            }
            // One push event per item: the timeline reads the same
            // whether or not it was batched.
            shared
                .obs
                .stage_push(self.lane, shared.queue, before, after);
        }
        true
    }

    /// Close the channel explicitly: no further sends succeed (from any
    /// clone), queued items still drain. Idempotent.
    pub fn close(&self) {
        self.shared.close();
    }
}

impl<T> Receiver<T> {
    /// A clone attributed to stage `lane` in the trace.
    pub fn for_lane(&self, lane: usize) -> Receiver<T> {
        let mut r = self.clone();
        r.lane = lane;
        r
    }

    /// Pop an item, blocking while the queue is empty and producers are
    /// still live. Returns `None` exactly when the stream is over: closed
    /// (or all senders dropped) *and* fully drained.
    pub fn recv(&self) -> Option<T> {
        let shared = &self.shared;
        let mut inner = shared.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                let depth = inner.items.len();
                let wake = inner.send_waiters > 0;
                drop(inner);
                if wake {
                    shared.not_full.notify_one();
                }
                shared.obs.stage_pop(self.lane, shared.queue, depth + 1, 1);
                return Some(item);
            }
            if inner.closed || shared.senders.load(Ordering::Acquire) == 0 {
                if !inner.eos_traced {
                    inner.eos_traced = true;
                    drop(inner);
                    shared.obs.stage_eos(self.lane, shared.queue);
                }
                return None;
            }
            inner.recv_waiters += 1;
            shared.not_empty.wait(&mut inner);
            inner.recv_waiters -= 1;
        }
    }

    /// Pop up to `max` items in one lock acquisition, blocking while the
    /// queue is empty and producers are still live. Returns between 1 and
    /// `max` items, or `None` at end-of-stream — the batched form of
    /// [`recv`](Receiver::recv), paying one park/notify per batch.
    pub fn recv_many(&self, max: usize) -> Option<Vec<T>> {
        assert!(max > 0, "an empty batch can never make progress");
        let shared = &self.shared;
        let mut inner = shared.inner.lock();
        loop {
            if !inner.items.is_empty() {
                let before = inner.items.len();
                let take = before.min(max);
                let batch: Vec<T> = inner.items.drain(..take).collect();
                let wake = inner.send_waiters > 0;
                drop(inner);
                if wake {
                    // The drain may have made room for several parked
                    // producers.
                    shared.not_full.notify_all();
                }
                shared.obs.stage_pop(self.lane, shared.queue, before, take);
                return Some(batch);
            }
            if inner.closed || shared.senders.load(Ordering::Acquire) == 0 {
                if !inner.eos_traced {
                    inner.eos_traced = true;
                    drop(inner);
                    shared.obs.stage_eos(self.lane, shared.queue);
                }
                return None;
            }
            inner.recv_waiters += 1;
            shared.not_empty.wait(&mut inner);
            inner.recv_waiters -= 1;
        }
    }

    /// Non-blocking pop: `None` means "empty right now", not EOS.
    pub fn try_recv(&self) -> Option<T> {
        let shared = &self.shared;
        let mut inner = shared.inner.lock();
        let item = inner.items.pop_front()?;
        let depth = inner.items.len();
        let wake = inner.send_waiters > 0;
        drop(inner);
        if wake {
            shared.not_full.notify_one();
        }
        shared.obs.stage_pop(self.lane, shared.queue, depth + 1, 1);
        Some(item)
    }
}

impl<T> Shared<T> {
    fn close(&self) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        inner.closed = true;
        drop(inner);
        // Both sides may be parked: senders waiting for room must fail,
        // receivers waiting for items must drain-and-finish.
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            shared: Arc::clone(&self.shared),
            lane: self.lane,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last producer gone: consumers parked on an empty queue must
            // wake up to observe EOS. Take the lock so the count change
            // cannot slip between a receiver's check and its park.
            let _guard = self.shared.inner.lock();
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            shared: Arc::clone(&self.shared),
            lane: self.lane,
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last consumer gone: producers parked on a full queue must
            // wake up and abandon the stream.
            let _guard = self.shared.inner.lock();
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternlets_metrics::{CounterId, GaugeId};
    use patternlets_trace::EventKind;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn items_flow_in_order_spsc() {
        let (tx, rx) = bounded(4, 0, &Obs::none());
        let producer = thread::spawn(move || {
            for i in 0..100 {
                assert!(tx.send(i));
            }
        });
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn eos_after_last_sender_drops_even_with_items_queued() {
        let (tx, rx) = bounded(8, 0, &Obs::none());
        tx.send(1);
        tx.send(2);
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None); // EOS is sticky
    }

    #[test]
    fn a_full_queue_blocks_the_producer_until_a_pop() {
        let (tx, rx) = bounded(2, 0, &Obs::none());
        assert!(tx.send(1));
        assert!(tx.send(2));
        let unblocked = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&unblocked);
        let producer = thread::spawn(move || {
            assert!(tx.send(3)); // must block here: queue is full
            flag.store(1, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(unblocked.load(Ordering::SeqCst), 0, "send must be parked");
        assert_eq!(rx.recv(), Some(1)); // makes room
        producer.join().unwrap();
        assert_eq!(unblocked.load(Ordering::SeqCst), 1);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn send_fails_once_all_receivers_are_gone() {
        let (tx, rx) = bounded::<i32>(1, 0, &Obs::none());
        assert!(tx.send(1));
        drop(rx);
        assert!(!tx.send(2), "no receiver will ever drain this");
    }

    #[test]
    fn close_stops_producers_and_drains_consumers() {
        let (tx, rx) = bounded(4, 0, &Obs::none());
        assert!(tx.send(10));
        tx.close();
        assert!(!tx.send(11), "closed channel accepts nothing");
        assert_eq!(rx.recv(), Some(10), "queued items still drain");
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let (tx, rx) = bounded(8, 0, &Obs::none());
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..250 {
                        assert!(tx.send(p * 1000 + i));
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || -> Vec<i32> { std::iter::from_fn(|| rx.recv()).collect() })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..250).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected, "exactly once, nothing lost or duplicated");
    }

    #[test]
    fn batched_send_and_recv_preserve_order_and_the_bound() {
        // The batch (100 items) dwarfs the capacity (4): send_many must
        // interleave with the drain without ever exceeding the bound.
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        };
        let (tx, rx) = bounded(4, 0, &obs);
        let producer = thread::spawn(move || assert!(tx.send_many(0..100)));
        let mut got = Vec::new();
        while let Some(batch) = rx.recv_many(16) {
            assert!(!batch.is_empty() && batch.len() <= 16);
            got.extend(batch);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        let snap = hub.snapshot();
        assert_eq!(snap.total(CounterId::StreamItemsIn), 100);
        assert_eq!(snap.total(CounterId::StreamItemsOut), 100);
        assert!(snap.total_max(GaugeId::StreamQueueDepth) <= 4, "bound held");
    }

    #[test]
    fn send_many_reports_abandonment_mid_batch() {
        let (tx, rx) = bounded::<u32>(2, 0, &Obs::none());
        drop(rx);
        assert!(!tx.send_many(0..10), "no receiver will ever drain this");
        let (tx, rx) = bounded::<u32>(8, 0, &Obs::none());
        tx.close();
        drop(rx);
        assert!(!tx.send_many(0..3));
        assert!(tx.send_many(std::iter::empty()), "empty batch is a no-op");
    }

    #[test]
    fn recv_many_returns_none_at_eos() {
        let (tx, rx) = bounded(8, 0, &Obs::none());
        assert!(tx.send_many([1, 2, 3]));
        drop(tx);
        assert_eq!(rx.recv_many(8), Some(vec![1, 2, 3]));
        assert_eq!(rx.recv_many(8), None);
        assert_eq!(rx.recv_many(8), None); // EOS is sticky
    }

    #[test]
    fn metrics_count_traffic_and_bound_the_depth_gauge() {
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        };
        let (tx, rx) = bounded(3, 7, &obs);
        for i in 0..3 {
            tx.send(i);
        }
        drop(tx);
        while rx.recv().is_some() {}
        let snap = hub.snapshot();
        assert_eq!(snap.total(CounterId::StreamItemsIn), 3);
        assert_eq!(snap.total(CounterId::StreamItemsOut), 3);
        let hw = snap.total_max(GaugeId::StreamQueueDepth);
        assert!((1..=3).contains(&hw), "high-water {hw} within the bound");
        // Lane attribution: the traffic sits on the queue's id.
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].lane, 7);
    }

    #[test]
    fn trace_sees_pushes_pops_and_one_eos() {
        let tracer = patternlets_trace::Tracer::new();
        let obs = Obs {
            tracer: Some(tracer.clone()),
            metrics: None,
        };
        let (tx, rx) = bounded(4, 0, &obs);
        tx.send(1);
        tx.send(2);
        drop(tx);
        while rx.recv().is_some() {}
        let _ = rx.recv(); // extra recv after EOS must not re-emit
        let trace = tracer.drain();
        let labels: Vec<_> = trace.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "stage-push",
                "stage-push",
                "stage-pop",
                "stage-pop",
                "stage-eos"
            ]
        );
    }

    #[test]
    fn batched_ops_trace_per_item() {
        // A reader of the timeline cannot tell a batched transfer from a
        // per-item one: same events, same depths.
        let tracer = patternlets_trace::Tracer::new();
        let obs = Obs {
            tracer: Some(tracer.clone()),
            metrics: None,
        };
        let (tx, rx) = bounded(8, 0, &obs);
        assert!(tx.send_many([10, 20, 30]));
        drop(tx);
        while rx.recv_many(8).is_some() {}
        let trace = tracer.drain();
        let labels: Vec<_> = trace.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "stage-push",
                "stage-push",
                "stage-push",
                "stage-pop",
                "stage-pop",
                "stage-pop",
                "stage-eos"
            ]
        );
        // Push depths climb 1..=3; pop depths descend 2..=0.
        let depths: Vec<usize> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::StagePush { depth, .. } | EventKind::StagePop { depth, .. } => {
                    Some(depth)
                }
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn try_recv_traces_and_counts_every_pop() {
        // A traced consumer polling with `try_recv` must leave one pop per
        // push, or the analyzer pairs pops with the wrong pushes.
        let tracer = patternlets_trace::Tracer::new();
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: Some(tracer.clone()),
            metrics: Some(hub.clone()),
        };
        let (tx, rx) = bounded(4, 0, &obs);
        for i in 0..3 {
            assert!(tx.send(i));
        }
        for i in 0..3 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
        let pops: Vec<usize> = tracer
            .drain()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::StagePop { depth, .. } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(pops, vec![2, 1, 0]);
        assert_eq!(hub.snapshot().total(CounterId::StreamItemsOut), 3);
    }
}
