//! A bounded MPMC channel, kept only as the fixture of pbench's
//! `stream.channel.item_ns` probe, which times [`Sender::send_many`] and
//! [`Receiver::recv_many`] against an [`spsc_edge`](mod@crate::spsc_edge).
//! No executor uses it; ROADMAP item 7's benchmark change retires the
//! probe, and this module with it.
//!
//! It keeps the edge's contract: a hard bound (a full queue blocks the
//! producer), end-of-stream when the last `Sender` drops, and abandonment
//! when every `Receiver` is gone. One mutex guards the deque, and two
//! condvars park exactly the side that has to wait, one wake per batch.

use crate::Obs;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    items: VecDeque<T>,
    /// Always `false` (the sender count reports end-of-stream); read by
    /// `send_many` and `recv_many`, kept as the probe has always timed them.
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
/// the last clone drops. Traces on stage lane 0.
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

impl<T> Sender<T> {
    /// Push a whole batch, blocking for room as needed, paying one lock
    /// acquisition and at most one wake per *queue-refill* instead of per
    /// item. The bound still holds at every instant: when the batch is
    /// larger than the free space, the surplus waits for consumers.
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
}

impl<T> Receiver<T> {
    /// Pop up to `max` items in one lock acquisition, blocking while the
    /// queue is empty and producers are still live. Returns between 1 and
    /// `max` items, or `None` at end-of-stream, paying one park/notify per
    /// batch.
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
        assert!(tx.send_many(0..3));
        drop(tx);
        while rx.recv_many(1).is_some() {}
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
}
