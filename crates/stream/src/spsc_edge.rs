//! The lock-free 1:1 edge: a typed SPSC ring for pipeline and farm queues.
//!
//! Every [`Pipeline`](crate::Pipeline) queue is statically 1:1 — one
//! stage thread produces, the next consumes — so the MPMC channel's
//! mutex buys nothing there. This module is the FastFlow move: a
//! wait-free-in-the-common-case single-producer/single-consumer ring
//! (two `memcpy`-free slot writes and two atomics per batch) with the
//! same observable contract as [`channel`](crate::channel) — a hard
//! capacity bound, batched transfers, sticky end-of-stream, abandonment
//! when the receiver is gone, and identical metrics/trace emissions, so
//! a timeline reader cannot tell which queue implementation ran.
//!
//! The head/tail publication protocol and the spin-then-park doorbells
//! are the same design as [`patternlets_core::spsc`] (the byte ring
//! under the shm fabric), and blocked ends climb the same
//! [`wait`] ladder; this ring is typed and in-process, so slots hold `T`
//! directly instead of serialized frames — no encode, no copy, just a
//! move into and out of the slot.
//!
//! The farm is built from these edges too, one work and one result edge
//! per worker; only `farm_feedback`'s cycle keeps the MPMC channel.

use crate::Obs;
use patternlets_core::spsc::{wait, Doorbell, Wait};
use patternlets_metrics::CounterId;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A cache-line-aligned position counter: head and tail each get their
/// own line so the producer's stores never invalidate the consumer's.
#[repr(align(64))]
struct Pos(AtomicUsize);

struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    /// Producer position: slots below `tail` are written. Monotonic;
    /// the slot index is `pos % capacity`, so no wrap ambiguity.
    tail: Pos,
    /// Consumer position: slots below `head` are consumed.
    head: Pos,
    /// No more items will be accepted (sender closed or dropped);
    /// what is queued still drains.
    closed: AtomicBool,
    /// The receiver is gone: producers must abandon the stream.
    receiver_gone: AtomicBool,
    /// Rung by the producer when items arrive; consumer parks here.
    consumer_bell: Doorbell,
    /// Rung by the consumer when space appears; producer parks here.
    producer_bell: Doorbell,
    /// The one-shot EOS trace event has been emitted.
    eos_traced: AtomicBool,
    queue: usize,
    obs: Obs,
}

// One producer moves `T`s in, one consumer moves them out; the ring
// itself only ever hands a slot to exactly one side at a time.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn trace_eos_once(&self, lane: usize) {
        if !self.eos_traced.swap(true, Ordering::SeqCst) {
            self.obs.stage_eos(lane, self.queue);
        }
    }

    /// Count one wait episode on this edge, attributed to the queue's
    /// lane and split by how it resolved — the same spin-vs-park
    /// vocabulary as the byte ring under the shm fabric.
    fn record_wait(&self, cost: Wait) {
        if let Some(m) = &self.obs.metrics {
            m.incr(
                self.queue,
                if cost.parked() {
                    CounterId::SpscParkWaits
                } else {
                    CounterId::SpscSpinWaits
                },
            );
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (the Arc count says so); whatever was
        // produced but never consumed still owns real values.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for pos in head..tail {
            let idx = pos % self.capacity;
            unsafe { (*self.slots[idx].get()).assume_init_drop() };
        }
    }
}

/// The producing half of a 1:1 edge. Not cloneable — single producer is
/// the whole point. Dropping it closes the edge (EOS to the receiver).
pub struct SpscSender<T> {
    ring: Arc<Ring<T>>,
    lane: usize,
}

/// The consuming half of a 1:1 edge. Not cloneable. Dropping it makes
/// further sends return `false` so the producer stops.
pub struct SpscReceiver<T> {
    ring: Arc<Ring<T>>,
    lane: usize,
}

/// A bounded 1:1 edge of `capacity` slots, with the same `queue` id /
/// `obs` observability contract as [`channel::bounded`](crate::bounded).
pub fn spsc_edge<T>(capacity: usize, queue: usize, obs: &Obs) -> (SpscSender<T>, SpscReceiver<T>) {
    assert!(capacity > 0, "a zero-capacity queue can never move an item");
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        slots,
        capacity,
        tail: Pos(AtomicUsize::new(0)),
        head: Pos(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        receiver_gone: AtomicBool::new(false),
        consumer_bell: Doorbell::new(),
        producer_bell: Doorbell::new(),
        eos_traced: AtomicBool::new(false),
        queue,
        obs: obs.clone(),
    });
    (
        SpscSender {
            ring: Arc::clone(&ring),
            lane: 0,
        },
        SpscReceiver { ring, lane: 0 },
    )
}

impl<T> SpscSender<T> {
    /// This sender, attributed to stage `lane` in the trace. Consumes —
    /// there is only ever one sender to attribute.
    pub fn for_lane(mut self, lane: usize) -> SpscSender<T> {
        self.lane = lane;
        self
    }

    /// Block until at least one slot is free, or the stream is dead.
    /// Returns the current `(tail, head)` on success, `None` when closed
    /// or the receiver is gone.
    fn wait_for_space(&self) -> Option<(usize, usize)> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let dead =
            || ring.closed.load(Ordering::Acquire) || ring.receiver_gone.load(Ordering::Acquire);
        let has_space = || tail - ring.head.0.load(Ordering::Acquire) < ring.capacity;
        if !dead() && !has_space() {
            ring.record_wait(wait(&ring.producer_bell, || dead() || has_space()));
        }
        if dead() {
            return None;
        }
        Some((tail, ring.head.0.load(Ordering::Acquire)))
    }

    /// Push an item, blocking while the ring is full. Returns `false` —
    /// with the item dropped — if the edge is closed or the receiver is
    /// gone; `true` once the item is queued.
    pub fn send(&self, item: T) -> bool {
        let Some((tail, head)) = self.wait_for_space() else {
            return false;
        };
        let ring = &*self.ring;
        unsafe { (*ring.slots[tail % ring.capacity].get()).write(item) };
        ring.tail.0.store(tail + 1, Ordering::Release);
        ring.consumer_bell.ring();
        ring.obs
            .stage_push(self.lane, ring.queue, tail - head, tail + 1 - head);
        true
    }

    /// Push a whole batch, blocking for space as needed: one tail
    /// publication and at most one doorbell ring per *ring-refill*
    /// instead of per item. The bound holds at every instant — surplus
    /// items wait for the consumer exactly as [`send`](Self::send)
    /// would. Returns `false` if the edge died part-way (remaining items
    /// dropped), `true` once everything is queued.
    pub fn send_many(&self, items: impl IntoIterator<Item = T>) -> bool {
        let ring = &*self.ring;
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let Some((tail, head)) = self.wait_for_space() else {
                return false;
            };
            let free = ring.capacity - (tail - head);
            let mut pushed = 0;
            while pushed < free {
                match items.next() {
                    Some(item) => {
                        unsafe { (*ring.slots[(tail + pushed) % ring.capacity].get()).write(item) };
                        pushed += 1;
                    }
                    None => break,
                }
            }
            ring.tail.0.store(tail + pushed, Ordering::Release);
            ring.consumer_bell.ring();
            let before = tail - head;
            ring.obs
                .stage_push(self.lane, ring.queue, before, before + pushed);
        }
        true
    }

    /// Close the edge explicitly: no further sends succeed, queued items
    /// still drain. Idempotent.
    pub fn close(&self) {
        self.ring.closed.store(true, Ordering::SeqCst);
        self.ring.consumer_bell.ring();
        self.ring.producer_bell.ring();
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> SpscReceiver<T> {
    /// This receiver, attributed to stage `lane` in the trace.
    pub fn for_lane(mut self, lane: usize) -> SpscReceiver<T> {
        self.lane = lane;
        self
    }

    /// Block until at least one item is queued, or the stream has ended.
    /// Returns the current `(head, tail)` on items, `None` at EOS.
    fn wait_for_items(&self) -> Option<(usize, usize)> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        let ready =
            || ring.tail.0.load(Ordering::Acquire) != head || ring.closed.load(Ordering::Acquire);
        let cost = (!ready()).then(|| wait(&ring.consumer_bell, ready));
        // The producer publishes items (tail.store Release) and only then
        // closes, so the tail must be read after `closed` was observed:
        // both stores can land between the two loads in `ready`, and
        // trusting a stale empty tail would drop the final batch.
        let tail = ring.tail.0.load(Ordering::Acquire);
        if tail == head {
            // Closed AND drained: the stream is over.
            self.ring.trace_eos_once(self.lane);
            return None;
        }
        if let Some(cost) = cost {
            ring.record_wait(cost);
        }
        Some((head, tail))
    }

    /// Pop an item, blocking while the ring is empty and the producer is
    /// live. Returns `None` exactly when the stream is over: closed and
    /// fully drained.
    pub fn recv(&self) -> Option<T> {
        let (head, _) = self.wait_for_items()?;
        let ring = &*self.ring;
        let item = unsafe { (*ring.slots[head % ring.capacity].get()).assume_init_read() };
        ring.head.0.store(head + 1, Ordering::Release);
        ring.producer_bell.ring();
        let before = ring.tail.0.load(Ordering::Relaxed) - head;
        ring.obs.stage_pop(self.lane, ring.queue, before, 1);
        Some(item)
    }

    /// Pop up to `max` items in one head publication, blocking while the
    /// ring is empty and the producer is live. Returns between 1 and
    /// `max` items, or `None` at end-of-stream.
    pub fn recv_many(&self, max: usize) -> Option<Vec<T>> {
        assert!(max > 0, "an empty batch can never make progress");
        let (head, tail) = self.wait_for_items()?;
        let ring = &*self.ring;
        let take = (tail - head).min(max);
        let mut batch = Vec::with_capacity(take);
        for pos in head..head + take {
            batch.push(unsafe { (*ring.slots[pos % ring.capacity].get()).assume_init_read() });
        }
        ring.head.0.store(head + take, Ordering::Release);
        ring.producer_bell.ring();
        ring.obs.stage_pop(self.lane, ring.queue, tail - head, take);
        Some(batch)
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.ring.receiver_gone.store(true, Ordering::SeqCst);
        self.ring.producer_bell.ring();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternlets_metrics::GaugeId;
    use patternlets_trace::EventKind;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn items_flow_in_order() {
        let (tx, rx) = spsc_edge(4, 0, &Obs::none());
        let producer = thread::spawn(move || {
            for i in 0..1000 {
                assert!(tx.send(i));
            }
        });
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn eos_after_sender_drops_with_items_queued() {
        let (tx, rx) = spsc_edge(8, 0, &Obs::none());
        assert!(tx.send(1));
        assert!(tx.send(2));
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None); // EOS is sticky
    }

    #[test]
    fn no_items_lost_when_close_races_the_empty_check() {
        // Regression: the consumer would observe an empty tail, then see
        // `closed` (both the final publish and the close landing between
        // its two loads) and declare EOS with items still queued. Racing
        // a send-then-drop producer against a draining consumer many
        // times over makes that window easy to hit.
        for round in 0..200 {
            let (tx, rx) = spsc_edge(8, 0, &Obs::none());
            let n = 1 + round % 7;
            let producer = thread::spawn(move || {
                for i in 0..n {
                    assert!(tx.send(i));
                }
                // drop(tx) closes the edge right behind the last publish
            });
            let got: Vec<usize> = std::iter::from_fn(|| rx.recv()).collect();
            producer.join().unwrap();
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    fn a_full_ring_blocks_the_producer_until_a_pop() {
        let (tx, rx) = spsc_edge(2, 0, &Obs::none());
        assert!(tx.send(1));
        assert!(tx.send(2));
        let unblocked = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&unblocked);
        let producer = thread::spawn(move || {
            assert!(tx.send(3)); // must block here: ring is full
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
    fn send_fails_once_the_receiver_is_gone() {
        let (tx, rx) = spsc_edge::<i32>(1, 0, &Obs::none());
        assert!(tx.send(1));
        drop(rx);
        assert!(!tx.send(2), "no receiver will ever drain this");
        assert!(!tx.send_many(0..10));
    }

    #[test]
    fn a_parked_producer_wakes_when_the_receiver_drops() {
        let (tx, rx) = spsc_edge::<i32>(1, 0, &Obs::none());
        assert!(tx.send(1));
        let producer = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(50));
        drop(rx); // the parked send must observe this and fail
        assert!(!producer.join().unwrap());
    }

    #[test]
    fn batched_transfer_preserves_order_and_the_bound() {
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        };
        let (tx, rx) = spsc_edge(4, 0, &obs);
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
    fn blocked_waits_resolve_as_spin_or_park_episodes() {
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        };
        let (tx, rx) = spsc_edge(1, 3, &obs);
        assert!(tx.send(1)); // fills the one-slot ring without waiting
        let producer = thread::spawn(move || assert!(tx.send(2))); // must wait
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv(), Some(1)); // frees the slot, resolving the wait
        producer.join().unwrap();
        assert_eq!(rx.recv(), Some(2));
        let snap = hub.snapshot();
        let episodes = snap.total(CounterId::SpscSpinWaits) + snap.total(CounterId::SpscParkWaits);
        assert_eq!(episodes, 1, "one blocked send = one wait episode");
    }

    #[test]
    fn dropped_ring_drops_unconsumed_items() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = spsc_edge(8, 0, &Obs::none());
        for _ in 0..5 {
            assert!(tx.send(Counted(Arc::clone(&counter))));
        }
        let got = rx.recv().unwrap(); // one consumed normally
        drop(got);
        drop(tx);
        drop(rx); // four still queued: the ring must drop them
        assert_eq!(counter.load(Ordering::SeqCst), 5, "no value leaked");
    }

    #[test]
    fn trace_matches_the_mpmc_channel_exactly() {
        let tracer = patternlets_trace::Tracer::new();
        let obs = Obs {
            tracer: Some(tracer.clone()),
            metrics: None,
        };
        let (tx, rx) = spsc_edge(8, 0, &obs);
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
