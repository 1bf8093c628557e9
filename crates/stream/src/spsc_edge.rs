//! The lock-free 1:1 edge: the typed SPSC ring every stream queue is.
//!
//! Every [`Pipeline`](crate::Pipeline) queue is statically 1:1 — one
//! stage thread produces, the next consumes — and so is every farm queue,
//! because each worker owns its own edges. This module is the FastFlow
//! move: a wait-free-in-the-common-case single-producer/single-consumer
//! ring (two `memcpy`-free slot writes and two atomics per batch) with a
//! hard capacity bound, batched transfers, sticky end-of-stream,
//! abandonment when the receiver is gone, and the metrics/trace emissions
//! of every stream queue.
//!
//! Stage threads block; a thread that tends several edges, as
//! `farm_feedback`'s emitter does, uses the non-blocking ends instead.
//!
//! The head/tail publication protocol and the spin-then-park doorbells
//! are the same design as [`patternlets_core::spsc`] (the byte ring
//! under the shm fabric), and blocked ends climb the same
//! [`wait`] ladder; this ring is typed and in-process, so slots hold `T`
//! directly instead of serialized frames — no encode, no copy, just a
//! move into and out of the slot.

use crate::Obs;
use patternlets_core::spsc::{wait, Doorbell, Wait};
use patternlets_metrics::CounterId;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Items the built-in executors move per [`SpscSender::send_many`] /
/// [`SpscReceiver::recv_many`]. With fewer cores than stage threads the
/// two sides of a queue run in lock-step, and an unbatched transfer pays
/// a park/notify *syscall per item*; batching pays one per `BATCH`.
pub(crate) const BATCH: usize = 32;

/// The per-transfer batch for a queue of `capacity` slots: [`BATCH`],
/// clamped to the capacity (min 1), so a receiver asking for a full
/// queueful moves it in one transfer: a small queue costs one park/notify
/// cycle per `capacity` items. Clamping below capacity is harmful (a
/// `capacity/2` batch wakes the consumer twice per queueful: 0.69M vs
/// 1.10M items/sec through a capacity-8 farm), and above it buys nothing.
pub(crate) fn batch_for(capacity: usize) -> usize {
    BATCH.min(capacity.max(1))
}

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

// SAFETY: the head/tail protocol hands each slot to one side at a time,
// and each side is one thread: `SpscSender` and `SpscReceiver` are `!Sync`.
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

/// The producing half of a 1:1 edge. Not cloneable, and `Send` but not
/// `Sync` (`send` takes `&self`): single producer is the whole point.
/// Dropping it closes the edge (EOS to the receiver).
pub struct SpscSender<T> {
    ring: Arc<Ring<T>>,
    lane: usize,
    _not_sync: PhantomData<Cell<()>>,
}

/// The consuming half of a 1:1 edge. Not cloneable, and not `Sync`.
/// Dropping it makes further sends return `false` so the producer stops.
pub struct SpscReceiver<T> {
    ring: Arc<Ring<T>>,
    lane: usize,
    _not_sync: PhantomData<Cell<()>>,
}

/// A bounded 1:1 edge of `capacity` slots. `queue` is the id under which
/// this edge's metrics are recorded (lane = queue id); `obs` carries the
/// tracer/metrics hooks, both optional.
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
            _not_sync: PhantomData,
        },
        SpscReceiver {
            ring,
            lane: 0,
            _not_sync: PhantomData,
        },
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
        self.push(tail, head, item);
        true
    }

    /// Push an item if a slot is free right now, without waiting. Gives
    /// the item back when the ring is full, closed, or the receiver is
    /// gone.
    pub fn try_send(&self, item: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let head = ring.head.0.load(Ordering::Acquire);
        if tail - head == ring.capacity
            || ring.closed.load(Ordering::Acquire)
            || ring.receiver_gone.load(Ordering::Acquire)
        {
            return Err(item);
        }
        self.push(tail, head, item);
        Ok(())
    }

    /// Write `item` into the free slot at `tail` and publish it.
    fn push(&self, tail: usize, head: usize, item: T) {
        let ring = &*self.ring;
        // SAFETY: the caller saw `tail - head < capacity`, so the slot at
        // `tail` is free: the consumer released it (or never had it), and
        // only this single producer writes slots.
        unsafe { (*ring.slots[tail % ring.capacity].get()).write(item) };
        ring.tail.0.store(tail + 1, Ordering::Release);
        ring.consumer_bell.ring();
        ring.obs
            .stage_push(self.lane, ring.queue, tail - head, tail + 1 - head);
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
        Some(self.pop(head))
    }

    /// Pop an item if one is queued right now, without waiting: `None`
    /// means "empty for now", and says nothing about end-of-stream.
    pub fn try_recv(&self) -> Option<T> {
        let head = self.ring.head.0.load(Ordering::Relaxed);
        (self.ring.tail.0.load(Ordering::Acquire) != head).then(|| self.pop(head))
    }

    /// Nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.ring.tail.0.load(Ordering::Acquire) == self.ring.head.0.load(Ordering::Relaxed)
    }

    /// The sender closed (or dropped) the edge and everything it sent has
    /// been taken. `closed` is read first, so a last publish is not missed.
    pub fn is_ended(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire) && self.is_empty()
    }

    /// Take the queued item at `head` and hand its slot back.
    fn pop(&self, head: usize) -> T {
        let ring = &*self.ring;
        // SAFETY: the caller saw `tail > head` with an Acquire load, so the
        // producer's write to the slot at `head` is visible, and only this
        // single consumer reads slots.
        let item = unsafe { (*ring.slots[head % ring.capacity].get()).assume_init_read() };
        ring.head.0.store(head + 1, Ordering::Release);
        ring.producer_bell.ring();
        let before = ring.tail.0.load(Ordering::Relaxed) - head;
        ring.obs.stage_pop(self.lane, ring.queue, before, 1);
        item
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
    fn non_blocking_ends_give_items_back_and_count_like_the_blocking_ones() {
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        };
        let (tx, rx) = spsc_edge(2, 0, &obs);
        assert!(rx.is_empty() && !rx.is_ended());
        assert_eq!(rx.try_recv(), None);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(3), "a full ring gives the item back");
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(tx);
        assert!(!rx.is_ended(), "queued items still drain");
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
        assert!(rx.is_empty() && rx.is_ended());
        let snap = hub.snapshot();
        assert_eq!(snap.total(CounterId::StreamItemsIn), 3);
        assert_eq!(snap.total(CounterId::StreamItemsOut), 3);
        assert_eq!(snap.total_max(GaugeId::StreamQueueDepth), 2);

        let (tx, rx) = spsc_edge(2, 0, &Obs::none());
        drop(rx);
        assert_eq!(tx.try_send(4), Err(4), "a dead edge gives the item back");
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
