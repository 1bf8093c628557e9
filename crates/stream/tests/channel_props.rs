//! Property tests for the stream channel, the MPMC queue a benchmark
//! probe times against the SPSC edge: the three invariants every stream
//! queue keeps, fuzzed across queue shapes and thread counts.
//!
//! 1. **The bound holds.** Whatever the producer/consumer interleaving,
//!    the depth high-water gauge never exceeds the queue capacity — the
//!    backpressure claim, observed through the same metrics instrument
//!    `--metrics` shows users.
//! 2. **Exactly once.** Every pushed item is popped by exactly one
//!    consumer: nothing lost to a race, nothing delivered twice.
//! 3. **EOS terminates everything.** After the last sender drops, every
//!    consumer — however many, however parked — comes back with `None`;
//!    no stage thread is left blocked forever.

use patternlets_metrics::{CounterId, GaugeId, MetricsHub};
use patternlets_stream::{bounded, Obs};
use proptest::prelude::*;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched forms obey all three invariants whatever the
    /// batch-size / capacity relationship (batches both smaller and much
    /// larger than the queue), and with more consumers than items.
    #[test]
    fn batched_ops_keep_the_bound_and_lose_nothing(
        capacity in 1usize..16,
        batch in 1usize..48,
        producers in 1usize..4,
        consumers in 1usize..4,
        items_each in 0usize..150,
    ) {
        let hub = MetricsHub::new();
        let obs = Obs { tracer: None, metrics: Some(hub.clone()) };
        let (tx, rx) = bounded::<u64>(capacity, 0, &obs);
        let mut popped: Vec<u64> = Vec::new();
        thread::scope(|s| {
            for p in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    let items = (0..items_each).map(|i| (p * items_each + i) as u64);
                    assert!(tx.send_many(items), "receivers stayed live");
                });
            }
            drop(tx);
            let handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || -> Vec<u64> {
                        let mut mine = Vec::new();
                        while let Some(chunk) = rx.recv_many(batch) {
                            assert!(!chunk.is_empty() && chunk.len() <= batch);
                            mine.extend(chunk);
                        }
                        assert_eq!(rx.recv_many(batch), None, "EOS is sticky");
                        mine
                    })
                })
                .collect();
            drop(rx);
            for h in handles {
                popped.extend(h.join().expect("consumer thread finished"));
            }
        });
        popped.sort_unstable();
        let expected: Vec<u64> = (0..(producers * items_each) as u64).collect();
        prop_assert_eq!(popped, expected);
        let snap = hub.snapshot();
        prop_assert!(
            snap.total_max(GaugeId::StreamQueueDepth) <= capacity as u64,
            "batched push overran the bound"
        );
        let total = (producers * items_each) as u64;
        prop_assert_eq!(snap.total(CounterId::StreamItemsIn), total);
        prop_assert_eq!(snap.total(CounterId::StreamItemsOut), total);
    }
}
