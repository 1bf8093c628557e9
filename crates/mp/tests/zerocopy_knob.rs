//! `WorldBuilder::encoded_payloads` switches the in-process zero-copy
//! path off and on: the hit rate the metrics hub reports follows the
//! knob, and the bytes that arrive do not.

use patternlets_metrics::MetricsHub;
use patternlets_mp::{World, INLINE_MAX};

/// Above `INLINE_MAX`, so the payload takes the shared path or the
/// encoded one; at or below it both configurations inline it.
const SIZE: usize = 256;
const ROUNDS: usize = 8;
const _: () = assert!(SIZE > INLINE_MAX);

/// The distinct bytes sent in `round`.
fn payload(round: usize) -> Vec<u8> {
    (0..SIZE).map(|i| (i * 7 + round) as u8).collect()
}

/// Ping-pong `ROUNDS` distinct payloads between two ranks. Returns the
/// hub's zero-copy hit rate and every payload each rank received.
fn pingpong(encoded: bool) -> (f64, Vec<Vec<Vec<u8>>>) {
    let hub = MetricsHub::new();
    let received = World::builder(2)
        .encoded_payloads(encoded)
        .metrics(hub.clone())
        .run(|comm| {
            let mut got = Vec::new();
            for round in 0..ROUNDS {
                if comm.rank() == 0 {
                    comm.send(&payload(round), 1, 1).unwrap();
                    got.push(comm.recv::<u8>(1, 2).unwrap().0);
                } else {
                    let (data, _) = comm.recv::<u8>(0, 1).unwrap();
                    comm.send(&data, 0, 2).unwrap();
                    got.push(data);
                }
            }
            got
        })
        .unwrap();
    let rate = hub
        .snapshot()
        .zerocopy_hit_rate()
        .expect("messages were sent");
    (rate, received)
}

#[test]
fn encoded_payloads_turns_the_zero_copy_path_off_and_keeps_the_bytes() {
    let (fast_rate, fast) = pingpong(false);
    let (encoded_rate, encoded) = pingpong(true);
    assert_eq!(fast_rate, 1.0);
    assert_eq!(encoded_rate, 0.0);
    assert_eq!(fast, encoded);
    for rank in &fast {
        for (round, got) in rank.iter().enumerate() {
            assert_eq!(got, &payload(round));
        }
    }
}
