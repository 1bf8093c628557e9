//! A 64 KiB shm receive, counted on every thread of the process. It is
//! the only test of this binary: a count that sees every thread would also
//! see a sibling test's allocations, such as the backtrace of a panic.

mod common;

use common::{everywhere, two_ranks, UNCOUNTED};
use patternlets_net::shm::FabricMode;

/// A 64 KiB `u8` receive over shared memory makes one payload-sized
/// buffer: the drain copies the payload out of the ring once, and the
/// receive hands that same buffer back. Either of the receiving rank's
/// threads may drain — its own, waiting in `recv`, or its heartbeat — so
/// every thread in the process is counted but the sending rank's own,
/// whose encoding is the send's.
#[test]
fn a_64_kib_shm_receive_allocates_one_payload_sized_buffer() {
    const LEN: usize = 64 << 10;
    let counts = two_ranks(FabricMode::Shm, |comm| {
        let mut n = 0;
        for round in 0..2 {
            if comm.rank() == 0 {
                UNCOUNTED.with(|u| u.set(true));
                // Sent only once rank 1 counts.
                comm.recv::<u8>(1, round).unwrap();
                comm.send(&vec![7u8; LEN], 1, round).unwrap();
            } else {
                let count = everywhere(LEN);
                comm.send(&[1u8], 0, round).unwrap();
                let (got, _) = comm.recv::<u8>(0, round).unwrap();
                n = count.stop();
                assert!(got.len() == LEN && got.iter().all(|&b| b == 7));
            }
        }
        n
    });
    assert_eq!(
        counts[1], 1,
        "allocations of at least 64 KiB in one receive"
    );
}
