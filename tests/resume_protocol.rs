//! Property test of the reconnect/resume protocol, with the real pieces
//! but no sockets: the sender side is a real [`SendRing`] holding real
//! CRC-framed records, the wire is a byte buffer mangled by a real
//! [`NetChaosConn`], and the receiver is the same parse-until-error
//! discipline the fabric's reader uses (a CRC reject or torn frame kills
//! the "connection"). After every fault the two ends run the resume
//! handshake — the receiver reports how many sequenced frames it has
//! seen, the ring rewinds to exactly that count — and the property is
//! the protocol's whole reason to exist: **every sequenced frame is
//! delivered exactly once, in order, no matter what the wire does.**

use patternlets_net::chaos::{ChaosAction, NetChaosConn, NetChaosPlan};
use patternlets_net::frame::{decode_frame, encode_frame, Frame};
use patternlets_net::ring::{flatten, SendRing};
use proptest::prelude::*;

/// One application envelope, payload stamped with its index so delivery
/// order and multiplicity are checkable.
fn env_record(index: u64) -> Vec<u8> {
    encode_frame(&Frame::Env {
        comm_id: 7,
        src: 0,
        tag: 1,
        type_name: "u64".into(),
        count: 1,
        seq: index,
        needs_ack: false,
        overtake: 0,
        payload: index.to_le_bytes().to_vec(),
    })
}

/// The receiver half: splits a (possibly damaged) byte stream back into
/// frames exactly the way the fabric's reader does — length prefix, CRC
/// check, stop at the first sign of damage. Returns the sequence numbers
/// of the envelopes accepted before the stream died, and whether it died.
fn receive(stream: &[u8], delivered: &mut Vec<u64>) -> bool {
    let mut at = 0;
    while at < stream.len() {
        if stream.len() - at < 8 {
            return true; // torn header: connection dies
        }
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        if end > stream.len() {
            return true; // torn body
        }
        match decode_frame(&stream[at..end]) {
            Ok(Frame::Env { seq, payload, .. }) => {
                assert_eq!(payload, seq.to_le_bytes().to_vec(), "payload intact");
                delivered.push(seq);
            }
            Ok(other) => panic!("only Env frames are sent, got {other:?}"),
            Err(_) => return true, // CRC reject (or mangled header)
        }
        at = end;
    }
    false
}

/// Drive `total` envelopes through a chaotic wire in batches of
/// `batch_max`, reconnect-and-resume after every fault, and return the
/// delivered sequence numbers.
fn run_session(plan: NetChaosPlan, total: u64, batch_max: usize) -> Vec<u64> {
    let mut chaos: NetChaosConn = plan.connection(0, 1);
    let mut ring = SendRing::new();
    let mut delivered: Vec<u64> = Vec::new();
    let mut faults = 0u32;
    for index in 0..total {
        let seq = ring.push(env_record(index));
        assert_eq!(seq, index, "ring sequence numbers are the push order");
    }
    // The flush loop: batch, mangle, deliver, resume on damage. Bounded
    // by a generous fault budget so a livelocked protocol fails loudly
    // instead of hanging the test.
    while (delivered.len() as u64) < total {
        let mut batch = Vec::new();
        ring.next_batch(batch_max, &mut batch);
        if batch.is_empty() {
            panic!(
                "ring drained ({} retained) but only {}/{total} delivered",
                ring.retained(),
                delivered.len()
            );
        }
        let frame_count = batch.len();
        let mut bytes: Vec<u8> = flatten(&batch);
        let died = match chaos.decide(bytes.len(), frame_count).action {
            ChaosAction::Pass => receive(&bytes, &mut delivered),
            ChaosAction::Cut => true, // nothing of the batch was written
            ChaosAction::Truncate { bytes: keep } => {
                bytes.truncate(keep);
                receive(&bytes, &mut delivered);
                true // a truncated write always tears the stream down
            }
            ChaosAction::Corrupt { byte, bit } => {
                bytes[byte] ^= 1 << bit;
                receive(&bytes, &mut delivered)
            }
        };
        if died {
            faults += 1;
            assert!(
                faults < 10_000,
                "no progress after {faults} faults ({}/{total} delivered)",
                delivered.len()
            );
            // The resume handshake: the receiver's cumulative sequenced
            // count rewinds the ring to the exact replay point.
            let replay = ring
                .resume(delivered.len() as u64)
                .expect("count in window");
            assert!(
                replay as usize <= ring.retained(),
                "replay window within retained frames"
            );
        } else {
            // A healthy stretch doubles as a heartbeat: the receiver's
            // count acks the ring, as Ping{seen} does on the real wire.
            ring.ack(delivered.len() as u64);
        }
    }
    // Everything is delivered; the final ack drains the ring completely.
    ring.ack(delivered.len() as u64);
    assert_eq!(ring.retained(), 0, "acked ring retains nothing");
    delivered
}

/// A flipped *header* byte — length prefix or checksum field — kills the
/// stream at exactly the corrupted frame: everything before it is
/// delivered, nothing after it is, and no frame is misframed into a
/// wrong decode. This is the property the length-covering CRC buys; the
/// resume handshake then replays from the precise break point.
#[test]
fn flipped_header_bytes_die_at_the_corrupted_frame() {
    let records: Vec<Vec<u8>> = (0..6).map(env_record).collect();
    let stream: Vec<u8> = records.concat();
    let offsets: Vec<usize> = records
        .iter()
        .scan(0, |at, r| {
            let here = *at;
            *at += r.len();
            Some(here)
        })
        .collect();
    for (frame, &off) in offsets.iter().enumerate() {
        for byte in 0..8 {
            for bit in 0..8 {
                let mut corrupt = stream.clone();
                corrupt[off + byte] ^= 1 << bit;
                let mut delivered = Vec::new();
                let died = receive(&corrupt, &mut delivered);
                assert!(
                    died,
                    "flip at frame {frame} header byte {byte} bit {bit} must kill the stream"
                );
                assert_eq!(
                    delivered,
                    (0..frame as u64).collect::<Vec<_>>(),
                    "stream died exactly at frame {frame} (flip {byte}:{bit})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once, in-order delivery under arbitrary seeded mayhem.
    #[test]
    fn chaotic_wire_delivers_every_frame_exactly_once_in_order(
        seed in any::<u64>(),
        total in 1u64..120,
        batch_max in 1usize..9,
        cut_after in 1u64..6,
    ) {
        let mut plan = NetChaosPlan::seeded(seed);
        plan.cut_after = cut_after;
        plan.cut_prob = 0.20;
        plan.truncate_prob = 0.15;
        plan.corrupt_prob = 0.15;
        plan.delay_up_to_ms = 0; // logical time only
        let delivered = run_session(plan, total, batch_max);
        let expected: Vec<u64> = (0..total).collect();
        prop_assert_eq!(delivered, expected);
    }

    /// A fault-free wire is the degenerate case: one pass, no replays.
    #[test]
    fn calm_wire_is_a_single_pass(
        total in 1u64..120,
        batch_max in 1usize..9,
    ) {
        let mut plan = NetChaosPlan::seeded(0);
        plan.cut_prob = 0.0;
        plan.truncate_prob = 0.0;
        plan.corrupt_prob = 0.0;
        plan.delay_up_to_ms = 0;
        let delivered = run_session(plan, total, batch_max);
        let expected: Vec<u64> = (0..total).collect();
        prop_assert_eq!(delivered, expected);
    }
}
