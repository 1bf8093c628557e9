//! Traffic accounting: verify that each collective really sends the number
//! of messages its algorithm promises (the "Messages" column of the
//! `patternlets_mp::coll` table, and the inputs the Hockney cost model in
//! `patternlets-vtime` assumes).
//!
//! These assertions run on the structured event tracer
//! (`patternlets-trace`): a [`Tracer`] is attached to the world, every rank
//! emits send/recv events on its own lane, and the drained [`Trace`] is
//! counted against the closed-form predictions.

use patternlets_core::reduce::ops;
use patternlets_mp::World;
use patternlets_trace::{EventKind, Trace, Tracer};

fn lg(p: usize) -> usize {
    if p <= 1 {
        0
    } else {
        usize::BITS as usize - (p - 1).leading_zeros() as usize
    }
}

/// Run `f` in a `p`-rank world with a tracer attached; return the trace.
fn traced<R: Send>(p: usize, f: impl Fn(patternlets_mp::Comm) -> R + Sync) -> Trace {
    let tracer = Tracer::new();
    World::builder(p)
        .tracer(tracer.clone())
        .run(f)
        .expect("world runs");
    tracer.drain()
}

/// Sends emitted by `lane` (the sending rank is the event's lane).
fn sends_from(trace: &Trace, lane: usize) -> usize {
    trace.count(|e| e.lane == lane && matches!(e.kind, EventKind::MsgSend { .. }))
}

#[test]
fn binomial_bcast_sends_p_minus_1_messages() {
    for p in [1usize, 2, 3, 4, 5, 8, 13] {
        let trace = traced(p, |comm| {
            let mut buf = if comm.is_master() {
                vec![1i64, 2]
            } else {
                Vec::new()
            };
            comm.bcast(0, &mut buf).unwrap();
        });
        assert_eq!(trace.runtime_sends(), p.saturating_sub(1), "p={p}");
    }
}

#[test]
fn linear_bcast_also_sends_p_minus_1_but_all_from_the_root() {
    let p = 8;
    let trace = traced(p, |comm| {
        let mut buf = if comm.is_master() {
            vec![1i64]
        } else {
            Vec::new()
        };
        comm.bcast_linear(0, &mut buf).unwrap();
    });
    assert_eq!(trace.runtime_sends(), p - 1);
    assert_eq!(
        sends_from(&trace, 0),
        p - 1,
        "linear bcast: every message leaves the root"
    );
}

#[test]
fn binomial_bcast_spreads_the_sending_load() {
    let p = 8;
    let trace = traced(p, |comm| {
        let mut buf = if comm.is_master() {
            vec![1i64]
        } else {
            Vec::new()
        };
        comm.bcast(0, &mut buf).unwrap();
    });
    assert_eq!(
        sends_from(&trace, 0),
        lg(p),
        "the root sends only ⌈lg p⌉ times in the tree"
    );
}

#[test]
fn dissemination_barrier_sends_p_times_lg_p() {
    for p in [2usize, 3, 4, 7, 8] {
        let trace = traced(p, |comm| comm.barrier().unwrap());
        assert_eq!(trace.runtime_sends(), p * lg(p), "p={p}");
    }
}

#[test]
fn reduce_sends_p_minus_1_messages() {
    for p in [1usize, 2, 4, 6, 8] {
        let trace = traced(p, |comm| {
            comm.reduce_one(0, comm.rank() as i64, &ops::Sum).unwrap();
        });
        assert_eq!(trace.runtime_sends(), p.saturating_sub(1), "p={p}");
    }
}

#[test]
fn gather_and_scatter_send_p_minus_1_each() {
    let p = 6;
    let trace = traced(p, |comm| {
        let send: Option<Vec<i64>> = if comm.is_master() {
            Some((0..p as i64).collect())
        } else {
            None
        };
        let mine = comm.scatter(0, send.as_deref()).unwrap();
        comm.gather(0, &mine).unwrap();
    });
    assert_eq!(trace.runtime_sends(), 2 * (p - 1));
}

#[test]
fn allreduce_recursive_doubling_message_count() {
    // Power-of-two p: p·lg p exchanges.
    for p in [2usize, 4, 8] {
        let trace = traced(p, |comm| {
            comm.allreduce_rd(&[1i64], &ops::Sum).unwrap();
        });
        assert_eq!(trace.runtime_sends(), p * lg(p), "p={p}");
    }
}

#[test]
fn sends_and_receives_balance() {
    // Every delivered envelope shows up once on the sender's lane and once
    // on the receiver's.
    let trace = traced(4, |comm| {
        let mut buf = if comm.is_master() { vec![9i64] } else { vec![] };
        comm.bcast(0, &mut buf).unwrap();
        comm.barrier().unwrap();
    });
    assert_eq!(trace.sends(), trace.recvs());
}

#[test]
fn user_and_runtime_traffic_are_distinguished() {
    let trace = traced(2, |comm| {
        if comm.rank() == 0 {
            comm.send_one(5i64, 1, 3).unwrap();
        } else {
            comm.recv_one::<i64>(0, 3).unwrap();
        }
        comm.barrier().unwrap();
    });
    assert_eq!(trace.user_sends(), 1);
    let user: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind.is_user_msg() && matches!(e.kind, EventKind::MsgSend { .. }))
        .collect();
    match user[0].kind {
        EventKind::MsgSend { to, tag, bytes, .. } => {
            assert_eq!((user[0].lane, to, tag), (0, 1, 3));
            assert_eq!(bytes, 8, "one i64 on the wire");
        }
        _ => unreachable!(),
    }
    assert!(
        trace.runtime_sends() > 0,
        "the barrier's messages are visible too"
    );
}

#[test]
fn tracing_off_by_default_has_no_cost_path() {
    // Plain run() carries no tracer; nothing is recorded anywhere.
    let out = World::run(2, |comm| comm.rank());
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn ssend_costs_one_extra_ack_message() {
    let trace = traced(2, |comm| {
        if comm.rank() == 0 {
            comm.ssend(&[1i64], 1, 0).unwrap();
        } else {
            comm.recv_one::<i64>(0, 0).unwrap();
        }
    });
    // One user message + one (runtime) ack.
    assert_eq!(trace.sends(), 2);
    assert_eq!(trace.user_sends(), 1);
}
