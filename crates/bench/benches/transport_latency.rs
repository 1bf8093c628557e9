//! Transport ablation: what does crossing a *process* boundary cost?
//!
//! The same `Fabric` operations — envelope delivery and a blocking
//! matched receive — are timed over both backends: the in-process thread
//! transport (a mailbox push under one lock) and the `patternlets-net`
//! TCP transport (the same envelope framed over a loopback socket).
//! Three shapes:
//!
//! - `pingpong_8B`: round-trip latency of a minimal message — the pure
//!   per-message overhead students' "why is my cluster slower than my
//!   laptop" question is made of;
//! - `pingpong_64KiB`: the same round trip at a bandwidth-relevant size
//!   (in process also at 64 B, 256 B and 4 KiB, across the inline cutover);
//! - `bcast_fanout_64KiB`: root pushes one 64 KiB buffer to 3 receivers
//!   and waits for their acks — the linear-broadcast building block.
//!
//! The in-process numbers ride the full `Comm` API (a real two-rank
//! world); the TCP numbers drive the `Fabric` seam directly with an echo
//! thread per peer rank, which is exactly what a `Comm` does underneath.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, BenchmarkId, Criterion};
use patternlets_bench::workloads::{pingpong, ROUNDS};
use patternlets_mp::envelope::{Envelope, Payload};
use patternlets_mp::{Fabric, SourceSel, TagSel, World, WorldSpec};
use patternlets_net::{rendezvous, TcpFabric};

const SMALL: usize = 8; // bytes
const LARGE: usize = 64 << 10; // bytes

fn spec(np: usize, epoch: u64) -> WorldSpec {
    WorldSpec {
        np,
        ranks_per_node: 1,
        fault: None,
        poll_interval: Duration::from_micros(200),
        tracer: None,
        metrics: None,
        epoch,
    }
}

/// A full TCP mesh inside this process, one fabric per world rank.
fn mesh(np: usize, epoch: u64) -> Vec<Arc<TcpFabric>> {
    let server = rendezvous::serve().unwrap().to_string();
    let handles: Vec<_> = (0..np)
        .map(|me| {
            let server = server.clone();
            let spec = spec(np, epoch);
            std::thread::spawn(move || Arc::new(TcpFabric::establish(&server, me, &spec).unwrap()))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn env(src: usize, tag: i32, seq: u64, payload: &[u8]) -> Envelope {
    Envelope {
        comm_id: 0,
        src,
        tag,
        type_name: "u8",
        count: payload.len(),
        payload: Payload::Bytes(bytes::Bytes::from(payload.to_vec())),
        seq,
        needs_ack: false,
    }
}

fn recv(fabric: &TcpFabric, me: usize, tag: TagSel) -> Envelope {
    fabric
        .mailbox(me)
        .recv_match(
            0,
            SourceSel::Any,
            tag,
            Duration::from_micros(200),
            || None,
            || {},
        )
        .unwrap()
}

/// Echo server playing rank `me`: every tag-1 envelope comes straight
/// back to its sender as tag 2; a tag-9 envelope is the shutdown signal.
fn spawn_echo(fabric: Arc<TcpFabric>, me: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut seq = 0;
        loop {
            let got = recv(&fabric, me, TagSel::Any);
            if got.tag == 9 {
                fabric.finish(me);
                return;
            }
            fabric.deliver(
                me,
                got.src,
                env(me, 2, seq, &got.payload.to_wire()),
                0,
                false,
            );
            seq += 1;
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_latency");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));

    let sizes = [
        ("pingpong_8B", SMALL),
        ("pingpong_64B", 64),
        ("pingpong_256B", 256),
        ("pingpong_4KiB", 4 << 10),
        ("pingpong_64KiB", LARGE),
    ];
    for (label, size) in sizes {
        // In-process: a real two-rank world, ROUNDS round trips per spawn.
        // `inproc` rides the zero-copy shared-payload fast path; the
        // `inproc_encoded` variant forces the pre-zero-copy behaviour
        // (full encode/decode on every hop) in the same build, so the two
        // ids measure exactly the fast path's worth.
        for (transport, encoded) in [("inproc", false), ("inproc_encoded", true)] {
            g.bench_with_input(BenchmarkId::new(label, transport), &size, |b, &size| {
                b.iter(|| {
                    World::builder(2)
                        .encoded_payloads(encoded)
                        .run(move |comm| pingpong(&comm, size))
                        .unwrap()
                })
            });
        }
    }

    // TCP-loopback: one long-lived mesh; the bench thread is rank 0, an
    // echo thread is rank 1. Same envelope, same mailbox matching — the
    // only difference is the socket in the middle.
    let fabrics = mesh(2, 0);
    let echo = spawn_echo(Arc::clone(&fabrics[1]), 1);
    let mut seq = 0u64;
    for (label, size) in [("pingpong_8B", SMALL), ("pingpong_64KiB", LARGE)] {
        let payload = vec![7u8; size];
        g.bench_with_input(BenchmarkId::new(label, "tcp"), &size, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    fabrics[0].deliver(0, 1, env(0, 1, seq, &payload), 0, false);
                    seq += 1;
                    black_box(recv(&fabrics[0], 0, TagSel::Tag(2)));
                }
            })
        });
    }

    // Fan-out: root hands one large buffer to every peer and collects an
    // ack from each — the linear bcast shape at transport level.
    let np = 4;
    g.bench_with_input(
        BenchmarkId::new("bcast_fanout_64KiB", "inproc"),
        &np,
        |b, &np| {
            b.iter(|| {
                World::run(np, move |comm| {
                    let mut buf = if comm.is_master() {
                        vec![1u8; LARGE]
                    } else {
                        Vec::new()
                    };
                    comm.bcast(0, &mut buf).unwrap();
                    buf.len()
                })
            })
        },
    );
    let fanout = mesh(np, 1);
    let echoes: Vec<_> = (1..np)
        .map(|me| spawn_echo(Arc::clone(&fanout[me]), me))
        .collect();
    let payload = vec![1u8; LARGE];
    let mut fseq = 0u64;
    g.bench_with_input(
        BenchmarkId::new("bcast_fanout_64KiB", "tcp"),
        &np,
        |b, &np| {
            b.iter(|| {
                for dest in 1..np {
                    fanout[0].deliver(0, dest, env(0, 1, fseq, &payload), 0, false);
                }
                fseq += 1;
                for _ in 1..np {
                    black_box(recv(&fanout[0], 0, TagSel::Tag(2)));
                }
            })
        },
    );

    // Orderly teardown so the process exits without leaked readers.
    fabrics[0].deliver(0, 1, env(0, 9, seq, &[]), 0, false);
    fabrics[0].finish(0);
    echo.join().unwrap();
    for dest in 1..np {
        fanout[0].deliver(0, dest, env(0, 9, fseq + 1, &[]), 0, false);
    }
    fanout[0].finish(0);
    for handle in echoes {
        handle.join().unwrap();
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
