//! Per-layer probes for the traced run. Each probe times one public
//! function of one layer in isolation, at the sizes the workloads use, or
//! reads the counters of a small instrumented run. They run after the
//! workload, the same set in every traced run, so each workload reports
//! every per-layer metric. README.md maps each to the end-to-end metric
//! and workload it should move.

use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use patternlets_core::crc::crc32;
use patternlets_core::spsc::SpscRing;
use patternlets_metrics::{CounterId, GaugeId, HistId, MetricsHub, MetricsSnapshot};
use patternlets_mp::datatype::{encode, Datatype};
use patternlets_mp::fabric::{Fabric, WorldSpec};
use patternlets_mp::mailbox::Mailbox;
use patternlets_mp::{Comm, Envelope, Payload, SourceSel, TagSel, World, WorldBuilder};
use patternlets_net::frame::{decode_frame, encode_frame, Frame};
use patternlets_net::shm::FabricMode;
use patternlets_serve::client::{self, SubmitSpec};
use patternlets_serve::daemon::{self, DaemonConfig};
use patternlets_serve::worker::{run_worker, Assignment, JobLineSink};
use patternlets_stream::{bounded, run_farm, spsc_edge, FarmConfig, Obs};
use patternlets_trace::Tracer;

use crate::gen::{size_name, PING_SIZES};
use crate::jobs::Sink;
use crate::report::Metric;
use crate::stats::{self, ratio};

/// Batches per timing; the median batch is reported.
const BATCHES: usize = 9;

/// Median over [`BATCHES`] of the mean time per call in a batch of
/// `iters` calls, after one untimed batch.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// Every probe, in a fixed order.
pub fn all() -> Vec<Metric> {
    let mut out = Vec::new();
    out.extend(comm());
    out.extend(datatype());
    out.push(Metric::new(
        "mp.mailbox.handoff_8B_ns",
        mailbox_handoff_ns(),
        "ns",
        BATCHES,
    ));
    out.extend(mp_counters());
    out.push(Metric::new(
        "mp.world.spawn_ms",
        world_spawn_ms(),
        "ms",
        BATCHES,
    ));
    out.extend(spsc());
    let buf = vec![7u8; 64 << 10];
    out.push(Metric::new(
        "core.crc.crc32_64KiB_ns",
        per_call_ns(64, || {
            black_box(crc32(black_box(&buf)));
        }),
        "ns",
        BATCHES,
    ));
    out.extend(frames());
    out.extend(fabrics());
    out.push(Metric::new(
        "net.os.loopback_rtt_8B_ns",
        loopback_rtt_ns(8),
        "ns",
        BATCHES,
    ));
    out.extend(stream());
    out.extend(serve());
    out.extend(observability());
    out
}

/// `Comm::send` and `Comm::recv` in an in-process world. Sends are timed
/// while the peer drains them; receives are timed with every message
/// already queued, so neither includes waiting for the other rank.
fn comm() -> Vec<Metric> {
    const N: usize = 64;
    let per_size = World::builder(2)
        .run(|comm| {
            PING_SIZES
                .iter()
                .map(|&size| {
                    let buf = vec![7u8; size];
                    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
                    for _ in 0..=BATCHES {
                        if comm.rank() == 0 {
                            let start = Instant::now();
                            for _ in 0..N {
                                comm.send(&buf, 1, 10).expect("probe send");
                            }
                            sends.push(start.elapsed().as_nanos() as f64 / N as f64);
                            comm.recv::<u8>(1, 12).expect("all replies queued");
                            let start = Instant::now();
                            for _ in 0..N {
                                black_box(comm.recv::<u8>(1, 11).expect("probe recv"));
                            }
                            recvs.push(start.elapsed().as_nanos() as f64 / N as f64);
                        } else {
                            for _ in 0..N {
                                comm.recv::<u8>(0, 10).expect("probe recv");
                            }
                            for _ in 0..N {
                                comm.send(&buf, 0, 11).expect("probe send");
                            }
                            comm.send::<u8>(&[], 0, 12).expect("marker send");
                        }
                    }
                    (size, sends, recvs)
                })
                .collect::<Vec<_>>()
        })
        .expect("probe world runs");
    let mut out = Vec::new();
    for (size, sends, recvs) in &per_size[0] {
        // The first batch of each size is the warm-up.
        out.push(Metric::new(
            format!("mp.comm.send_{}_ns", size_name(*size)),
            stats::median(&sends[1..]),
            "ns",
            BATCHES,
        ));
        out.push(Metric::new(
            format!("mp.comm.recv_{}_ns", size_name(*size)),
            stats::median(&recvs[1..]),
            "ns",
            BATCHES,
        ));
    }
    out
}

/// `Datatype` encode and decode of byte payloads.
fn datatype() -> Vec<Metric> {
    let mut out = Vec::new();
    for size in [4 << 10, 64 << 10] {
        let buf = vec![7u8; size];
        let wire = encode(&buf);
        out.push(Metric::new(
            format!("mp.datatype.encode_{}_ns", size_name(size)),
            per_call_ns(32, || {
                black_box(encode(black_box(&buf)));
            }),
            "ns",
            BATCHES,
        ));
        out.push(Metric::new(
            format!("mp.datatype.decode_{}_ns", size_name(size)),
            per_call_ns(32, || {
                black_box(u8::decode_slice(black_box(&wire), size).expect("decodes"));
            }),
            "ns",
            BATCHES,
        ));
    }
    out
}

fn envelope(src: usize, tag: i32, seq: u64, payload: Payload, count: usize) -> Envelope {
    Envelope {
        comm_id: 0,
        src,
        tag,
        type_name: "u8",
        count,
        payload,
        seq,
        needs_ack: false,
    }
}

fn take(mailbox: &Mailbox, src: usize, tag: i32) -> Envelope {
    mailbox
        .recv_match(
            0,
            SourceSel::Rank(src),
            TagSel::Tag(tag),
            Duration::from_millis(5),
            || None,
            || {},
        )
        .expect("probe envelope arrives")
}

/// One-way handoff through a mailbox: `deliver` on one thread,
/// `recv_match` on another, half of a measured round trip.
fn mailbox_handoff_ns() -> f64 {
    const ROUNDS: usize = 256;
    let to_peer = Arc::new(Mailbox::new());
    let to_me = Arc::new(Mailbox::new());
    let total = (BATCHES + 1) * ROUNDS;
    let echo = {
        let (to_peer, to_me) = (Arc::clone(&to_peer), Arc::clone(&to_me));
        std::thread::spawn(move || {
            for seq in 1..=total as u64 {
                let env = take(&to_peer, 0, 1);
                to_me.deliver(envelope(1, 2, seq, env.payload, env.count));
            }
        })
    };
    let mut seq = 0u64;
    let rtt = per_call_ns(ROUNDS, || {
        seq += 1;
        to_peer.deliver(envelope(0, 1, seq, Payload::inline(&[7u8; 8]), 8));
        black_box(take(&to_me, 1, 2));
    });
    echo.join().expect("mailbox echo thread");
    rtt / 2.0
}

/// A ping-pong over `builder`'s world at `sizes`; returns the ns per
/// round trip of the median batch.
fn pingpong_ns(builder: WorldBuilder, sizes: &[usize]) -> f64 {
    const ROUNDS: usize = 128;
    let sizes = sizes.to_vec();
    let per_rank = builder
        .run(move |comm: Comm| {
            let bufs: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![7u8; s]).collect();
            let total = (BATCHES + 1) * ROUNDS;
            if comm.rank() == 0 {
                let mut k = 0usize;
                per_call_ns(ROUNDS, || {
                    comm.send(&bufs[k % bufs.len()], 1, 1).expect("ping");
                    black_box(comm.recv::<u8>(1, 2).expect("pong"));
                    k += 1;
                })
            } else {
                for _ in 0..total {
                    let (data, _) = comm.recv::<u8>(0, 1).expect("ping");
                    comm.send(&data, 0, 2).expect("pong");
                }
                0.0
            }
        })
        .expect("probe world runs");
    per_rank[0]
}

/// Counters of an instrumented in-process ping-pong over every size.
fn mp_counters() -> Vec<Metric> {
    let hub = MetricsHub::new();
    pingpong_ns(World::builder(2).metrics(hub.clone()), &PING_SIZES);
    let snap = hub.snapshot();
    vec![
        Metric::new(
            "mp.recv_spin_ratio",
            ratio(
                snap.total(CounterId::RecvSpin),
                snap.total(CounterId::MsgsRecv),
            ),
            "ratio",
            snap.total(CounterId::MsgsRecv) as usize,
        ),
        Metric::new(
            "mp.zerocopy_hit_rate",
            snap.zerocopy_hit_rate().unwrap_or(0.0),
            "ratio",
            snap.msgs_sent() as usize,
        ),
    ]
}

/// Spawn and join an empty two-rank in-process world.
fn world_spawn_ms() -> f64 {
    per_call_ns(4, || {
        World::builder(2).run(|_| ()).expect("empty world runs");
    }) / 1e6
}

/// Round trips over a pair of heap `SpscRing`s sized like the fabric's
/// segments, with an echo thread as the peer; plus the share of blocked
/// waits the spin phase resolved.
fn spsc() -> Vec<Metric> {
    const ROUNDS: usize = 256;
    let mut out = Vec::new();
    let (mut spins, mut parks) = (0u64, 0u64);
    for size in [8usize, 4 << 10] {
        let fwd = SpscRing::heap(patternlets_net::shm::SHM_RING_CAPACITY);
        let rev = SpscRing::heap(patternlets_net::shm::SHM_RING_CAPACITY);
        let (mut p_fwd, mut c_fwd) = (fwd.producer(), fwd.consumer());
        let (mut p_rev, mut c_rev) = (rev.producer(), rev.consumer());
        let total = (BATCHES + 1) * ROUNDS;
        let echo = std::thread::spawn(move || {
            let mut buf = vec![0u8; size];
            for _ in 0..total {
                c_fwd.read_exact(&mut buf).expect("ring stays open");
                p_rev.push_all(&buf, || false).expect("peer keeps reading");
            }
            let (a, b) = c_fwd.take_wait_stats();
            let (c, d) = p_rev.take_wait_stats();
            (a + c, b + d)
        });
        let buf = vec![7u8; size];
        let mut back = vec![0u8; size];
        let rtt = per_call_ns(ROUNDS, || {
            p_fwd.push_all(&buf, || false).expect("echo keeps reading");
            c_rev.read_exact(&mut back).expect("echo answers");
        });
        let (s, p) = echo.join().expect("ring echo thread");
        let (s2, p2) = c_rev.take_wait_stats();
        let (s3, p3) = p_fwd.take_wait_stats();
        spins += s + s2 + s3;
        parks += p + p2 + p3;
        out.push(Metric::new(
            format!("core.spsc.rtt_{}_ns", size_name(size)),
            rtt,
            "ns",
            BATCHES,
        ));
    }
    out.push(Metric::new(
        "core.spsc.spin_ratio",
        ratio(spins, spins + parks),
        "ratio",
        (spins + parks) as usize,
    ));
    out
}

/// Wire frames: encode and decode an envelope frame, CRC included.
fn frames() -> Vec<Metric> {
    let mut out = Vec::new();
    for size in PING_SIZES {
        let frame = Frame::Env {
            comm_id: 0,
            src: 0,
            tag: 1,
            type_name: "u8".into(),
            count: size as u64,
            seq: 1,
            needs_ack: false,
            overtake: 0,
            payload: vec![7u8; size],
        };
        let wire = encode_frame(&frame);
        out.push(Metric::new(
            format!("net.frame.encode_env_{}_ns", size_name(size)),
            per_call_ns(32, || {
                black_box(encode_frame(black_box(&frame)));
            }),
            "ns",
            BATCHES,
        ));
        out.push(Metric::new(
            format!("net.frame.decode_env_{}_ns", size_name(size)),
            per_call_ns(32, || {
                black_box(decode_frame(black_box(&wire)).expect("decodes"));
            }),
            "ns",
            BATCHES,
        ));
    }
    out
}

type SharedFabric = Arc<dyn Fabric>;

/// Establish a two-rank mesh in this process: each rank on its own
/// thread, through a fresh rendezvous server, as `pmrun` ranks would.
fn mesh(mode: FabricMode, epoch: u64, metrics: Option<MetricsHub>) -> Vec<SharedFabric> {
    let server = patternlets_net::rendezvous::serve()
        .expect("rendezvous serves")
        .to_string();
    let dir = std::env::temp_dir().join(format!("probe-shm-{epoch}"));
    let host = patternlets_net::shm::host_id();
    let ranks: Vec<_> = (0..2)
        .map(|me| {
            let (server, dir, host, metrics) =
                (server.clone(), dir.clone(), host.clone(), metrics.clone());
            std::thread::spawn(move || {
                let spec = WorldSpec {
                    np: 2,
                    ranks_per_node: 1,
                    fault: None,
                    poll_interval: Duration::from_millis(5),
                    tracer: None,
                    metrics,
                    epoch,
                };
                patternlets_net::shm::establish(&server, me, &spec, None, mode, &dir, &host)
                    .expect("fabric establishes")
            })
        })
        .collect();
    ranks
        .into_iter()
        .map(|h| h.join().expect("establish thread"))
        .collect()
}

fn finish(fabrics: &[SharedFabric]) {
    for (rank, fabric) in fabrics.iter().enumerate() {
        fabric.finish(rank);
    }
}

fn fabric_env(fabric: &SharedFabric, me: usize, tag: i32, size: usize) -> Envelope {
    envelope(
        me,
        tag,
        fabric.next_send_seq(me),
        Payload::Bytes(bytes::Bytes::from(vec![7u8; size])),
        size,
    )
}

/// `Fabric::deliver` to the peer's mailbox and back, both ranks driven
/// from this thread, so the reader threads and codec are all that run.
fn fabric_rtt_ns(fabrics: &[SharedFabric], size: usize) -> f64 {
    per_call_ns(128, || {
        fabrics[0].deliver(0, 1, fabric_env(&fabrics[0], 0, 1, size), 0, false);
        black_box(take(fabrics[1].mailbox(1), 0, 1));
        fabrics[1].deliver(1, 0, fabric_env(&fabrics[1], 1, 2, size), 0, false);
        black_box(take(fabrics[0].mailbox(0), 1, 2));
    })
}

/// Establishment time, envelope round trips and (over TCP) how many
/// records the combining writer puts in each `writev`.
fn fabrics() -> Vec<Metric> {
    const ESTABLISHES: u64 = 5;
    let mut out = Vec::new();
    for (mode, name, base) in [
        (FabricMode::Shm, "shm", 70_000),
        (FabricMode::Tcp, "tcp", 80_000),
    ] {
        let mut took = Vec::new();
        let mut last = Vec::new();
        for k in 0..ESTABLISHES {
            finish(&last);
            let start = Instant::now();
            last = mesh(mode, base + k, None);
            took.push(start.elapsed().as_secs_f64() * 1e3);
        }
        out.push(Metric::new(
            format!("net.establish_{name}_ms"),
            stats::median(&took),
            "ms",
            took.len(),
        ));
        for size in [8usize, 4 << 10] {
            out.push(Metric::new(
                format!("net.fabric.{name}_rtt_{}_ns", size_name(size)),
                fabric_rtt_ns(&last, size),
                "ns",
                BATCHES,
            ));
        }
        finish(&last);
    }
    let hub = MetricsHub::new();
    let tcp = mesh(FabricMode::Tcp, 90_000, Some(hub.clone()));
    for _ in 0..64 {
        for _ in 0..crate::gen::BURST_LEN {
            tcp[0].deliver(0, 1, fabric_env(&tcp[0], 0, 1, 8), 0, false);
        }
        for _ in 0..crate::gen::BURST_LEN {
            black_box(take(tcp[1].mailbox(1), 0, 1));
        }
    }
    finish(&tcp);
    let writev = hub.snapshot().hist_total(HistId::WRITEV_BATCH_FRAMES);
    out.push(Metric::new(
        "net.writev_records_mean",
        writev.mean(),
        "count",
        writev.count() as usize,
    ));
    out
}

/// The kernel's loopback round trip, nodelay sockets, as the TCP fabric
/// dials its peers: the host reference every TCP number sits on.
fn loopback_rtt_ns(size: usize) -> f64 {
    const ROUNDS: usize = 256;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("listener addr");
    let total = (BATCHES + 1) * ROUNDS;
    let echo = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("probe connects");
        sock.set_nodelay(true).expect("nodelay");
        let mut buf = vec![0u8; size];
        for _ in 0..total {
            sock.read_exact(&mut buf).expect("socket stays open");
            sock.write_all(&buf).expect("peer keeps reading");
        }
    });
    let mut sock = std::net::TcpStream::connect(addr).expect("echo accepts");
    sock.set_nodelay(true).expect("nodelay");
    let buf = vec![7u8; size];
    let mut back = vec![0u8; size];
    let rtt = per_call_ns(ROUNDS, || {
        sock.write_all(&buf).expect("echo keeps reading");
        sock.read_exact(&mut back).expect("echo answers");
    });
    echo.join().expect("loopback echo thread");
    rtt
}

/// Items moved through one stream edge, producer and consumer threads
/// batching like the executor's stages.
fn stream() -> Vec<Metric> {
    const ITEMS: u64 = 100_000;
    const CHUNK: usize = 32;
    /// ns per item through the edge `open` makes, as a send half and a
    /// receive half.
    fn item_ns<S, R>(open: impl Fn() -> (S, R)) -> f64
    where
        S: FnMut(&mut Vec<u64>) + Send,
        R: FnMut() -> Option<Vec<u64>>,
    {
        per_call_ns(1, || {
            let (mut send, mut recv) = open();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut batch = Vec::with_capacity(CHUNK);
                    for x in 0..ITEMS {
                        batch.push(x);
                        if batch.len() == CHUNK {
                            send(&mut batch);
                        }
                    }
                    send(&mut batch);
                });
                while let Some(batch) = recv() {
                    black_box(batch);
                }
            });
        }) / ITEMS as f64
    }
    let obs = Obs::none();
    let channel = item_ns(|| {
        let (tx, rx) = bounded::<u64>(64, 0, &obs);
        (
            move |batch: &mut Vec<u64>| {
                tx.send_many(batch.drain(..));
            },
            move || rx.recv_many(CHUNK),
        )
    });
    let edge = item_ns(|| {
        let (tx, rx) = spsc_edge::<u64>(64, 0, &obs);
        (
            move |batch: &mut Vec<u64>| {
                tx.send_many(batch.drain(..));
            },
            move || rx.recv_many(CHUNK),
        )
    });
    let hub = MetricsHub::new();
    let cfg = FarmConfig {
        workers: 2,
        capacity: 64,
        ordered: true,
        obs: Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        },
        queue_base: 0,
    };
    run_farm(
        &cfg,
        0..ITEMS,
        |x| x + 1,
        |r| {
            black_box(r);
        },
    );
    vec![
        Metric::new("stream.channel.item_ns", channel, "ns", BATCHES),
        Metric::new("stream.spsc_edge.item_ns", edge, "ns", BATCHES),
        Metric::new(
            "stream.queue_depth_max",
            hub.snapshot().total_max(GaugeId::StreamQueueDepth) as f64,
            "count",
            0,
        ),
    ]
}

/// Gateway phases of a job against an in-process daemon whose two
/// workers print four lines per rank and build no world, so the numbers
/// are the service's own cost: submit, wait for the first output, drain
/// the rest, final status.
fn serve() -> Vec<Metric> {
    const JOBS: usize = 40;
    let d = daemon::start(DaemonConfig {
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let cluster = d.cluster_addr.to_string();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = cluster.clone();
            std::thread::spawn(move || {
                run_worker(&addr, |a: &Assignment, lines: &JobLineSink| {
                    for i in 0..4 {
                        lines.line(&format!("rank {} line {i}", a.rank));
                    }
                    Ok(MetricsSnapshot::default())
                })
            })
        })
        .collect();
    while d.pool.live() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let http = d.http_addr.to_string();
    let spec = SubmitSpec {
        patternlet: "mpi/broadcast".into(),
        np: 2,
        on: false,
        chaos: String::new(),
        retries: None,
        trace: false,
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut submit, mut first, mut drain, mut status) = (vec![], vec![], vec![], vec![]);
    for _ in 0..JOBS {
        let t0 = Instant::now();
        let id = client::submit(&http, &spec).expect("probe job admitted");
        let t1 = Instant::now();
        let mut sink = Sink::default();
        client::stream_output(&http, id, &mut sink).expect("probe output streams");
        let t2 = Instant::now();
        let s = client::status(&http, id).expect("probe status");
        let t3 = Instant::now();
        assert_eq!(s.status, "completed", "probe job completes");
        let at = sink.first.unwrap_or(t2);
        submit.push(ms(t1 - t0));
        first.push(ms(at - t1));
        drain.push(ms(t2 - at));
        status.push(ms(t3 - t2));
    }
    d.drain();
    d.wait();
    for w in workers {
        let _ = w.join();
    }
    [
        ("serve.submit_ms", submit),
        ("serve.first_output_ms", first),
        ("serve.drain_ms", drain),
        ("serve.status_ms", status),
    ]
    .into_iter()
    .map(|(name, v)| Metric::new(name, stats::median(&v), "ms", v.len()))
    .collect()
}

/// The 8 B in-process round trip bare, with a tracer attached, and with
/// a metrics hub attached: what each costs when switched on.
fn observability() -> Vec<Metric> {
    let bare = pingpong_ns(World::builder(2), &[8]);
    let traced = pingpong_ns(World::builder(2).tracer(Tracer::new()), &[8]);
    let metered = pingpong_ns(World::builder(2).metrics(MetricsHub::new()), &[8]);
    vec![
        Metric::new("mp.inproc.rtt_8B_ns", bare, "ns", BATCHES),
        Metric::new("trace.on_rtt_8B_ns", traced, "ns", BATCHES),
        Metric::new("metrics.on_rtt_8B_ns", metered, "ns", BATCHES),
    ]
}
