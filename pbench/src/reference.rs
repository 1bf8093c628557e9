//! Reference operations: the state of the host, measured beside each
//! workload.
//!
//! On the 2-vCPU reference host, with a run pinned to one CPU, the same
//! operation takes a fast or a slow time depending on how the scheduler
//! interleaves the threads that hand work to each other, and the mix of
//! the two drifts over seconds to minutes, across processes. Even in CPU
//! time, the median operation of ten 15-second runs spread 0.17–0.25
//! (interquartile range over median) on `msg_shm`, `msg_tcp` and
//! `stream`, whatever the code does.
//!
//! A reference operation is a small piece of the benchmark's own code, on
//! the standard library only, that crosses the same kind of boundary as
//! the workload's operations: threads handing tokens over through a mutex
//! and condvar, a pipeline of bounded channels, a loopback socket,
//! loopback connections, or hashing a buffer, the per-byte work of large
//! messages. It drifts with the host as the workload does,
//! and no change to the repository can make it faster or slower. Each
//! timed loop runs its references every [`PERIOD`] and scales each timing
//! by the recent times of the kinds its operation is bound by:
//! `timing × nominal / median(recent times)`, which reads as the timing on
//! a host where the reference takes its nominal time, about its median on
//! the reference host. Over the same runs the median operation so scaled
//! spread 0.05–0.07. README.md has every workload's numbers.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cpu::Meter;
use crate::stats;
use crate::stream::CAPACITY;

/// How often a timed loop runs its references, at most.
pub const PERIOD: Duration = Duration::from_millis(10);

/// Reference runs a scale is the median of: the latest ones, so it
/// follows the host within a fraction of a second, and enough of them
/// that one run hit by an interrupt or a descheduled vCPU does not move
/// it.
const WINDOW: usize = 15;

/// The kind of boundary a reference operation crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Two threads pass a token back and forth [`HANDOFF_ROUNDS`] times
    /// through mutex-guarded slots, each receiver waiting the way `mp`'s
    /// mailbox does: a few yields, then a condvar park. For the message
    /// workloads.
    Handoff,
    /// A source thread and two stage threads move [`PIPELINE_ITEMS`]
    /// items through bounded `std::sync::mpsc` channels of the stream
    /// graphs' capacity to the caller. For `stream`.
    Pipeline,
    /// [`CONNECTS`] loopback TCP connections, each opened, accepted,
    /// echoing one byte and closed, on one thread. For `jobs`, whose jobs
    /// open several each.
    Connect,
    /// [`SOCKET_ROUNDS`] 8-byte round trips over a loopback TCP
    /// connection to an echo thread blocked in `read`. For `msg_shm` and
    /// `msg_tcp`, whose messages cross a ring or a socket to a reader
    /// thread.
    Socket,
    /// One thread hashes a [`CHECKSUM_BYTES`] buffer byte by byte: the
    /// per-byte work of encoding, framing and checksumming a large
    /// message, with no boundary crossed. Also for `msg_shm` and
    /// `msg_tcp`: their 4 KiB and 64 KiB round trips spend most of their
    /// time so, and slow down on the host by less than a hand-off does.
    Checksum,
}

impl Kind {
    /// The kind's name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Handoff => "handoff",
            Kind::Pipeline => "pipeline",
            Kind::Connect => "connect",
            Kind::Socket => "socket",
            Kind::Checksum => "checksum",
        }
    }

    /// The reference's nominal time, in ns: about its median over the
    /// runs of every workload on the reference host.
    fn nominal_ns(self) -> f64 {
        match self {
            Kind::Handoff => 250_000.0,
            Kind::Pipeline => 1_900_000.0,
            Kind::Connect => 350_000.0,
            Kind::Socket => 270_000.0,
            Kind::Checksum => 120_000.0,
        }
    }
}

/// Round trips of a [`Kind::Handoff`] run.
const HANDOFF_ROUNDS: u64 = 100;

/// Items of a [`Kind::Pipeline`] run.
const PIPELINE_ITEMS: u64 = 4_096;

/// Connections of a [`Kind::Connect`] run.
const CONNECTS: usize = 4;

/// Round trips of a [`Kind::Socket`] run.
const SOCKET_ROUNDS: u64 = 20;

/// Bytes a [`Kind::Checksum`] run hashes: one 64 KiB payload.
const CHECKSUM_BYTES: usize = 64 << 10;

/// Yields a [`Slot`] receiver makes before it parks: `mp`'s mailbox makes
/// 24.
const YIELDS: u32 = 24;

/// A one-token mailbox: a value and whether its receiver is parked.
#[derive(Default)]
struct Slot {
    state: Mutex<(Option<u64>, bool)>,
    arrived: Condvar,
}

impl Slot {
    fn put(&self, value: u64) {
        let mut state = self.state.lock().expect("slot lock");
        state.0 = Some(value);
        if state.1 {
            self.arrived.notify_one();
        }
    }

    /// Yield a few times, then park with a doubling timeout, until a
    /// value arrives.
    fn take(&self) -> u64 {
        let mut state = self.state.lock().expect("slot lock");
        let mut yields = YIELDS;
        let mut park = Duration::from_micros(50);
        loop {
            if let Some(value) = state.0.take() {
                state.1 = false;
                return value;
            }
            if yields > 0 {
                yields -= 1;
                drop(state);
                std::thread::yield_now();
                state = self.state.lock().expect("slot lock");
                continue;
            }
            state.1 = true;
            state = self.arrived.wait_timeout(state, park).expect("slot lock").0;
            park = (park * 2).min(Duration::from_millis(10));
        }
    }
}

/// What a [`Kind::Handoff`] run hands to its echo thread to stop it.
const STOP: u64 = u64::MAX;

/// The echo thread of a [`Kind::Handoff`] reference.
struct Echo {
    to_echo: Arc<Slot>,
    back: Arc<Slot>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> Echo {
        let (to_echo, back) = (Arc::new(Slot::default()), Arc::new(Slot::default()));
        let (rx, tx) = (Arc::clone(&to_echo), Arc::clone(&back));
        let thread = std::thread::spawn(move || loop {
            let v = rx.take();
            if v == STOP {
                return;
            }
            tx.put(v + 1);
        });
        Echo {
            to_echo,
            back,
            thread: Some(thread),
        }
    }

    fn run(&self) {
        for i in 0..HANDOFF_ROUNDS {
            self.to_echo.put(i);
            assert_eq!(self.back.take(), i + 1, "the echo thread answers in order");
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.to_echo.put(STOP);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Move [`PIPELINE_ITEMS`] through a source and two stages.
fn pipeline() {
    let step = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    let (tx1, rx1) = sync_channel::<u64>(CAPACITY);
    let (tx2, rx2) = sync_channel::<u64>(CAPACITY);
    let (tx3, rx3) = sync_channel::<u64>(CAPACITY);
    let got = std::thread::scope(|s| {
        s.spawn(move || (0..PIPELINE_ITEMS).try_for_each(|k| tx1.send(k)));
        s.spawn(move || rx1.iter().try_for_each(|x| tx2.send(step(x))));
        s.spawn(move || rx2.iter().try_for_each(|x| tx3.send(step(x))));
        rx3.iter().fold(0u64, |acc, x| acc ^ x)
    });
    let want = (0..PIPELINE_ITEMS).fold(0u64, |acc, k| acc ^ step(step(k)));
    assert_eq!(got, want, "the reference pipeline delivers every item");
}

/// Open, use and close [`CONNECTS`] connections to `listener`.
fn connects(listener: &TcpListener) {
    let addr = listener.local_addr().expect("listener address");
    for _ in 0..CONNECTS {
        let mut client = TcpStream::connect(addr).expect("loopback connect");
        let (mut server, _) = listener.accept().expect("loopback accept");
        let mut byte = [7u8];
        client.write_all(&byte).expect("loopback write");
        server.read_exact(&mut byte).expect("loopback read");
        server.write_all(&byte).expect("loopback write");
        client.read_exact(&mut byte).expect("loopback read");
    }
}

/// A loopback connection to a thread that echoes every 8 bytes it reads.
struct SocketEcho {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl SocketEcho {
    fn start() -> SocketEcho {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let stream = TcpStream::connect(listener.local_addr().expect("listener address"))
            .expect("loopback connect");
        let (mut peer, _) = listener.accept().expect("loopback accept");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        peer.set_nodelay(true).expect("TCP_NODELAY");
        let thread = std::thread::spawn(move || {
            let mut word = [0u8; 8];
            while peer.read_exact(&mut word).is_ok() {
                if peer.write_all(&word).is_err() {
                    return;
                }
            }
        });
        SocketEcho {
            stream,
            thread: Some(thread),
        }
    }

    fn run(&self) {
        let mut stream = &self.stream;
        let mut word = [0u8; 8];
        for i in 0..SOCKET_ROUNDS {
            stream.write_all(&i.to_le_bytes()).expect("loopback write");
            stream.read_exact(&mut word).expect("loopback read");
            assert_eq!(
                u64::from_le_bytes(word),
                i,
                "the echo thread answers in order"
            );
        }
    }
}

impl Drop for SocketEcho {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// FNV-1a of `bytes`, one byte at a time.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The state a reference keeps between runs.
enum Rig {
    Handoff(Echo),
    Pipeline,
    Connect(TcpListener),
    Socket(SocketEcho),
    /// The buffer and its checksum.
    Checksum(Vec<u8>, u64),
}

/// One kind of reference: its rig and its recent times.
struct Gauge {
    kind: Kind,
    rig: Rig,
    recent: VecDeque<f64>,
}

impl Gauge {
    fn new(kind: Kind) -> Gauge {
        let rig = match kind {
            Kind::Handoff => Rig::Handoff(Echo::start()),
            Kind::Pipeline => Rig::Pipeline,
            Kind::Connect => {
                Rig::Connect(TcpListener::bind("127.0.0.1:0").expect("loopback listener"))
            }
            Kind::Socket => Rig::Socket(SocketEcho::start()),
            Kind::Checksum => {
                let buf: Vec<u8> = (0..CHECKSUM_BYTES).map(|i| (i * 7 + 3) as u8).collect();
                let sum = checksum(&buf);
                Rig::Checksum(buf, sum)
            }
        };
        Gauge {
            kind,
            rig,
            recent: VecDeque::with_capacity(WINDOW),
        }
    }

    /// Run the reference once; the CPU time it took, in ns.
    fn sample(&mut self) -> f64 {
        let cpu = Meter::own();
        let start = cpu.read().expect("own CPU clock");
        match &self.rig {
            Rig::Handoff(echo) => echo.run(),
            Rig::Pipeline => pipeline(),
            Rig::Connect(listener) => connects(listener),
            Rig::Socket(echo) => echo.run(),
            Rig::Checksum(buf, sum) => assert_eq!(
                checksum(std::hint::black_box(buf)),
                *sum,
                "the checksum of an unchanged buffer holds"
            ),
        }
        let ns = (cpu.read().expect("own CPU clock") - start) as f64;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ns);
        ns
    }

    /// The nominal time over the median of the recent runs.
    fn scale(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        self.kind.nominal_ns() / stats::median(&recent)
    }
}

/// The references of one timed loop, on the calling thread: one gauge per
/// kind of boundary the workload's operations cross.
pub struct Reference {
    gauges: Vec<Gauge>,
    next: Instant,
    /// Every reference time taken: the kind's name and the time in ns.
    pub samples: Vec<(&'static str, f64)>,
}

impl Reference {
    /// References of `kinds` that have just measured the host.
    pub fn new(kinds: &[Kind]) -> Reference {
        assert!(!kinds.is_empty(), "a reference needs a kind");
        let mut reference = Reference {
            gauges: kinds.iter().map(|&k| Gauge::new(k)).collect(),
            next: Instant::now(),
            samples: Vec::new(),
        };
        reference.refresh();
        reference
    }

    fn sample(&mut self) {
        for g in &mut self.gauges {
            let ns = g.sample();
            self.samples.push((g.kind.name(), ns));
        }
        self.next = Instant::now() + PERIOD;
    }

    /// Run the references if [`PERIOD`] has passed since they last ran.
    /// Timed loops call this between operations.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.sample();
        }
    }

    /// Measure afresh: a full window of runs, for a timing that follows a
    /// pause in which nothing ticked.
    pub fn refresh(&mut self) {
        for _ in 0..WINDOW {
            self.sample();
        }
    }

    /// The factor that turns a duration measured now into one at the
    /// reference speed of `kinds`, each of which this reference measures:
    /// per kind, the nominal time over the median of the recent runs; the
    /// geometric mean over kinds.
    pub fn scale(&self, kinds: &[Kind]) -> f64 {
        let logs: Vec<f64> = kinds
            .iter()
            .map(|&k| {
                self.gauges
                    .iter()
                    .find(|g| g.kind == k)
                    .expect("scaled only by kinds it measures")
                    .scale()
                    .ln()
            })
            .collect();
        assert!(!logs.is_empty(), "a scale needs a kind");
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_measures_and_scales() {
        for kind in [
            Kind::Handoff,
            Kind::Pipeline,
            Kind::Connect,
            Kind::Socket,
            Kind::Checksum,
        ] {
            let mut r = Reference::new(&[kind]);
            assert_eq!(r.samples.len(), WINDOW, "{kind:?}");
            assert!(r
                .samples
                .iter()
                .all(|&(k, ns)| k == kind.name() && ns > 0.0));
            // Far wider than any host this runs on; narrow enough to catch
            // a reference that does nothing or a unit slip.
            let scale = r.scale(&[kind]);
            assert!((0.001..1000.0).contains(&scale), "{kind:?} scale {scale}");
            r.tick();
            assert_eq!(r.samples.len(), WINDOW, "{kind:?}: not due yet");
            r.next = Instant::now();
            r.tick();
            assert_eq!(r.samples.len(), WINDOW + 1, "{kind:?}");
            assert_eq!(r.gauges[0].recent.len(), WINDOW, "{kind:?}");
        }
    }

    #[test]
    fn several_kinds_scale_by_their_geometric_mean() {
        let r = Reference::new(&[Kind::Handoff, Kind::Socket, Kind::Checksum]);
        assert_eq!(r.samples.len(), 3 * WINDOW);
        let [handoff, socket, checksum] = [0, 1, 2].map(|i| r.gauges[i].scale());
        let both = r.scale(&[Kind::Handoff, Kind::Socket]);
        assert!((both - (handoff * socket).sqrt()).abs() < 1e-9 * both);
        assert_eq!(r.scale(&[Kind::Checksum]), checksum);
    }
}
