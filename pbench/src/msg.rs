//! The message workloads: rank 0 drives a closed loop of ping-pongs (8 B,
//! 4 KiB, 64 KiB, echoed and checked) and bursts (64 one-way 8 B messages,
//! then a checksum ack) against an echoing rank 1, through `Comm::send` and
//! `Comm::recv` — the calls every `mpi/` patternlet makes. An operation's
//! time is the CPU time both ranks spend on it (see `cpu`).
//!
//! * `msg_inproc`: both ranks are threads of one in-process `World`, the
//!   zero-copy path of `patternlets run mpi/*`.
//! * `msg_shm`, `msg_tcp`: each rank is a `pbench rank` process under
//!   `pmrun -np 2 --fabric shm|tcp`, so every message is encoded, framed
//!   and carried by the mmap rings or the sockets. These two also launch
//!   `pmrun ... patternlets mpi/broadcast` single-shot and check each
//!   transcript.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use patternlets_metrics::{CounterId, HistId, MetricsHub, MetricsSnapshot};
use patternlets_mp::{Comm, World, WorldBuilder, ANY_TAG};

use crate::cpu::Meter;
use crate::gen::{self, MsgOp, BURST_BYTES, BURST_LEN};
use crate::part::{Part, SETUP};
use crate::procs;
use crate::reference::{Kind, Reference};
use crate::report::{Metric, Outcome};
use crate::spans::Spans;
use crate::stats::{self, ratio};
use crate::Bins;

/// The references a message workload's operations are scaled by, per
/// class (see `reference`).
#[derive(Clone, Copy)]
enum Scaling {
    /// `msg_inproc`: every class by threads handing tokens over the way
    /// the mailbox does.
    InProcess,
    /// `msg_shm`, `msg_tcp`: messages also cross a ring or a socket
    /// between processes, read by a thread that wakes, and are encoded,
    /// framed and checksummed byte by byte. Bursts and 8 B round trips are
    /// bound by the crossings and wakes (`handoff`, `socket`); 4 KiB and
    /// 64 KiB round trips by the bytes and one crossing (`socket`,
    /// `checksum`). Scaled by all three, the 4 KiB and 64 KiB medians
    /// spread 0.03–0.04 over ten `msg_shm` runs (without `checksum`,
    /// 0.13–0.14), but `throughput_per_s`, the bursts', 0.07 on `msg_shm`
    /// and 0.05 on `msg_tcp`; so split, 0.03 and 0.01.
    Launched,
}

impl Scaling {
    /// Every kind some class is scaled by.
    fn gauged(self) -> &'static [Kind] {
        match self {
            Scaling::InProcess => &[Kind::Handoff],
            Scaling::Launched => &[Kind::Handoff, Kind::Socket, Kind::Checksum],
        }
    }

    /// The kinds operations of `class` are scaled by.
    fn kinds(self, class: &str) -> &'static [Kind] {
        match (self, class) {
            (Scaling::InProcess, _) => &[Kind::Handoff],
            (Scaling::Launched, BURST | "rtt_8B") => &[Kind::Handoff, Kind::Socket],
            (Scaling::Launched, _) => &[Kind::Socket, Kind::Checksum],
        }
    }
}

const TAG_PING: i32 = 1;
const TAG_PONG: i32 = 2;
const TAG_BURST: i32 = 3;
const TAG_ACK: i32 = 4;
const TAG_STOP: i32 = 5;
const TAG_PID: i32 = 6;

/// Operations per block. A block is BLOCK operations of one kind, timed
/// together: reading the CPU clocks costs about a microsecond, which is a
/// third of one in-process 8 B round trip but a small share of a block.
/// The latency sample of a block is its mean operation time.
const BLOCK: u64 = 16;

/// Untimed blocks before the clock starts: fills caches, grows the
/// mailboxes and rings, and faults in every page the loop touches.
const WARMUP_BLOCKS: usize = 16;

/// Worlds per run, each carrying an equal share of the timed load.
/// `setup_s` is the median of their set-ups.
const WORLDS: usize = 5;

/// Single-shot `pmrun ... mpi/broadcast` launches checked per run.
const LAUNCHES: usize = 40;

/// Traced runs keep the spans of one timed block in this many: every
/// call of every operation would be millions of spans a run in-process.
const SPAN_EVERY: u64 = 32;

/// The sample name of a ping-pong of `size` bytes: its latency class.
fn rtt_class(size: usize) -> &'static str {
    match size {
        8 => "rtt_8B",
        4096 => "rtt_4KiB",
        65536 => "rtt_64KiB",
        _ => unreachable!("ping sizes are fixed"),
    }
}

/// The sample name of a burst.
const BURST: &str = "burst";

/// A block that ran: its class, its mean CPU time per operation in ns,
/// and the operations whose output was wrong. `Err` when the world
/// itself failed.
type BlockResult = Result<(&'static str, u64, Vec<String>), String>;

/// Run one block of `op`, operations numbered from `round`. Inputs are
/// made before the clocks are read, and outputs checked after.
fn one_block(
    comm: &Comm,
    cpu: &Meter,
    seed: u64,
    round: u64,
    op: MsgOp,
    spans: &mut Spans,
) -> BlockResult {
    let err = |e: patternlets_core::Error| format!("round {round}: {e}");
    let clock = || {
        cpu.read()
            .map_err(|e| format!("round {round}: CPU clock: {e}"))
    };
    let rounds = round..round + BLOCK;
    match op {
        MsgOp::Ping(size) => {
            let outs: Vec<Vec<u8>> = rounds
                .clone()
                .map(|r| gen::payload(seed, r, size))
                .collect();
            let mut wrong = Vec::new();
            let start = clock()?;
            for (r, out) in rounds.zip(&outs) {
                spans
                    .time("mp.comm.send", r, || comm.send(out, 1, TAG_PING))
                    .map_err(err)?;
                let (back, _) = spans
                    .time("mp.comm.recv", r, || comm.recv::<u8>(1, TAG_PONG))
                    .map_err(err)?;
                if back != *out {
                    wrong.push(format!("round {r}: {size} B echo differs"));
                }
            }
            let ns = clock()? - start;
            Ok((rtt_class(size), ns / BLOCK, wrong))
        }
        MsgOp::Burst => {
            let bursts: Vec<Vec<Vec<u8>>> = rounds
                .clone()
                .map(|r| {
                    (0..BURST_LEN as u64)
                        .map(|i| gen::payload(seed, r << 8 | i, BURST_BYTES))
                        .collect()
                })
                .collect();
            let mut acks = Vec::with_capacity(bursts.len());
            let start = clock()?;
            for (r, msgs) in rounds.clone().zip(&bursts) {
                for m in msgs {
                    spans
                        .time("mp.comm.send", r, || comm.send(m, 1, TAG_BURST))
                        .map_err(err)?;
                }
                let (ack, _) = spans
                    .time("mp.comm.recv", r, || comm.recv::<u64>(1, TAG_ACK))
                    .map_err(err)?;
                acks.push(ack);
            }
            let ns = clock()? - start;
            let wrong = rounds
                .zip(bursts.iter().zip(&acks))
                .filter(|(_, (msgs, ack))| {
                    let expect = msgs.iter().fold(0u64, |acc, m| acc.wrapping_add(word(m)));
                    ack[..] != [expect]
                })
                .map(|(r, _)| format!("round {r}: burst checksum differs"))
                .collect();
            Ok((BURST, ns / BLOCK, wrong))
        }
    }
}

/// The first eight bytes of a burst message as a number.
fn word(m: &[u8]) -> u64 {
    u64::from_le_bytes(m[..8].try_into().expect("burst messages are 8 bytes"))
}

/// Where the CPU time a world's set-up is charged starts.
#[derive(Clone, Copy)]
enum SetupFrom {
    /// In-process: this reading of this process's clock, taken before the
    /// world was built.
    Reading(u64),
    /// Launched: when `pmrun` and the two ranks started, from which their
    /// clocks count.
    Launch,
}

/// The clocks rank 0 reads, learning rank 1's pid from its first message:
/// the ranks' processes for operations, and for set-up also `pmrun`, with
/// the reading set-up starts from.
fn meters(comm: &Comm, from: SetupFrom) -> Result<(Meter, Meter, u64), String> {
    let (peer, _) = comm
        .recv::<u64>(1, TAG_PID)
        .map_err(|e| format!("rank 1 pid: {e}"))?;
    match from {
        SetupFrom::Reading(base) => Ok((Meter::own(), Meter::own(), base)),
        SetupFrom::Launch => {
            let peer = u32::try_from(peer[0]).map_err(|_| "rank 1 pid out of range")?;
            let with = |pids: &[u32]| Meter::with(pids).map_err(|e| format!("CPU clocks: {e}"));
            let launcher = std::os::unix::process::parent_id();
            Ok((with(&[peer])?, with(&[peer, launcher])?, 0))
        }
    }
}

/// Rank 0: warm up, record the set-up, run the timed loop for `run`
/// beside the references of `scaling`, then stop rank 1.
fn lead(
    comm: &Comm,
    seed: u64,
    run: Duration,
    traced: bool,
    scaling: Scaling,
    from: SetupFrom,
) -> Part {
    let mut part = Part::new(traced);
    match meters(comm, from) {
        Ok((cpu, setup, base)) => drive(comm, &cpu, (&setup, base), seed, run, scaling, &mut part),
        Err(e) => part.failures.push(e),
    }
    if let Err(e) = comm.send::<u8>(&[], 1, TAG_STOP) {
        part.failures.push(format!("stop: {e}"));
    }
    part
}

/// Rank 0's measured part: the set-up (`setup` read once the world is up,
/// less `base`), [`WARMUP_BLOCKS`] untimed blocks, then timed blocks until
/// `run` has passed, with spans sampled into `part`'s.
fn drive(
    comm: &Comm,
    cpu: &Meter,
    (setup, base): (&Meter, u64),
    seed: u64,
    run: Duration,
    scaling: Scaling,
    part: &mut Part,
) {
    let mut ops = gen::msg_ops(seed);
    let mut unsampled = Spans::new(false, 0);
    let mut round = 0u64;
    // One checked block, timed when references are given; false once the
    // world has failed.
    let mut step = |part: &mut Part, spans: &mut Spans, reference: Option<&Reference>| {
        let op = ops.next().expect("the op stream is endless");
        let result = one_block(comm, cpu, seed, round, op, spans);
        round += BLOCK;
        match result {
            Ok((name, ns, wrong)) => {
                if let (Some(r), true) = (reference, wrong.is_empty()) {
                    part.sample(name, ns, r.scale(scaling.kinds(name)));
                }
                part.check(BLOCK, wrong);
                true
            }
            Err(e) => {
                part.check(1, Some(e));
                false
            }
        }
    };
    let setup_ns = match setup.read() {
        Ok(t) => t - base,
        Err(e) => return part.failures.push(format!("set-up CPU clocks: {e}")),
    };
    if !(0..WARMUP_BLOCKS).all(|_| step(part, &mut unsampled, None)) {
        return;
    }
    let mut reference = Reference::new(scaling.gauged());
    part.sample(SETUP, setup_ns, reference.scale(scaling.gauged()));
    let mut spans = std::mem::replace(&mut part.spans, Spans::new(false, 0));
    let start = Instant::now();
    let mut timed = 0u64;
    let mut alive = true;
    while alive && start.elapsed() < run {
        reference.tick();
        let sink = if timed.is_multiple_of(SPAN_EVERY) {
            &mut spans
        } else {
            &mut unsampled
        };
        alive = step(part, sink, Some(&reference));
        timed += 1;
    }
    part.spans = spans;
    part.references = std::mem::take(&mut reference.samples);
}

/// Rank 1: announce this process's pid, echo pings, acknowledge each
/// burst with its checksum, return on the stop message.
fn echo(comm: &Comm) -> Result<(), String> {
    comm.send_one(u64::from(std::process::id()), 0, TAG_PID)
        .map_err(|e| e.to_string())?;
    let mut sum = 0u64;
    let mut got = 0usize;
    loop {
        let (data, status) = comm.recv::<u8>(0, ANY_TAG).map_err(|e| e.to_string())?;
        match status.tag {
            TAG_PING => comm.send(&data, 0, TAG_PONG).map_err(|e| e.to_string())?,
            TAG_BURST if data.len() == BURST_BYTES => {
                sum = sum.wrapping_add(word(&data));
                got += 1;
                if got == BURST_LEN {
                    comm.send_one(sum, 0, TAG_ACK).map_err(|e| e.to_string())?;
                    (sum, got) = (0, 0);
                }
            }
            TAG_STOP => return Ok(()),
            tag => return Err(format!("unexpected tag {tag} ({} bytes)", data.len())),
        }
    }
}

/// Rows derived from the counters of a hub attached to the world.
fn hub_details(snap: &MetricsSnapshot) -> Vec<Metric> {
    let recvd = snap.total(CounterId::MsgsRecv);
    let spins = snap.total(CounterId::SpscSpinWaits);
    let ring_parks = snap.total(CounterId::SpscParkWaits);
    let writev = snap.hist_total(HistId::WRITEV_BATCH_FRAMES);
    let mut rows = vec![
        Metric::new("hub.msgs_recv", recvd as f64, "count", 0),
        Metric::new(
            "hub.recv_spin_ratio",
            ratio(snap.total(CounterId::RecvSpin), recvd),
            "ratio",
            0,
        ),
        Metric::new(
            "hub.zerocopy_hit_rate",
            snap.zerocopy_hit_rate().unwrap_or(0.0),
            "ratio",
            0,
        ),
    ];
    if spins + ring_parks > 0 {
        rows.push(Metric::new(
            "hub.spsc_spin_ratio",
            ratio(spins, spins + ring_parks),
            "ratio",
            0,
        ));
    }
    if writev.count() > 0 {
        rows.push(Metric::new(
            "hub.writev_records_mean",
            writev.mean(),
            "count",
            writev.count() as usize,
        ));
    }
    rows
}

fn builder(hub: &Option<MetricsHub>) -> WorldBuilder {
    let b = World::builder(2);
    match hub {
        Some(h) => b.metrics(h.clone()),
        None => b,
    }
}

/// Fold one world's measurements into the outcome and the run's bursts
/// (as measured, in ns).
fn absorb(out: &mut Outcome, bursts: &mut Vec<f64>, mut part: Part) {
    out.absorb_checks(&mut part);
    for s in &part.samples {
        match s.name {
            SETUP => out.setup(s),
            BURST => {
                bursts.push(s.raw_ns as f64);
                out.work(s, BURST_LEN as f64);
            }
            _ => out.op(s),
        }
    }
}

/// The burst breakdown rows, as measured, once every world is in.
fn burst_details(out: &mut Outcome, bursts: &[f64]) {
    out.detail_latency("burst_64x8B", bursts, "us");
    if !bursts.is_empty() {
        out.details.push(Metric::new(
            "burst_8B_msgs_per_s",
            BURST_LEN as f64 / stats::interquartile_mean(bursts) * 1e9,
            "1/s",
            bursts.len(),
        ));
    }
}

enum RankOut {
    Lead(Part),
    Echo(Result<(), String>),
}

/// Run one two-rank world: rank 0 leads, rank 1 echoes.
fn world(
    hub: &Option<MetricsHub>,
    seed: u64,
    run: Duration,
    traced: bool,
    scaling: Scaling,
    from: SetupFrom,
) -> Result<Vec<RankOut>, String> {
    builder(hub)
        .run(|comm| {
            if comm.rank() == 0 {
                RankOut::Lead(lead(&comm, seed, run, traced, scaling, from))
            } else {
                RankOut::Echo(echo(&comm))
            }
        })
        .map_err(|e| format!("world: {e}"))
}

/// `msg_inproc`: [`WORLDS`] in-process worlds, each running its share of
/// the timed loop.
pub fn inproc(seed: u64, run: Duration, traced: bool) -> Outcome {
    let mut out = Outcome::new(traced);
    let mut bursts = Vec::new();
    let hub = traced.then(MetricsHub::new);
    for _ in 0..WORLDS {
        let from = SetupFrom::Reading(Meter::own().read().expect("own CPU clock"));
        let ranks = match world(
            &hub,
            seed,
            run / WORLDS as u32,
            traced,
            Scaling::InProcess,
            from,
        ) {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
        for rank in ranks {
            match rank {
                RankOut::Lead(part) => absorb(&mut out, &mut bursts, part),
                RankOut::Echo(Err(e)) => out.fail(format!("rank 1: {e}")),
                RankOut::Echo(Ok(())) => {}
            }
        }
    }
    burst_details(&mut out, &bursts);
    if let Some(h) = &hub {
        out.details.extend(hub_details(&h.snapshot()));
    }
    out
}

/// `pbench rank`: play one rank of a `pmrun` world; rank 0 writes what it
/// measured to `report`.
pub fn rank_main(seed: u64, run: Duration, traced: bool, report: &Path) -> Result<(), String> {
    match patternlets_net::install_from_env() {
        Ok(Some(_)) => {}
        Ok(None) => return Err("`pbench rank` runs under pmrun".into()),
        Err(e) => return Err(format!("pmrun environment: {e}")),
    }
    let hub = traced.then(MetricsHub::new);
    let ranks = world(
        &hub,
        seed,
        run,
        traced,
        Scaling::Launched,
        SetupFrom::Launch,
    )?;
    for rank in ranks {
        match rank {
            RankOut::Lead(mut part) => {
                if let Some(h) = &hub {
                    part.details = hub_details(&h.snapshot());
                }
                std::fs::write(report, part.to_text()).map_err(|e| format!("write report: {e}"))?;
            }
            RankOut::Echo(r) => r?,
        }
    }
    Ok(())
}

/// `msg_shm` / `msg_tcp`: launch the two-rank world under `pmrun`
/// [`WORLDS`] times, each running its share of the timed loop; then check
/// single-shot patternlet launches.
pub fn launched(fabric: &str, seed: u64, run: Duration, traced: bool, bins: &Bins) -> Outcome {
    let mut out = Outcome::new(traced);
    let mut bursts = Vec::new();
    let mut hub_rows = Vec::new();
    let timeout = (run.as_secs() + 60).to_string();
    let seconds = (run / WORLDS as u32).as_secs_f64().to_string();
    for k in 0..WORLDS {
        let report = std::env::temp_dir().join(format!("rank0-{k}.txt"));
        let mut cmd = Command::new(&bins.pmrun);
        cmd.args(["-np", "2", "--fabric", fabric, "--timeout", &timeout])
            .arg(&bins.pbench)
            .args(["rank", "--seed", &seed.to_string(), "--seconds", &seconds])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--report")
            .arg(&report);
        let measured = procs::output_of(&mut cmd).and_then(|_| {
            let text =
                std::fs::read_to_string(&report).map_err(|e| format!("rank 0 report: {e}"))?;
            Part::from_text(&text, traced)
        });
        match measured {
            Ok(mut part) => {
                // Counters are per process: keep one world's.
                hub_rows = std::mem::take(&mut part.details);
                absorb(&mut out, &mut bursts, part);
            }
            Err(e) => {
                out.fail(format!("{fabric} world {k}: {e}"));
                return out;
            }
        }
    }
    burst_details(&mut out, &bursts);
    out.details.extend(hub_rows);
    check_launches(&mut out, fabric, bins);
    out
}

/// Launch `pmrun -np 2 --fabric F patternlets mpi/broadcast` single-shot
/// [`LAUNCHES`] times; each transcript must equal the in-process run's.
fn check_launches(out: &mut Outcome, fabric: &str, bins: &Bins) {
    let reference = match procs::output_of(Command::new(&bins.patternlets).args([
        "run",
        "mpi/broadcast",
        "-n",
        "2",
    ])) {
        Ok((text, _)) => procs::line_multiset(&text),
        Err(e) => {
            out.fail(format!("reference transcript: {e}"));
            return;
        }
    };
    let mut took = Vec::with_capacity(LAUNCHES);
    for i in 0..LAUNCHES {
        let result = procs::output_of(
            Command::new(&bins.pmrun)
                .args(["-np", "2", "--fabric", fabric, "--timeout", "60"])
                .arg(&bins.patternlets)
                .arg("mpi/broadcast"),
        );
        match result {
            Ok((text, t)) => {
                took.push(t.as_nanos() as f64);
                let same = procs::line_multiset(&text) == reference;
                out.check(same, || format!("launch {i}: transcript differs"));
            }
            Err(e) => out.check(false, || format!("launch {i}: {e}")),
        }
    }
    out.detail_latency("launch", &took, "ms");
}
