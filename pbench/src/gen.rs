//! Seeded input generators. Every input a workload feeds the system under
//! test is derived from `--seed`: the same seed replays the same
//! operations, sizes, payload bytes and jobs; another seed reorders them
//! but keeps the mix.

use patternlets_core::rng::{Rng, SplitMix64, Xoshiro256StarStar};

/// Ping-pong payload sizes: the smallest message (inline path), a page,
/// and a payload far above the inline and frame-batching thresholds.
pub const PING_SIZES: [usize; 3] = [8, 4 << 10, 64 << 10];

/// A payload size as it appears in names: `8B`, `4KiB`, `64KiB`.
pub fn size_name(size: usize) -> String {
    if size >= 1024 {
        format!("{}KiB", size / 1024)
    } else {
        format!("{size}B")
    }
}

/// One-way messages per burst, each [`BURST_BYTES`] long, then one ack.
pub const BURST_LEN: usize = 64;

/// Size of each burst message.
pub const BURST_BYTES: usize = 8;

/// One closed-loop operation of the message workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgOp {
    /// Send a payload of this many bytes and wait for its echo.
    Ping(usize),
    /// Send [`BURST_LEN`] small messages, then wait for one ack.
    Burst,
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// An endless stream of `items` dealt in blocks: each block holds every
/// item once, in a seeded order. Any whole number of blocks therefore has
/// the same mix for every seed, so a seed changes the order and never the
/// proportions a percentile is taken over.
pub struct Blocks<T> {
    rng: Xoshiro256StarStar,
    items: Vec<T>,
    block: Vec<T>,
}

impl<T: Clone> Blocks<T> {
    /// Deal `items` for `seed`; `stream` separates independent consumers
    /// of one seed (for example two clients).
    pub fn new(items: Vec<T>, seed: u64, stream: u64) -> Self {
        assert!(!items.is_empty(), "nothing to deal");
        Blocks {
            rng: Xoshiro256StarStar::seeded(seed).split(stream),
            items,
            block: Vec::new(),
        }
    }
}

impl<T: Clone> Iterator for Blocks<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.block.is_empty() {
            self.block = self.items.clone();
            shuffle(&mut self.rng, &mut self.block);
        }
        self.block.pop()
    }
}

/// The message workloads' operation stream: three ping-pong sizes and one
/// burst per block.
pub fn msg_ops(seed: u64) -> Blocks<MsgOp> {
    let mut ops: Vec<MsgOp> = PING_SIZES.iter().map(|&s| MsgOp::Ping(s)).collect();
    ops.push(MsgOp::Burst);
    Blocks::new(ops, seed, 0)
}

/// Payload bytes for operation `round`: a function of seed and round
/// only, so the echo can be checked against a regenerated copy.
pub fn payload(seed: u64, round: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Patternlets the job workload submits: `mpi/` programs whose output is
/// a fixed line multiset at every world size (`mpi/masterWorker` is not:
/// which worker gets which task varies from run to run).
pub const JOB_PATTERNLETS: [&str; 8] = [
    "mpi/broadcast",
    "mpi/reduction",
    "mpi/scatter",
    "mpi/gather",
    "mpi/allgather",
    "mpi/barrier",
    "mpi/messagePassing",
    "mpi/sequenceNumbers",
];

/// World sizes jobs are submitted at.
pub const JOB_NPS: [usize; 2] = [2, 4];

/// One job of the job workload's mix.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobSpec {
    /// Catalog name.
    pub patternlet: &'static str,
    /// World size.
    pub np: usize,
    /// Directive toggle.
    pub on: bool,
}

/// Every job of the mix once: patternlets × world sizes × off/on.
pub fn job_mix() -> Vec<JobSpec> {
    let mut mix = Vec::new();
    for &patternlet in &JOB_PATTERNLETS {
        for &np in &JOB_NPS {
            for on in [false, true] {
                mix.push(JobSpec { patternlet, np, on });
            }
        }
    }
    mix
}

/// The job sequence client `client` submits.
pub fn jobs(seed: u64, client: u64) -> Blocks<JobSpec> {
    Blocks::new(job_mix(), seed, 1 + client)
}

/// The two graphs the stream workload alternates between.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamGraph {
    /// `run_farm` over MPMC channels.
    Farm,
    /// A source and two stages through `Pipeline`, over SPSC edges.
    Pipeline,
}

impl StreamGraph {
    /// Both graphs.
    pub const ALL: [StreamGraph; 2] = [StreamGraph::Farm, StreamGraph::Pipeline];

    /// The graph's name, which is also its latency class.
    pub fn name(self) -> &'static str {
        match self {
            StreamGraph::Farm => "farm",
            StreamGraph::Pipeline => "pipeline",
        }
    }
}

/// The order stream process `part` runs its timed passes in: both graphs
/// in every block of two.
pub fn stream_graphs(seed: u64, part: u64) -> Blocks<StreamGraph> {
    Blocks::new(StreamGraph::ALL.to_vec(), seed, 1 << 32 | part)
}

/// The stream workload's items and per-stage work: item `k` of a pass is
/// `base + k`, and each stage applies one cheap mixing step, so every
/// output has a closed form to check it against.
#[derive(Clone, Copy, Debug)]
pub struct StreamInput {
    /// Value of item 0.
    pub base: u64,
    /// Odd multiplier of the per-stage step.
    pub mul: u64,
}

impl StreamInput {
    /// The input for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5354_5245_414D);
        StreamInput {
            base: rng.next_u64() >> 16,
            mul: rng.next_u64() | 1,
        }
    }

    /// One stage's work on an item.
    pub fn step(&self, x: u64) -> u64 {
        x.wrapping_mul(self.mul).rotate_left(17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn counts<T: Ord + Clone>(items: &[T]) -> BTreeMap<T, usize> {
        let mut m = BTreeMap::new();
        for it in items {
            *m.entry(it.clone()).or_default() += 1;
        }
        m
    }

    #[test]
    fn same_seed_replays_ops_sizes_payloads_and_jobs() {
        let a: Vec<MsgOp> = msg_ops(7).take(400).collect();
        let b: Vec<MsgOp> = msg_ops(7).take(400).collect();
        assert_eq!(a, b);
        assert_eq!(payload(7, 3, 4096), payload(7, 3, 4096));
        assert_eq!(payload(7, 3, 4096).len(), 4096);
        let ja: Vec<JobSpec> = jobs(7, 0).take(200).collect();
        let jb: Vec<JobSpec> = jobs(7, 0).take(200).collect();
        assert_eq!(ja, jb);
        let ga: Vec<StreamGraph> = stream_graphs(7, 3).take(100).collect();
        let gb: Vec<StreamGraph> = stream_graphs(7, 3).take(100).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn another_seed_reorders_but_keeps_the_mix() {
        let a: Vec<MsgOp> = msg_ops(1).take(400).collect();
        let b: Vec<MsgOp> = msg_ops(2).take(400).collect();
        assert_ne!(a, b);
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(counts(&a).values().copied().collect::<Vec<_>>(), [100; 4]);

        let n = 5 * job_mix().len();
        let ja: Vec<JobSpec> = jobs(1, 0).take(n).collect();
        let jb: Vec<JobSpec> = jobs(2, 0).take(n).collect();
        assert_ne!(ja, jb);
        assert_eq!(counts(&ja), counts(&jb));
        // Two clients of one seed see different orders of the same mix.
        let other: Vec<JobSpec> = jobs(1, 1).take(n).collect();
        assert_ne!(ja, other);
        assert_eq!(counts(&ja), counts(&other));

        let ga: Vec<StreamGraph> = stream_graphs(1, 0).take(100).collect();
        let gb: Vec<StreamGraph> = stream_graphs(2, 0).take(100).collect();
        assert_ne!(ga, gb);
        assert_eq!(counts(&ga), counts(&gb));
        assert_eq!(counts(&ga).values().copied().collect::<Vec<_>>(), [50; 2]);
        // Two processes of one seed run the graphs in different orders.
        assert_ne!(ga, stream_graphs(1, 1).take(100).collect::<Vec<_>>());

        assert_ne!(payload(1, 3, 64), payload(2, 3, 64));
        assert_ne!(payload(1, 3, 64), payload(1, 4, 64));
    }

    #[test]
    fn stream_input_depends_on_the_seed() {
        let (a, b) = (StreamInput::new(1), StreamInput::new(2));
        assert_ne!((a.base, a.mul), (b.base, b.mul));
        assert_eq!(a.mul % 2, 1);
        assert_eq!(a.step(5), StreamInput::new(1).step(5));
    }
}
