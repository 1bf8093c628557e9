//! The stream workload: passes of 250k items with trivial per-item work,
//! so the edges between stages dominate. Passes alternate, in an order
//! drawn from the seed, between two graphs:
//!
//! * `farm`: `run_farm` with 2 workers, capacity 64 and ordered output —
//!   every edge is the MPMC `channel`.
//! * `pipeline`: a source and two stages through `Pipeline` at capacity
//!   64 — every edge is an `spsc_edge`.
//!
//! Each graph bypasses the other's edge, neither touches `mp` or `net`,
//! and the breakdown reports each graph on its own. A pass is the
//! closed-loop operation: the next starts when the last item of the
//! previous one reached the sink. Its time is the CPU time the process
//! spends on it (see `cpu`). Every output item is checked against its
//! closed form, in order.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use patternlets_metrics::{CounterId, GaugeId, MetricsHub};
use patternlets_stream::{run_farm, FarmConfig, Obs, Pipeline};

use crate::cpu::Meter;
use crate::gen::{self, StreamGraph, StreamInput};
use crate::part::{Part, SETUP};
use crate::procs;
use crate::reference::{Kind, Reference};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::Bins;

/// Items per timed pass: long enough that spawning the graph's threads is
/// a small share of a pass, short enough for a hundred passes of each
/// graph and more per run, so its 90th percentile rests on ten passes or
/// more.
const ITEMS: u64 = 250_000;

/// Items of the warm-up pass each process runs of each graph before it is
/// timed.
const WARMUP_ITEMS: u64 = 100_000;

/// Items of a set-up pass: few enough that building the graph, starting
/// its threads and tearing it down is most of the pass. One runs before
/// every timed pass, and `setup_s` is their median. Set-up passes spread
/// over the whole timed window read the host as the timed passes do; one
/// per process, at its start, read whatever state the host was in at
/// five instants, and ten runs of them spread 0.3 (interquartile range
/// over median).
const SETUP_ITEMS: u64 = 16;

/// Processes per run, each running the warm-up passes and an equal share
/// of the timed passes. Pass times can differ by a fifth between
/// processes started seconds apart, so one run samples five.
const PARTS: usize = 5;

/// The reference passes are scaled by: threads moving items through
/// bounded channels.
const REFERENCE: &[Kind] = &[Kind::Pipeline];

/// Queue capacity of every edge.
pub const CAPACITY: usize = 64;

/// Farm workers: as many as the reference host has CPUs. The run pins
/// them to one, so the farm measures its channels, not parallel speed-up.
const FARM_WORKERS: usize = 2;

/// Drive items `first .. first + n` through `graph`; returns how many
/// items reached the sink and how many of those were wrong.
fn pass(graph: StreamGraph, input: StreamInput, first: u64, n: u64, obs: &Obs) -> (u64, u64) {
    let source = (0..n).map(move |k| input.base.wrapping_add(first + k));
    let stages = match graph {
        StreamGraph::Farm => 1,
        StreamGraph::Pipeline => 2,
    };
    let (mut seen, mut wrong) = (0u64, 0u64);
    let mut sink = |out: u64| {
        let mut expect = input.base.wrapping_add(first + seen);
        for _ in 0..stages {
            expect = input.step(expect);
        }
        wrong += u64::from(out != expect);
        seen += 1;
    };
    match graph {
        StreamGraph::Farm => {
            let cfg = FarmConfig {
                workers: FARM_WORKERS,
                capacity: CAPACITY,
                ordered: true,
                obs: obs.clone(),
                queue_base: 0,
            };
            run_farm(&cfg, source, |x| input.step(x), &mut sink);
        }
        StreamGraph::Pipeline => Pipeline::source(source)
            .stage(move |x| input.step(x))
            .stage(move |x| input.step(x))
            .run(CAPACITY, obs, &mut sink),
    }
    (seen, wrong)
}

/// Run one pass as a checked operation; returns the CPU time it took, in
/// ns.
fn checked_pass(
    part: &mut Part,
    graph: StreamGraph,
    input: StreamInput,
    first: u64,
    n: u64,
    obs: &Obs,
) -> u64 {
    let cpu = Meter::own();
    let start = cpu.read().expect("own CPU clock");
    let (seen, wrong) = pass(graph, input, first, n, obs);
    let took = cpu.read().expect("own CPU clock") - start;
    part.check(
        1,
        (seen != n || wrong > 0).then(|| {
            format!(
                "{} pass at item {first}: {seen} of {n} items arrived, {wrong} wrong",
                graph.name()
            )
        }),
    );
    took
}

/// `pbench stream-part`: a warm-up pass of each graph, then a set-up pass
/// and a timed pass of the next graph in the seeded order, in turn, for
/// `run`; writes what it measured to `report`. Part `index` draws its
/// items from a range of its own.
pub fn part_main(
    seed: u64,
    run: Duration,
    index: u64,
    traced: bool,
    report: &Path,
) -> Result<(), String> {
    let mut part = Part::new(traced);
    let input = StreamInput::new(seed);
    let mut first = index << 40;
    for graph in StreamGraph::ALL {
        checked_pass(&mut part, graph, input, first, WARMUP_ITEMS, &Obs::none());
        first += WARMUP_ITEMS;
    }
    let hub = traced.then(MetricsHub::new);
    let obs = Obs {
        tracer: None,
        metrics: hub.clone(),
    };
    let mut graphs = gen::stream_graphs(seed, index);
    let mut reference = Reference::new(REFERENCE);
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < run {
        let graph = graphs.next().expect("the graph order is endless");
        reference.tick();
        let scale = reference.scale(REFERENCE);
        let setup = checked_pass(&mut part, graph, input, first, SETUP_ITEMS, &Obs::none());
        part.sample(SETUP, setup, scale);
        first += SETUP_ITEMS;
        let at = Instant::now();
        let ns = checked_pass(&mut part, graph, input, first, ITEMS, &obs);
        let span = match graph {
            StreamGraph::Farm => "stream.run_farm",
            StreamGraph::Pipeline => "stream.pipeline.run",
        };
        part.spans.record(span, passes, at, Instant::now());
        part.sample(graph.name(), ns, scale);
        first += ITEMS;
        passes += 1;
    }
    part.references = std::mem::take(&mut reference.samples);
    if let Some(hub) = hub {
        let snap = hub.snapshot();
        let count = |name: &str, v: u64| Metric::new(name, v as f64, "count", 0);
        part.details = vec![
            count("hub.stream_items_in", snap.total(CounterId::StreamItemsIn)),
            count(
                "hub.stream_queue_depth_max",
                snap.total_max(GaugeId::StreamQueueDepth),
            ),
            count("hub.spsc_spin_waits", snap.total(CounterId::SpscSpinWaits)),
            count("hub.spsc_park_waits", snap.total(CounterId::SpscParkWaits)),
        ];
    }
    std::fs::write(report, part.to_text()).map_err(|e| format!("write report: {e}"))
}

/// Run the stream workload: [`PARTS`] child processes in turn.
pub fn run(seed: u64, run: Duration, traced: bool, bins: &Bins) -> Outcome {
    let mut out = Outcome::new(traced);
    let seconds = (run / PARTS as u32).as_secs_f64().to_string();
    for index in 0..PARTS {
        let report = std::env::temp_dir().join(format!("stream-{index}.txt"));
        let mut cmd = Command::new(&bins.pbench);
        cmd.args(["stream-part", "--seed", &seed.to_string()])
            .args(["--seconds", &seconds, "--index", &index.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--report")
            .arg(&report);
        let measured = procs::output_of(&mut cmd).and_then(|_| {
            let text = std::fs::read_to_string(&report).map_err(|e| format!("part report: {e}"))?;
            Part::from_text(&text, traced)
        });
        let mut part = match measured {
            Ok(part) => part,
            Err(e) => {
                out.fail(format!("part {index}: {e}"));
                return out;
            }
        };
        out.absorb_checks(&mut part);
        for s in &part.samples {
            if s.name == SETUP {
                out.setup(s);
            } else {
                out.op(s);
                out.work(s, ITEMS as f64);
            }
        }
        // Counters are per process: keep one part's.
        out.details = part.details;
    }
    // Each graph's own rate as measured, so a change to one edge shows on
    // its graph.
    let rates: Vec<Metric> = out
        .raw_ops_ns
        .iter()
        .map(|(graph, ns)| {
            Metric::new(
                format!("{graph}_items_per_s"),
                ITEMS as f64 / stats::interquartile_mean(ns) * 1e9,
                "1/s",
                ns.len(),
            )
        })
        .collect();
    out.details.extend(rates);
    out
}
