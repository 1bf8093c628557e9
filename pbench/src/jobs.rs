//! The job workload: the real `pmserve --workers 4` daemon with its
//! `patternlets worker` processes, and a closed-loop client. A student
//! waits for `patternlets submit` to print the whole output before
//! submitting again, so the client runs `client::submit`, then
//! `stream_output` to the end, then `status`, pauses for [`THINK`], and
//! submits its next job. Job bodies are tiny: job set-up and teardown
//! dominate, per-message cost barely shows. A job's time is the CPU time
//! the daemon, its workers and the client spend on it (see `cpu`).
//!
//! Every job's line multiset must equal a single-shot `pmrun` transcript
//! of the same patternlet, world size and directive, recorded first.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use patternlets_serve::client::{self, SubmitSpec};
use patternlets_serve::http::http_exchange;
use patternlets_serve::json::Json;

use crate::cpu::Meter;
use crate::gen::{self, JobSpec};
use crate::part::{Sample, SETUP};
use crate::procs::{self, Group};
use crate::reference::{Kind, Reference};
use crate::report::Outcome;
use crate::spans::{intern, Spans};
use crate::Bins;

/// The reference jobs are scaled by: loopback connections, of which every
/// job opens several.
const REFERENCE: &[Kind] = &[Kind::Connect];

/// A client's pause between the end of one job and its next submission.
/// Every job leaves about eight loopback sockets in TIME_WAIT for a
/// minute; at full speed (~350 jobs/s) a 10 s run leaves ~30k, and past
/// ~50k every `bind` of a job's listeners costs 0.2–0.4 ms instead of
/// ~8 µs, so back-to-back runs would measure the previous run's
/// leftovers. Pausing holds the rate near 30 jobs/s, which keeps that
/// count low even when runs follow each other.
const THINK: Duration = Duration::from_millis(30);

/// Daemons per run, each carrying an equal share of the timed load.
/// `setup_s` is the median of their set-ups.
const SETUPS: usize = 3;

/// Workers the daemon keeps.
const WORKERS: usize = 4;

/// How long a daemon may take to come up or drain.
const DAEMON_LIMIT: Duration = Duration::from_secs(30);

type References = HashMap<JobSpec, Vec<String>>;

fn submit_spec(job: &JobSpec) -> SubmitSpec {
    SubmitSpec {
        patternlet: job.patternlet.to_string(),
        np: job.np,
        on: job.on,
        chaos: String::new(),
        retries: None,
        trace: false,
    }
}

/// A running `pmserve` and its gateway address.
struct Daemon {
    group: Group,
    http: String,
    drained: std::thread::JoinHandle<()>,
}

impl Daemon {
    /// Start the daemon and wait until all its workers have joined.
    fn start(bins: &Bins) -> Result<Daemon, String> {
        let mut cmd = Command::new(&bins.pmserve);
        cmd.args(["--workers", &WORKERS.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut group = Group::spawn(&mut cmd).map_err(|e| format!("cannot spawn pmserve: {e}"))?;
        let stdout = group.child().stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keep reading to EOF so the daemon never blocks on a full pipe.
        let drained = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("pmserve: gateway on http://") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let http = rx
            .recv_timeout(DAEMON_LIMIT)
            .map_err(|_| "pmserve never printed its gateway".to_string())?;
        let daemon = Daemon {
            group,
            http,
            drained,
        };
        let deadline = Instant::now() + DAEMON_LIMIT;
        while daemon.live() != Some(WORKERS) {
            if Instant::now() >= deadline {
                return Err(format!("pool never reached {WORKERS} live workers"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// The CPU clocks of this process, the daemon and its workers.
    fn meter(&self) -> Result<Meter, String> {
        let pmserve = self.group.pid();
        let mut pids = procs::children_of(pmserve).map_err(|e| format!("listing workers: {e}"))?;
        if pids.len() != WORKERS {
            return Err(format!(
                "pmserve has {} child processes, not {WORKERS}",
                pids.len()
            ));
        }
        pids.push(pmserve);
        Meter::with(&pids).map_err(|e| format!("CPU clocks: {e}"))
    }

    fn live(&self) -> Option<usize> {
        let (code, body) = http_exchange(&self.http, "GET", "/workers", None).ok()?;
        (code == 200).then_some(())?;
        Json::parse(&body)?
            .get("live")?
            .as_u64()
            .map(|n| n as usize)
    }

    /// SIGTERM drain; the daemon must exit 0 and take its workers along.
    fn stop(mut self) -> Result<(), String> {
        self.group.terminate();
        let status = self.group.wait_for(DAEMON_LIMIT);
        drop(self.group);
        let _ = self.drained.join();
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("pmserve drained with {s}")),
            None => Err("pmserve did not drain in time".into()),
        }
    }
}

/// Collects a job's streamed output and notes when its first byte came.
#[derive(Default)]
pub struct Sink {
    /// The output so far.
    pub bytes: Vec<u8>,
    /// When the first byte arrived.
    pub first: Option<Instant>,
}

impl Write for Sink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.first.get_or_insert_with(Instant::now);
        self.bytes.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run one job to the end; it must complete with the reference output.
fn one_job(
    http: &str,
    job: &JobSpec,
    refs: &References,
    spans: &mut Spans,
    op: u64,
) -> Result<(), String> {
    let id = spans.time("serve.submit", op, || {
        client::submit(http, &submit_spec(job))
    })?;
    let mut sink = Sink::default();
    let start = Instant::now();
    spans.time("serve.stream_output", op, || {
        client::stream_output(http, id, &mut sink)
    })?;
    if let Some(first) = sink.first {
        spans.record("serve.first_output", op, start, first);
        spans.record("serve.drain", op, first, Instant::now());
    }
    let status = spans.time("serve.status", op, || client::status(http, id))?;
    if status.status != "completed" {
        return Err(format!("job {id} ({job:?}) ended {}", status.status));
    }
    let lines = procs::line_multiset(&String::from_utf8_lossy(&sink.bytes));
    if refs.get(job) != Some(&lines) {
        return Err(format!(
            "job {id} ({job:?}) output differs from single-shot pmrun"
        ));
    }
    Ok(())
}

/// Single-shot `pmrun` transcripts of every job in the mix.
fn references(bins: &Bins, out: &mut Outcome) -> References {
    let mut refs = References::new();
    let mut took = Vec::new();
    for job in gen::job_mix() {
        let mut cmd = Command::new(&bins.pmrun);
        cmd.args(["-np", &job.np.to_string(), "--timeout", "60"])
            .arg(&bins.patternlets)
            .arg(job.patternlet);
        if job.on {
            cmd.arg("--on");
        }
        match procs::output_of(&mut cmd) {
            Ok((text, t)) => {
                took.push(t.as_nanos() as f64);
                refs.insert(job, procs::line_multiset(&text));
            }
            Err(e) => out.fail(format!("reference {job:?}: {e}")),
        }
    }
    out.detail_latency("single_shot_pmrun", &took, "ms");
    refs
}

/// Run the job workload: [`SETUPS`] daemons in turn, each carrying an
/// equal share of the timed loop.
pub fn run(seed: u64, run: Duration, traced: bool, bins: &Bins) -> Outcome {
    let mut out = Outcome::new(traced);
    let refs = references(bins, &mut out);
    if out.failed > 0 {
        return out;
    }
    let mut reference = Reference::new(REFERENCE);
    for k in 0..SETUPS {
        let share = run / SETUPS as u32;
        if let Err(e) = serve(
            &mut out,
            &mut reference,
            bins,
            &refs,
            (seed, k as u64),
            share,
            traced,
        ) {
            out.fail(e);
            break;
        }
    }
    out.reference_times(std::mem::take(&mut reference.samples));
    out
}

/// One daemon's share: start it, warm it up with one job of each kind of
/// the mix, record the set-up, run the closed loop with the jobs of
/// client `client` of `seed` until `run` has passed, and drain it.
fn serve(
    out: &mut Outcome,
    reference: &mut Reference,
    bins: &Bins,
    refs: &References,
    (seed, client): (u64, u64),
    run: Duration,
    traced: bool,
) -> Result<(), String> {
    let before = Meter::own().read().expect("own CPU clock");
    let daemon = Daemon::start(bins)?;
    let cpu = daemon.meter()?;
    let mut warm = Spans::new(false, 0);
    for (op, job) in gen::job_mix().iter().enumerate() {
        let r = one_job(&daemon.http, job, refs, &mut warm, op as u64);
        out.check(r.is_ok(), || r.unwrap_err());
    }
    let setup_ns = cpu.read().map_err(|e| format!("CPU clocks: {e}"))? - before;
    reference.refresh();
    out.setup(&Sample {
        name: SETUP,
        raw_ns: setup_ns,
        ns: setup_ns as f64 * reference.scale(REFERENCE),
    });
    let mut spans = Spans::new(traced, 0);
    let deadline = Instant::now() + run;
    for (op, job) in gen::jobs(seed, client).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        reference.tick();
        let start = cpu.read().map_err(|e| format!("CPU clocks: {e}"))?;
        let result = one_job(&daemon.http, &job, refs, &mut spans, op as u64);
        let took = cpu.read().map_err(|e| format!("CPU clocks: {e}"))? - start;
        match result {
            Ok(()) => {
                out.check(true, String::new);
                let s = Sample {
                    name: intern(&format!("job_np{}", job.np)),
                    raw_ns: took,
                    ns: took as f64 * reference.scale(REFERENCE),
                };
                out.op(&s);
                out.work(&s, 1.0);
            }
            Err(e) => out.check(false, || e),
        }
        std::thread::sleep(THINK);
    }
    out.spans.absorb(spans);
    daemon.stop()
}
