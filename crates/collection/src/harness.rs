//! The patternlet harness: metadata, run configuration, and the runner.

use patternlets_core::capture::{Output, Sink};
use patternlets_metrics::MetricsHub;
use patternlets_mp::{CheckpointStore, World, WorldBuilder};
use patternlets_net::JobCtx;
use patternlets_shmem::Team;
use patternlets_trace::{Trace, Tracer};

/// Which technology family a patternlet belongs to (the paper's census
/// categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Shared-memory / OpenMP-style (`patternlets-shmem`).
    Omp,
    /// Message-passing / MPI-style (`patternlets-mp`).
    Mpi,
    /// Raw threads + hand-built primitives (the Pthreads analogues).
    Threads,
    /// Message passing across nodes + shared memory within them.
    Hetero,
    /// Fault tolerance: patternlets that *survive* injected failures
    /// (chaos transport, killed ranks, ULFM-style recovery).
    Resilience,
    /// Streaming dataflow: stages connected by bounded backpressured
    /// queues (`patternlets-stream`) — the FastFlow/TBB-flow-graph model.
    Stream,
}

impl Technology {
    /// Short label used in names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Technology::Omp => "omp",
            Technology::Mpi => "mpi",
            Technology::Threads => "threads",
            Technology::Hetero => "hetero",
            Technology::Resilience => "resilience",
            Technology::Stream => "stream",
        }
    }
}

/// The paper's "uncomment the directive" toggle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The directive is still commented out — the *initial* behaviour the
    /// class observes first.
    #[default]
    Off,
    /// The directive has been uncommented — the pattern is active.
    On,
}

impl Mode {
    /// True when the directive is active.
    pub fn is_on(self) -> bool {
        matches!(self, Mode::On)
    }
}

/// Everything a patternlet needs to run.
#[derive(Clone)]
pub struct RunConfig {
    /// Number of tasks (threads or processes) — the scalability knob.
    pub tasks: usize,
    /// Directive toggle.
    pub mode: Mode,
    /// Where output lines go.
    pub output: Output,
    /// Rank the `resilience/` family injects a kill into (CLI `--kill N`).
    /// `None` lets each resilience patternlet pick its default victim;
    /// non-resilience patternlets ignore it.
    pub kill: Option<usize>,
    /// Structured-event tracer (CLI `--trace`/`--timeline`). When set,
    /// every world and team a patternlet builds through [`RunConfig::world`]
    /// and [`RunConfig::team`] emits events into it.
    pub tracer: Option<Tracer>,
    /// Quantitative instruments (CLI `--metrics`/`--counters`). When set,
    /// every world and team built through [`RunConfig::world`] and
    /// [`RunConfig::team`] records counters/histograms into it; `None`
    /// costs one branch.
    pub metrics: Option<MetricsHub>,
}

impl RunConfig {
    /// Silent config (tests): capture only.
    pub fn new(tasks: usize, mode: Mode) -> Self {
        RunConfig {
            tasks,
            mode,
            output: Output::new(),
            kill: None,
            tracer: None,
            metrics: None,
        }
    }

    /// Echoing config (CLI): capture *and* print live.
    pub fn echoing(tasks: usize, mode: Mode) -> Self {
        RunConfig {
            tasks,
            mode,
            output: Output::echoing(),
            kill: None,
            tracer: None,
            metrics: None,
        }
    }

    /// Select the rank the resilience patternlets kill.
    pub fn with_kill(mut self, rank: Option<usize>) -> Self {
        self.kill = rank;
        self
    }

    /// Attach an event tracer; worlds and teams built via this config emit
    /// into it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach a metrics hub; worlds and teams built via this config record
    /// into it. Snapshot it after the run for the summary/exposition.
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// The attached metrics hub, if any.
    pub fn metrics(&self) -> Option<&MetricsHub> {
        self.metrics.as_ref()
    }

    /// A [`CheckpointStore`] for `rank` in the job context's directory
    /// (set by `pmrun --respawn`), or `None` — the caller runs
    /// checkpoint-free or picks a scratch dir of its own.
    pub fn checkpoint_store(&self, rank: usize) -> Option<CheckpointStore> {
        CheckpointStore::new(JobCtx::current()?.ckpt_dir?, rank).ok()
    }

    /// A sink stamping lines with `task`.
    pub fn sink(&self, task: usize) -> Sink {
        self.output.sink(task)
    }

    /// A [`WorldBuilder`] for `np` ranks with this config's tracer (if any)
    /// already attached. Patternlets should build worlds through this so
    /// `--trace` sees their traffic.
    pub fn world(&self, np: usize) -> WorldBuilder {
        let mut builder = World::builder(np);
        if let Some(t) = &self.tracer {
            builder = builder.tracer(t.clone());
        }
        if let Some(hub) = &self.metrics {
            builder = builder.metrics(hub.clone());
        }
        builder
    }

    /// `mpirun -np <np>` through this config: run `f` in `np` ranks and
    /// panic on configuration errors, exactly like
    /// [`patternlets_mp::World::run`] but trace-aware.
    pub fn world_run<R, F>(&self, np: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(patternlets_mp::Comm) -> R + Sync,
    {
        self.world(np).run(f).expect("world configuration is valid")
    }

    /// Observability hooks for the `stream/` family: this config's tracer
    /// and metrics hub bundled for `patternlets_stream` queues, so
    /// `--trace`/`--metrics` see stream traffic like any other runtime's.
    pub fn stream_obs(&self) -> patternlets_stream::Obs {
        patternlets_stream::Obs {
            tracer: self.tracer.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// A [`Team`] of `n` threads with this config's tracer (if any)
    /// already attached.
    pub fn team(&self, n: usize) -> Team {
        let mut team = Team::new(n);
        if let Some(t) = &self.tracer {
            team = team.with_tracer(t.clone());
        }
        if let Some(hub) = &self.metrics {
            team = team.with_metrics(hub.clone());
        }
        team
    }
}

/// One patternlet: metadata plus its runnable body.
///
/// The body is a plain function pointer so the whole collection can live in
/// a flat static registry, mirroring the original collection's one-folder-
/// per-program layout.
pub struct Patternlet {
    /// Collection-unique name, `family/program`, e.g. `"omp/barrier"`.
    pub name: &'static str,
    /// Technology family.
    pub technology: Technology,
    /// Canonical names of the design patterns this patternlet introduces
    /// (resolvable in both catalogs of `patternlets-catalog`).
    pub patterns: &'static [&'static str],
    /// Paper figures this patternlet reproduces, if any.
    pub figures: &'static [&'static str],
    /// One-line description.
    pub summary: &'static str,
    /// The student exercise from the source-file header comment.
    pub exercise: &'static str,
    /// The program body.
    pub run: fn(&RunConfig),
}

impl Patternlet {
    /// Run with a fresh silent config; returns the captured output. The
    /// main entry point for tests and benches.
    pub fn run_captured(&self, tasks: usize, mode: Mode) -> Output {
        let cfg = RunConfig::new(tasks, mode);
        (self.run)(&cfg);
        cfg.output
    }

    /// Run with a fresh silent config *and* a tracer; returns the captured
    /// output plus the drained event trace. The entry point for the
    /// trace-correctness tests.
    pub fn run_traced(&self, tasks: usize, mode: Mode) -> (Output, Trace) {
        let tracer = Tracer::new();
        let cfg = RunConfig::new(tasks, mode).with_tracer(tracer.clone());
        (self.run)(&cfg);
        (cfg.output, tracer.drain())
    }
}

impl std::fmt::Debug for Patternlet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Patternlet")
            .field("name", &self.name)
            .field("technology", &self.technology)
            .field("patterns", &self.patterns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(cfg: &RunConfig) {
        let s = cfg.sink(0);
        s.println(format!("tasks={} on={}", cfg.tasks, cfg.mode.is_on()));
    }

    const DEMO: Patternlet = Patternlet {
        name: "test/demo",
        technology: Technology::Omp,
        patterns: &["SPMD"],
        figures: &[],
        summary: "test fixture",
        exercise: "none",
        run: demo,
    };

    #[test]
    fn run_captured_collects_output() {
        let out = DEMO.run_captured(3, Mode::On);
        assert_eq!(out.texts(), vec!["tasks=3 on=true"]);
        let out = DEMO.run_captured(1, Mode::Off);
        assert_eq!(out.texts(), vec!["tasks=1 on=false"]);
    }

    #[test]
    fn mode_default_is_off() {
        assert_eq!(Mode::default(), Mode::Off);
        assert!(!Mode::Off.is_on());
        assert!(Mode::On.is_on());
    }

    #[test]
    fn technology_labels() {
        assert_eq!(Technology::Omp.label(), "omp");
        assert_eq!(Technology::Mpi.label(), "mpi");
        assert_eq!(Technology::Threads.label(), "threads");
        assert_eq!(Technology::Hetero.label(), "hetero");
        assert_eq!(Technology::Resilience.label(), "resilience");
        assert_eq!(Technology::Stream.label(), "stream");
    }

    #[test]
    fn kill_defaults_to_none_and_is_settable() {
        assert_eq!(RunConfig::new(2, Mode::Off).kill, None);
        assert_eq!(
            RunConfig::new(2, Mode::Off).with_kill(Some(1)).kill,
            Some(1)
        );
    }
}
