//! patternlets-net: the process fabrics that turn the in-process `mp`
//! runtime into a real multi-process one.
//!
//! The `mp` crate's [`Fabric`](patternlets_mp::Fabric) trait is the seam:
//! what a communicator needs from its transport — envelope delivery,
//! liveness, failure marking, finish, agreement. This crate implements it
//! once, as the [`PeerMesh`]: each rank is a separate OS process, peers
//! find each other through a tiny [`rendezvous`] server, and the mesh
//! runs one frame protocol ([`frame::Frame`]) over a pluggable
//! [`mesh::Link`] — a TCP socket per peer pair ([`fabric::TcpLink`]), or,
//! when every rank shares a host, a pair of mmap'd rings
//! ([`shm::ShmLink`]). Either way the rank drains its own link whenever
//! one of its threads waits: no thread stands between a socket or a ring
//! and the rank's mailbox, and on either link a rank runs two threads,
//! its own and the mesh's heartbeat.
//!
//! Nothing in a patternlet changes, whichever launcher runs it. A rank
//! learns its job from one type, [`JobCtx`], and one provider turns it
//! into worlds:
//!
//! - `pmrun` spawns N worker processes with `PMRUN_RANK`/`PMRUN_NP`/
//!   `PMRUN_RENDEZVOUS` (and friends) set; each calls
//!   [`install_from_env`] once at startup, which parses them
//!   ([`JobCtx::from_env`]) into the process's context;
//! - a `pmserve` worker calls [`install_job_fabric`] once and runs each
//!   assigned job inside [`with_job_ctx`], a context for that thread.
//!
//! Every world the program builds after that plays the context's rank
//! over the mesh instead of threads, at the epoch
//! [`JobCtx::world_epoch`] gives it.
//!
//! ```text
//! pmrun -np 4 patternlets mpi/broadcast
//!   ├── worker rank 0 ── PMRUN_RANK=0 ─┐
//!   ├── worker rank 1 ── PMRUN_RANK=1 ─┤   rendezvous per world epoch,
//!   ├── worker rank 2 ── PMRUN_RANK=2 ─┤── then a full peer mesh; each
//!   └── worker rank 3 ── PMRUN_RANK=3 ─┘   process runs one rank's body
//! ```

pub mod chaos;
pub mod fabric;
pub mod frame;
pub mod mesh;
pub mod rendezvous;
pub mod ring;
pub mod shm;

use std::sync::Arc;

use patternlets_core::{Error, Result};
use patternlets_mp::{ProvidedWorld, WorldSpec};

pub use fabric::TcpFabric;
pub use mesh::PeerMesh;

// The `pmrun` worker environment: one variable per [`JobCtx`] field,
// written by [`JobCtx::env_vars`] and read by [`JobCtx::from_env`].

/// [`JobCtx::rank`].
pub const ENV_RANK: &str = "PMRUN_RANK";
/// [`JobCtx::np`].
pub const ENV_NP: &str = "PMRUN_NP";
/// [`JobCtx::rendezvous`].
pub const ENV_RENDEZVOUS: &str = "PMRUN_RENDEZVOUS";
/// [`JobCtx::epoch_base`].
pub const ENV_EPOCH_BASE: &str = "PMRUN_EPOCH_BASE";
/// [`JobCtx::chaos`], as a bare seed.
pub const ENV_NET_CHAOS: &str = "PMRUN_NET_CHAOS";
/// [`JobCtx::fabric`]: `auto`, `tcp` or `shm`.
pub const ENV_FABRIC: &str = "PMRUN_FABRIC";
/// [`JobCtx::shm_dir`].
pub const ENV_SHM_DIR: &str = "PMRUN_SHM_DIR";
/// [`JobCtx::report_trace`]: `1` or `0`.
pub const ENV_REPORT_TRACE: &str = "PMRUN_REPORT_TRACE";
/// [`JobCtx::report_metrics`]: `1` or `0`.
pub const ENV_REPORT_METRICS: &str = "PMRUN_REPORT_METRICS";
/// [`JobCtx::ckpt_dir`].
pub const ENV_CKPT_DIR: &str = "PMRUN_CKPT_DIR";

/// This process's most recent estimated wall-clock offset to rank 0
/// (rank 0's clock minus ours, in nanoseconds). Written by
/// [`TcpFabric`] establishment when a traced world's peer mesh comes up;
/// 0 for rank 0 itself, for co-located (shared-memory/thread) worlds —
/// one host shares one clock — and for untraced worlds. Trace exporters
/// add it to the tracer's wall-clock origin to produce each rank's
/// `traceBaseNs` anchor.
static CLOCK_OFFSET_NS: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(0);

/// The current clock-offset estimate to rank 0, in nanoseconds (see
/// `CLOCK_OFFSET_NS`). Latest world establishment wins.
pub fn clock_offset_ns() -> i64 {
    CLOCK_OFFSET_NS.load(std::sync::atomic::Ordering::Relaxed)
}

pub(crate) fn set_clock_offset_ns(offset: i64) {
    CLOCK_OFFSET_NS.store(offset, std::sync::atomic::Ordering::Relaxed);
}

/// This rank's job, whichever launcher started it. `pmrun` hands it to
/// each worker process in `PMRUN_*` variables ([`JobCtx::from_env`]); a
/// `pmserve` worker builds one per assignment ([`JobCtx::new`]). The one
/// provider both launchers install reads it to decide, per world, what
/// this rank plays and over which fabric.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The rank this process (or worker thread) plays in the job's world.
    pub rank: usize,
    /// The job's world size.
    pub np: usize,
    /// Rendezvous address (`pmrun`'s server, or the daemon's cluster
    /// listener).
    pub rendezvous: String,
    /// Epoch of the job's first world (see [`JobCtx::world_epoch`]): 0 for
    /// a fresh `pmrun` worker; the survivors' retry round for a respawned
    /// one, so its first world is their retry world; a `pmserve` job's
    /// private block, so concurrent jobs sharing one
    /// [`rendezvous::RendezvousCore`] never collide.
    pub epoch_base: u64,
    /// Wire-chaos plan, if `pmrun --net-chaos SEED` or the daemon armed
    /// one: every outgoing batch is cut, truncated or corrupted by it.
    pub chaos: Option<chaos::NetChaosPlan>,
    /// Which transport worlds establish: `pmrun --fabric` (default
    /// `auto`); always TCP for a `pmserve` job.
    pub fabric: shm::FabricMode,
    /// Where the job's ring segments live: a per-job directory `pmrun`
    /// sweeps at exit, else derived from the rendezvous address.
    pub shm_dir: std::path::PathBuf,
    /// Send this rank's trace export to `rendezvous` (`pmrun --trace`).
    pub report_trace: bool,
    /// Record metrics and send snapshots to `rendezvous` while the rank
    /// runs (`pmrun --metrics-port`, `--status`).
    pub report_metrics: bool,
    /// Checkpoint directory shared by a `pmrun --respawn` job; read by
    /// the harness's `RunConfig::checkpoint_store`.
    pub ckpt_dir: Option<std::path::PathBuf>,
    /// The process-global world-epoch value of the first world built
    /// under this context, captured lazily. The mp runtime numbers worlds
    /// with one monotone per-process counter; two `pmserve` workers that
    /// have run different numbers of jobs sit at different counts, so the
    /// absolute epoch means nothing across processes. Subtracting the
    /// first value seen turns it into a per-job ordinal (0, 1, 2, …),
    /// identical on every rank because all ranks build the same world
    /// sequence. A `pmrun` worker installs its context before any world,
    /// so there the first value is 0 and the rule is the identity.
    epoch_zero: Arc<std::sync::OnceLock<u64>>,
}

impl JobCtx {
    /// A `pmserve` job's context: TCP, no launcher directories.
    pub fn new(
        rank: usize,
        np: usize,
        rendezvous: String,
        epoch_base: u64,
        chaos: Option<chaos::NetChaosPlan>,
    ) -> Self {
        // Unless a launcher names one, the ring directory derives from the
        // rendezvous address: the one identity every rank of a job shares
        // and no other job does.
        let sanitized: String = rendezvous
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        JobCtx {
            rank,
            np,
            rendezvous,
            epoch_base,
            chaos,
            fabric: shm::FabricMode::Tcp,
            shm_dir: std::env::temp_dir().join(format!("pmrun-shm-{sanitized}")),
            report_trace: false,
            report_metrics: false,
            ckpt_dir: None,
            epoch_zero: Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// Read the `pmrun` worker environment. `None` when this process was
    /// not launched by `pmrun` (plain `patternlets` runs); a half-set
    /// environment is an error, not a silent fallback.
    pub fn from_env() -> Result<Option<JobCtx>> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`JobCtx::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Option<JobCtx>> {
        let (rank, np, rendezvous) = match (var(ENV_RANK), var(ENV_NP), var(ENV_RENDEZVOUS)) {
            (None, None, None) => return Ok(None),
            (Some(rank), Some(np), Some(rendezvous)) => (rank, np, rendezvous),
            _ => {
                return Err(Error::InvalidConfig(format!(
                    "partial pmrun environment: {ENV_RANK}/{ENV_NP}/{ENV_RENDEZVOUS} must be set \
                     together"
                )))
            }
        };
        fn number<T: std::str::FromStr>(name: &str, v: &str) -> Result<T> {
            v.parse()
                .map_err(|_| Error::InvalidConfig(format!("{name}={v} is not a number")))
        }
        let flag = |name: &str| match var(name).as_deref() {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(Error::InvalidConfig(format!("{name}={v} is not 0 or 1"))),
        };
        let (rank, np) = (number(ENV_RANK, &rank)?, number(ENV_NP, &np)?);
        if rank >= np {
            return Err(Error::InvalidConfig(format!(
                "{ENV_RANK}={rank} out of range for {ENV_NP}={np}"
            )));
        }
        let epoch_base = match var(ENV_EPOCH_BASE) {
            None => 0,
            Some(v) => number(ENV_EPOCH_BASE, &v)?,
        };
        let chaos = var(ENV_NET_CHAOS).and_then(|v| chaos::NetChaosPlan::from_env_value(&v));
        let mut ctx = JobCtx::new(rank, np, rendezvous, epoch_base, chaos);
        ctx.fabric = match var(ENV_FABRIC) {
            None => shm::FabricMode::default(),
            Some(v) => shm::FabricMode::parse(&v).ok_or_else(|| {
                Error::InvalidConfig(format!("{ENV_FABRIC}={v} is not one of auto, tcp, shm"))
            })?,
        };
        if let Some(dir) = var(ENV_SHM_DIR).filter(|d| !d.is_empty()) {
            ctx.shm_dir = dir.into();
        }
        ctx.report_trace = flag(ENV_REPORT_TRACE)?;
        ctx.report_metrics = flag(ENV_REPORT_METRICS)?;
        ctx.ckpt_dir = var(ENV_CKPT_DIR).map(Into::into);
        Ok(Some(ctx))
    }

    /// The `pmrun` worker environment [`JobCtx::from_env`] reads back as
    /// this context (the chaos plan travels as its seed).
    pub fn env_vars(&self) -> Vec<(&'static str, std::ffi::OsString)> {
        let mut vars: Vec<(&str, std::ffi::OsString)> = vec![
            (ENV_RANK, self.rank.to_string().into()),
            (ENV_NP, self.np.to_string().into()),
            (ENV_RENDEZVOUS, self.rendezvous.clone().into()),
            (ENV_EPOCH_BASE, self.epoch_base.to_string().into()),
            (ENV_FABRIC, self.fabric.as_str().into()),
            (ENV_SHM_DIR, self.shm_dir.clone().into()),
        ];
        let optional = [
            (ENV_NET_CHAOS, self.chaos.map(|c| c.seed.to_string().into())),
            (ENV_REPORT_TRACE, self.report_trace.then(|| "1".into())),
            (ENV_REPORT_METRICS, self.report_metrics.then(|| "1".into())),
            (ENV_CKPT_DIR, self.ckpt_dir.clone().map(Into::into)),
        ];
        vars.extend(optional.into_iter().filter_map(|(k, v)| Some((k, v?))));
        vars
    }

    /// The job running on this thread: its [`with_job_ctx`] context, else
    /// the process's from [`install_from_env`], else `None` (an
    /// unlaunched run, whose worlds are threads).
    pub fn current() -> Option<JobCtx> {
        JOB_CTX
            .with(|slot| slot.borrow().clone())
            .or_else(|| PROCESS_CTX.get().cloned())
    }

    /// The rendezvous epoch of the world the mp runtime numbered
    /// `process_epoch`: `epoch_base` plus the world's ordinal within this
    /// job, counted from the first call on this context (or any clone).
    pub fn world_epoch(&self, process_epoch: u64) -> u64 {
        let zero = *self.epoch_zero.get_or_init(|| process_epoch);
        self.epoch_base + process_epoch.saturating_sub(zero)
    }

    /// Where this rank stands in the world `spec` describes: `Ok(None)`
    /// to skip it (a world smaller than the job, played by the low
    /// ranks), else the spec re-keyed to the job's epoch. The epoch is
    /// taken first, so a skipped or refused world still advances the
    /// ordinal identically on every rank.
    fn place(&self, spec: &WorldSpec) -> Result<Option<WorldSpec>> {
        let epoch = self.world_epoch(spec.epoch);
        if spec.np > self.np {
            return Err(Error::InvalidConfig(format!(
                "world wants {n} ranks but the job has only {}; relaunch with \
                 `pmrun -np {n}` or `submit -n {n}` (or more)",
                self.np,
                n = spec.np
            )));
        }
        if self.rank >= spec.np {
            return Ok(None);
        }
        let mut spec = spec.clone();
        spec.epoch = epoch;
        Ok(Some(spec))
    }
}

/// The context [`install_from_env`] stored for the whole process.
static PROCESS_CTX: std::sync::OnceLock<JobCtx> = std::sync::OnceLock::new();

std::thread_local! {
    /// The job currently running on THIS thread ([`with_job_ctx`]).
    /// Thread-local rather than process-global so one process can host
    /// several concurrent worker loops (the in-process daemon tests and
    /// benches do).
    static JOB_CTX: std::cell::RefCell<Option<JobCtx>> = const { std::cell::RefCell::new(None) };
}

/// Install the peer-mesh provider with the `pmrun` environment as the
/// process's job, if present. Call once at process start (the
/// `patternlets` binary does); every world built afterwards runs over
/// the mesh. Returns the context when installed, `None` when this isn't
/// a `pmrun` worker.
pub fn install_from_env() -> Result<Option<JobCtx>> {
    let Some(ctx) = JobCtx::from_env()? else {
        return Ok(None);
    };
    let ctx = PROCESS_CTX.get_or_init(|| ctx).clone();
    install_job_fabric();
    Ok(Some(ctx))
}

/// Install the one fabric provider. Per world it consults
/// [`JobCtx::current`]; with no context the world runs as threads.
/// With one, the world's size decides:
/// - `world np == job np`: this rank plays its part over a peer mesh;
/// - `world np < job np`: ranks inside the world play it, the rest
///   [skip](ProvidedWorld::Skip) it (empty result, no rendezvous);
/// - `world np > job np`: refused — there aren't enough ranks, and a
///   thread fallback would print every rank's output once per process.
///
/// Idempotent; returns `false` if a different provider was installed
/// first.
pub fn install_job_fabric() -> bool {
    static INSTALLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *INSTALLED.get_or_init(|| patternlets_mp::install_fabric_provider(Box::new(provide)))
}

/// Run `f` with `ctx` as this thread's current job: worlds `f` builds
/// play the job's rank. The slot is cleared on exit **even if `f`
/// panics**, so a failed patternlet cannot leak its transport context
/// into the worker's next job.
pub fn with_job_ctx<R>(ctx: JobCtx, f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            JOB_CTX.with(|slot| *slot.borrow_mut() = None);
        }
    }
    JOB_CTX.with(|slot| *slot.borrow_mut() = Some(ctx));
    let _reset = Reset;
    f()
}

fn provide(spec: &WorldSpec) -> Result<Option<ProvidedWorld>> {
    let Some(ctx) = JobCtx::current() else {
        return Ok(None);
    };
    let Some(spec) = ctx.place(spec)? else {
        return Ok(Some(ProvidedWorld::Skip));
    };
    // Looked up once per process: without an override it reads a file,
    // a cost every pmserve job would otherwise pay per world.
    static HOST: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let fabric = shm::establish(
        &ctx.rendezvous,
        ctx.rank,
        &spec,
        ctx.chaos,
        ctx.fabric,
        &ctx.shm_dir,
        HOST.get_or_init(shm::host_id),
    )?;
    Ok(Some(ProvidedWorld::Rank {
        rank: ctx.rank,
        fabric,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Result<Option<JobCtx>> {
        let vars: HashMap<String, String> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        JobCtx::from_vars(|name| vars.get(name).cloned())
    }

    fn err(vars: &[(&str, &str)]) -> String {
        match parse(vars) {
            Err(e) => e.to_string(),
            Ok(ctx) => panic!("expected an error, got {ctx:?}"),
        }
    }

    const LAUNCHED: [(&str, &str); 3] = [
        (ENV_RANK, "1"),
        (ENV_NP, "4"),
        (ENV_RENDEZVOUS, "127.0.0.1:4000"),
    ];

    fn launched_with(extra: &[(&'static str, &'static str)]) -> Vec<(&'static str, &'static str)> {
        LAUNCHED.iter().chain(extra).copied().collect()
    }

    fn spec(np: usize, epoch: u64) -> WorldSpec {
        WorldSpec {
            np,
            ranks_per_node: 1,
            fault: None,
            poll_interval: std::time::Duration::from_millis(20),
            tracer: None,
            metrics: None,
            epoch,
        }
    }

    #[test]
    fn every_variable_set_is_parsed() {
        let ctx = parse(&launched_with(&[
            (ENV_EPOCH_BASE, "7"),
            (ENV_NET_CHAOS, "42"),
            (ENV_FABRIC, "shm"),
            (ENV_SHM_DIR, "/scratch/rings"),
            (ENV_REPORT_TRACE, "1"),
            (ENV_REPORT_METRICS, "1"),
            (ENV_CKPT_DIR, "/scratch/ckpt"),
        ]))
        .unwrap()
        .expect("launched");
        assert_eq!((ctx.rank, ctx.np), (1, 4));
        assert_eq!(ctx.rendezvous, "127.0.0.1:4000");
        assert_eq!(ctx.epoch_base, 7);
        assert_eq!(ctx.chaos, chaos::NetChaosPlan::from_env_value("42"));
        assert!(ctx.chaos.is_some());
        assert_eq!(ctx.fabric, shm::FabricMode::Shm);
        assert_eq!(ctx.shm_dir, std::path::PathBuf::from("/scratch/rings"));
        assert!(ctx.report_trace);
        assert!(ctx.report_metrics);
        assert_eq!(ctx.ckpt_dir, Some("/scratch/ckpt".into()));
    }

    #[test]
    fn the_environment_a_launcher_writes_reads_back_as_the_same_job() {
        let mut job = JobCtx::new(2, 3, "127.0.0.1:4000".into(), 9, None);
        let read_back = |job: &JobCtx| {
            let vars: HashMap<String, String> = job
                .env_vars()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into_string().unwrap()))
                .collect();
            JobCtx::from_vars(|name| vars.get(name).cloned())
                .unwrap()
                .expect("launched")
        };
        let bare = read_back(&job);
        assert_eq!(bare.chaos, None);
        assert_eq!(
            (bare.report_trace, bare.report_metrics, bare.ckpt_dir),
            (false, false, None)
        );
        job.chaos = Some(chaos::NetChaosPlan::seeded(7));
        job.fabric = shm::FabricMode::Shm;
        job.shm_dir = "/scratch/rings".into();
        job.report_trace = true;
        job.report_metrics = true;
        job.ckpt_dir = Some("/scratch/ckpt".into());
        let full = read_back(&job);
        assert_eq!((full.rank, full.np, full.epoch_base), (2, 3, 9));
        assert_eq!(full.rendezvous, job.rendezvous);
        assert_eq!(full.chaos, job.chaos);
        assert_eq!(full.fabric, job.fabric);
        assert_eq!(full.shm_dir, job.shm_dir);
        assert_eq!(full.report_trace, job.report_trace);
        assert_eq!(full.report_metrics, job.report_metrics);
        assert_eq!(full.ckpt_dir, job.ckpt_dir);
    }

    #[test]
    fn the_required_variables_alone_give_pmrun_defaults() {
        let ctx = parse(&LAUNCHED).unwrap().expect("launched");
        assert_eq!(ctx.epoch_base, 0);
        assert!(ctx.chaos.is_none());
        assert_eq!(ctx.fabric, shm::FabricMode::Auto);
        assert!(!ctx.report_trace);
        assert!(!ctx.report_metrics);
        assert_eq!(ctx.ckpt_dir, None);
    }

    #[test]
    fn no_variables_mean_an_unlaunched_run() {
        assert!(parse(&[]).unwrap().is_none());
        // Optional variables alone do not make a launch.
        assert!(parse(&[(ENV_FABRIC, "tcp")]).unwrap().is_none());
    }

    #[test]
    fn a_partial_launch_names_the_three_required_variables() {
        for missing in 0..LAUNCHED.len() {
            let mut vars = LAUNCHED.to_vec();
            vars.remove(missing);
            let e = err(&vars);
            for name in [ENV_RANK, ENV_NP, ENV_RENDEZVOUS] {
                assert!(e.contains(name), "{e}");
            }
        }
    }

    #[test]
    fn a_rank_outside_the_job_is_refused() {
        let e = err(&[(ENV_RANK, "4"), (ENV_NP, "4"), (ENV_RENDEZVOUS, "h:1")]);
        assert!(
            e.contains("PMRUN_RANK=4 out of range for PMRUN_NP=4"),
            "{e}"
        );
        let e = err(&[(ENV_RANK, "one"), (ENV_NP, "4"), (ENV_RENDEZVOUS, "h:1")]);
        assert!(e.contains("PMRUN_RANK=one is not a number"), "{e}");
    }

    #[test]
    fn bad_fabric_and_epoch_base_values_are_refused() {
        let e = err(&launched_with(&[(ENV_FABRIC, "rdma")]));
        assert!(
            e.contains("PMRUN_FABRIC=rdma is not one of auto, tcp, shm"),
            "{e}"
        );
        let e = err(&launched_with(&[(ENV_EPOCH_BASE, "-1")]));
        assert!(e.contains("PMRUN_EPOCH_BASE=-1 is not a number"), "{e}");
    }

    #[test]
    fn a_report_flag_other_than_0_or_1_is_refused() {
        let e = err(&launched_with(&[(ENV_REPORT_TRACE, "yes")]));
        assert!(e.contains("PMRUN_REPORT_TRACE=yes is not 0 or 1"), "{e}");
        let off = parse(&launched_with(&[(ENV_REPORT_METRICS, "0")]))
            .unwrap()
            .expect("launched");
        assert!(!off.report_metrics);
    }

    #[test]
    fn the_shm_dir_is_derived_from_the_rendezvous_address_when_unset() {
        let derived = std::env::temp_dir().join("pmrun-shm-127-0-0-1-4000");
        let unset = parse(&LAUNCHED).unwrap().expect("launched");
        assert_eq!(unset.shm_dir, derived);
        let empty = parse(&launched_with(&[(ENV_SHM_DIR, "")]))
            .unwrap()
            .expect("launched");
        assert_eq!(empty.shm_dir, derived);
    }

    #[test]
    fn a_pmserve_job_runs_over_tcp() {
        let ctx = JobCtx::new(0, 2, "127.0.0.1:1".into(), 64 << 20, None);
        assert_eq!(ctx.fabric, shm::FabricMode::Tcp);
        assert_eq!(
            (ctx.report_trace, ctx.report_metrics, ctx.ckpt_dir),
            (false, false, None)
        );
    }

    #[test]
    fn the_kth_consult_maps_to_the_base_plus_k() {
        let ctx = JobCtx::new(0, 2, "h:1".into(), 1000, None);
        // The process counter is wherever earlier jobs left it.
        for k in 0..5 {
            assert_eq!(ctx.world_epoch(37 + k), 1000 + k);
        }
        // Clones share the zero point.
        assert_eq!(ctx.clone().world_epoch(42), 1005);
    }

    #[test]
    fn a_skipped_smaller_world_still_advances_the_ordinal() {
        let ctx = JobCtx::new(1, 2, "h:1".into(), 500, None);
        assert!(
            ctx.place(&spec(1, 9)).unwrap().is_none(),
            "rank 1 skips np 1"
        );
        let played = ctx.place(&spec(2, 10)).unwrap().expect("rank 1 plays np 2");
        assert_eq!(played.epoch, 501);
        let e = ctx
            .place(&spec(3, 11))
            .err()
            .expect("np 3 > job np")
            .to_string();
        assert!(e.contains("-np 3") && e.contains("-n 3"), "{e}");
        assert_eq!(ctx.place(&spec(2, 12)).unwrap().expect("plays").epoch, 503);
    }

    #[test]
    fn a_fresh_context_starts_again_at_its_own_base() {
        let first = JobCtx::new(0, 2, "h:1".into(), 100, None);
        assert_eq!(first.world_epoch(3), 100);
        assert_eq!(first.world_epoch(4), 101);
        let next = JobCtx::new(0, 2, "h:1".into(), 200, None);
        assert_eq!(next.world_epoch(5), 200);
        assert_eq!(next.world_epoch(6), 201);
    }
}
