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
//! ([`shm::ShmLink`]).
//!
//! Nothing in a patternlet changes. The `pmrun` launcher spawns N
//! worker processes with `PMRUN_RANK`/`PMRUN_NP`/`PMRUN_RENDEZVOUS` set;
//! each worker calls [`install_from_env`] once at startup, and every
//! world the program builds after that runs over the mesh instead of
//! threads.
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

/// Environment variable carrying this worker's world rank.
pub const ENV_RANK: &str = "PMRUN_RANK";
/// Environment variable carrying the job's process count.
pub const ENV_NP: &str = "PMRUN_NP";
/// Environment variable carrying the rendezvous server address.
pub const ENV_RENDEZVOUS: &str = "PMRUN_RENDEZVOUS";
/// Environment variable carrying the directory for per-rank trace files.
pub const ENV_TRACE_DIR: &str = "PMRUN_TRACE_DIR";
/// Environment variable carrying the address of `pmrun`'s metrics
/// collector. When set, workers enable a [`patternlets_metrics::MetricsHub`]
/// and push snapshots there as [`frame::Frame::Metrics`] frames.
pub const ENV_METRICS_ADDR: &str = "PMRUN_METRICS_ADDR";
/// Environment variable carrying the wire-chaos seed. When set, every
/// worker's outgoing batches pass through a seeded
/// [`chaos::NetChaosPlan`] that cuts, truncates and corrupts them.
pub const ENV_NET_CHAOS: &str = "PMRUN_NET_CHAOS";
/// Environment variable carrying the global epoch offset `pmrun` assigns
/// to respawned workers, so a respawned process's first world lines up
/// with the retry world the survivors build after the failure.
pub const ENV_EPOCH_BASE: &str = "PMRUN_EPOCH_BASE";
/// Environment variable carrying the checkpoint directory for
/// `pmrun --respawn` jobs; read by the harness's
/// `RunConfig::checkpoint_store`.
pub const ENV_CKPT_DIR: &str = "PMRUN_CKPT_DIR";

/// Fabric selection: `auto` (default — shared memory when co-located,
/// TCP otherwise), `tcp`, or `shm` (`pmrun --fabric`).
pub const ENV_FABRIC: &str = "PMRUN_FABRIC";

/// Directory for this job's shared-memory ring segments (`pmrun` points
/// every rank at a per-job scratch directory it sweeps at exit).
pub const ENV_SHM_DIR: &str = "PMRUN_SHM_DIR";

/// This process's most recent estimated wall-clock offset to rank 0
/// (rank 0's clock minus ours, in nanoseconds). Written by
/// [`TcpFabric`] establishment when a traced world's peer mesh comes up;
/// 0 for rank 0 itself, for co-located (shared-memory/thread) worlds —
/// one host shares one clock — and for untraced worlds. Trace exporters
/// add it to the tracer's wall-clock origin to produce each rank's
/// `traceBaseNs` anchor.
static CLOCK_OFFSET_NS: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(0);

/// The current clock-offset estimate to rank 0, in nanoseconds (see
/// [`CLOCK_OFFSET_NS`]). Latest world establishment wins.
pub fn clock_offset_ns() -> i64 {
    CLOCK_OFFSET_NS.load(std::sync::atomic::Ordering::Relaxed)
}

pub(crate) fn set_clock_offset_ns(offset: i64) {
    CLOCK_OFFSET_NS.store(offset, std::sync::atomic::Ordering::Relaxed);
}

/// Push one metrics snapshot to the collector at `addr`.
///
/// Each push is a short-lived connection carrying a single
/// [`frame::Frame::Metrics`]; snapshots are cumulative, so the collector
/// keeps only the latest per rank and a lost push is healed by the next
/// one. Returns whether the push reached the collector.
pub fn push_metrics(addr: &str, rank: usize, hub: &patternlets_metrics::MetricsHub) -> bool {
    let payload = patternlets_metrics::wire::encode(&hub.snapshot());
    let frame = frame::Frame::Metrics {
        rank: rank as u64,
        payload,
    };
    match std::net::TcpStream::connect(addr) {
        Ok(mut stream) => frame::write_frame(&mut stream, &frame).is_ok(),
        Err(_) => false,
    }
}

/// The launch parameters a `pmrun` worker finds in its environment.
#[derive(Debug, Clone)]
pub struct NetEnv {
    /// This process's world rank.
    pub rank: usize,
    /// Total worker processes in the job.
    pub np: usize,
    /// Rendezvous server address (`host:port`).
    pub rendezvous: String,
    /// Offset added to every world's epoch — nonzero only in respawned
    /// workers, where `pmrun` sets it to the survivors' current retry
    /// round so both sides rendezvous at the same epoch.
    pub epoch_base: u64,
    /// Wire-chaos plan, if `pmrun --net-chaos SEED` armed one.
    pub chaos: Option<chaos::NetChaosPlan>,
    /// Which transport to establish (`PMRUN_FABRIC`, default `auto`).
    pub fabric: shm::FabricMode,
    /// Where this job's ring segments live (`PMRUN_SHM_DIR`); derived
    /// from the rendezvous address when `pmrun` didn't pass one.
    pub shm_dir: std::path::PathBuf,
}

/// Read the `pmrun` worker environment, if this process was launched by
/// `pmrun`. Returns `None` when unlaunched (plain `patternlets` runs);
/// a half-set environment is an error, not a silent fallback.
pub fn net_env() -> Result<Option<NetEnv>> {
    let vars: Vec<Option<String>> = [ENV_RANK, ENV_NP, ENV_RENDEZVOUS]
        .iter()
        .map(|k| std::env::var(k).ok())
        .collect();
    match (&vars[0], &vars[1], &vars[2]) {
        (None, None, None) => Ok(None),
        (Some(rank), Some(np), Some(rendezvous)) => {
            let parse = |name: &str, v: &str| {
                v.parse::<usize>()
                    .map_err(|_| Error::InvalidConfig(format!("{name}={v} is not a number")))
            };
            let rank = parse(ENV_RANK, rank)?;
            let np = parse(ENV_NP, np)?;
            if rank >= np {
                return Err(Error::InvalidConfig(format!(
                    "{ENV_RANK}={rank} out of range for {ENV_NP}={np}"
                )));
            }
            let epoch_base = match std::env::var(ENV_EPOCH_BASE).ok() {
                None => 0,
                Some(v) => v.parse::<u64>().map_err(|_| {
                    Error::InvalidConfig(format!("{ENV_EPOCH_BASE}={v} is not a number"))
                })?,
            };
            let chaos = std::env::var(ENV_NET_CHAOS)
                .ok()
                .and_then(|v| chaos::NetChaosPlan::from_env_value(&v));
            let fabric = match std::env::var(ENV_FABRIC).ok() {
                None => shm::FabricMode::default(),
                Some(v) => shm::FabricMode::parse(&v).ok_or_else(|| {
                    Error::InvalidConfig(format!("{ENV_FABRIC}={v} is not one of auto, tcp, shm"))
                })?,
            };
            let shm_dir = match std::env::var(ENV_SHM_DIR).ok() {
                Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
                // Unlaunched-by-pmrun shm runs (tests, hand-started
                // workers) still need one shared, job-unique location;
                // the rendezvous address is the one identity every rank
                // of a job shares and no other job does.
                _ => {
                    let sanitized: String = rendezvous
                        .chars()
                        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                        .collect();
                    std::env::temp_dir().join(format!("pmrun-shm-{sanitized}"))
                }
            };
            Ok(Some(NetEnv {
                rank,
                np,
                rendezvous: rendezvous.clone(),
                epoch_base,
                chaos,
                fabric,
                shm_dir,
            }))
        }
        _ => Err(Error::InvalidConfig(format!(
            "partial pmrun environment: {ENV_RANK}/{ENV_NP}/{ENV_RENDEZVOUS} must be set together"
        ))),
    }
}

/// Install the peer-mesh provider from the `pmrun` environment, if
/// present. Call once at process start (the `patternlets` binary does);
/// every world built afterwards runs over the mesh. Returns the
/// environment when installed, `None` when this isn't a `pmrun` worker.
///
/// Per world, the provider decides by world size:
/// - `world np == job np`: this process plays its rank over the mesh;
/// - `world np < job np`: ranks inside the world play it, the rest
///   [skip](ProvidedWorld::Skip) it (empty result, no rendezvous wait
///   beyond registration — skippers don't register at all);
/// - `world np > job np`: refused — there aren't enough processes, and
///   a thread fallback would print every rank's output once per process.
pub fn install_from_env() -> Result<Option<NetEnv>> {
    let Some(env) = net_env()? else {
        return Ok(None);
    };
    let provider_env = env.clone();
    patternlets_mp::install_fabric_provider(Box::new(move |spec: &WorldSpec| {
        provide(&provider_env, spec)
    }));
    Ok(Some(env))
}

/// One job's transport parameters in a `pmserve` worker — the elastic
/// analogue of [`NetEnv`], scoped to a single scheduled job instead of a
/// whole process lifetime.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The rank this worker plays in the job's world.
    pub rank: usize,
    /// The job's world size.
    pub np: usize,
    /// Rendezvous address (the daemon's cluster listener).
    pub rendezvous: String,
    /// First epoch of the job's private rendezvous block: every world the
    /// patternlet builds registers at `epoch_base + world_ordinal`, so
    /// concurrent jobs sharing one [`rendezvous::RendezvousCore`] can
    /// never collide.
    pub epoch_base: u64,
    /// Wire-chaos plan for this job, if the daemon armed one.
    pub chaos: Option<chaos::NetChaosPlan>,
    /// The process-global world-epoch value of the first world built under
    /// this context, captured lazily. The mp runtime numbers worlds with
    /// one monotone per-process counter; two workers that have run
    /// different numbers of jobs sit at different counts, so the absolute
    /// epoch is meaningless across processes. Subtracting the first value
    /// seen turns it into a per-job ordinal (0, 1, 2, …), identical on
    /// every worker because all ranks build the same world sequence.
    epoch_zero: Arc<std::sync::OnceLock<u64>>,
}

impl JobCtx {
    /// Transport context for one assigned job.
    pub fn new(
        rank: usize,
        np: usize,
        rendezvous: String,
        epoch_base: u64,
        chaos: Option<chaos::NetChaosPlan>,
    ) -> Self {
        JobCtx {
            rank,
            np,
            rendezvous,
            epoch_base,
            chaos,
            epoch_zero: Arc::new(std::sync::OnceLock::new()),
        }
    }
}

std::thread_local! {
    /// The job currently running on THIS thread, consulted by the
    /// provider installed by [`install_job_fabric`]. Thread-local rather
    /// than process-global so one process can host several concurrent
    /// worker loops (the in-process daemon tests and benches do).
    static JOB_CTX: std::cell::RefCell<Option<JobCtx>> = const { std::cell::RefCell::new(None) };
}

/// Install the elastic-worker fabric provider: every world built on a
/// thread that is inside [`with_job_ctx`] runs as TCP rank
/// `ctx.rank` of the job's world; worlds built on threads with no job
/// context fall back to the in-process backend. Idempotent across calls
/// from multiple worker loops; returns `false` if a *different* provider
/// (the `pmrun` env provider) was already installed.
pub fn install_job_fabric() -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.load(Ordering::SeqCst) {
        return true;
    }
    let won = patternlets_mp::install_fabric_provider(Box::new(|spec: &WorldSpec| {
        let ctx = JOB_CTX.with(|slot| slot.borrow().clone());
        match ctx {
            Some(ctx) => provide_job(&ctx, spec),
            None => Ok(None),
        }
    }));
    if won {
        INSTALLED.store(true, Ordering::SeqCst);
    }
    won
}

/// Run `f` with `ctx` as this thread's current job: worlds `f` builds go
/// over TCP as the job's rank. The slot is cleared on exit **even if `f`
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

fn provide_job(ctx: &JobCtx, spec: &WorldSpec) -> Result<Option<ProvidedWorld>> {
    // Capture the job's epoch zero point on the FIRST consult — before
    // any skip/error branch, so skipped small worlds still advance the
    // per-job ordinal identically on every worker.
    let zero = *ctx.epoch_zero.get_or_init(|| spec.epoch);
    let ordinal = spec.epoch.saturating_sub(zero);
    if spec.np > ctx.np {
        return Err(Error::InvalidConfig(format!(
            "world wants {} ranks but the job was scheduled onto {} workers; \
             submit with np {} (or more)",
            spec.np, ctx.np, spec.np
        )));
    }
    if ctx.rank >= spec.np {
        return Ok(Some(ProvidedWorld::Skip));
    }
    let mut spec = spec.clone();
    spec.epoch = ctx.epoch_base + ordinal;
    let fabric = TcpFabric::establish_with_chaos(&ctx.rendezvous, ctx.rank, &spec, ctx.chaos)?;
    Ok(Some(ProvidedWorld::Rank {
        rank: ctx.rank,
        fabric: Arc::new(fabric),
    }))
}

fn provide(env: &NetEnv, spec: &WorldSpec) -> Result<Option<ProvidedWorld>> {
    if spec.np > env.np {
        return Err(Error::InvalidConfig(format!(
            "world wants {} ranks but pmrun launched only {} processes; \
             re-run with -np {} (or more)",
            spec.np, env.np, spec.np
        )));
    }
    if env.rank >= spec.np {
        return Ok(Some(ProvidedWorld::Skip));
    }
    // Respawned workers start their epoch numbering at the survivors'
    // current retry round; fresh jobs have epoch_base == 0 and this is
    // the identity.
    let mut spec = spec.clone();
    spec.epoch += env.epoch_base;
    let fabric = shm::establish(
        &env.rendezvous,
        env.rank,
        &spec,
        env.chaos,
        env.fabric,
        &env.shm_dir,
        &shm::host_id(),
    )?;
    Ok(Some(ProvidedWorld::Rank {
        rank: env.rank,
        fabric,
    }))
}
