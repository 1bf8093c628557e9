//! Worlds: spawning ranks and wiring their mailboxes together —
//! `MPI_Init` / `MPI_Finalize` and `mpirun -np N`.
//!
//! [`World::run(np, f)`](World::run) plays the role of
//! `mpirun -np <np> ./program`: it launches `np` rank threads, hands each an
//! isolated [`Comm`], runs `f` in every rank (single program, multiple
//! data), and joins them all, returning each rank's result in rank order.
//!
//! Ranks get simulated hostnames. With the default one rank per node, rank
//! `i` reports `node-0(i+1)` — matching the paper's Figure 6, where four
//! processes report `node-01 … node-04`. [`WorldBuilder::ranks_per_node`]
//! models fatter nodes (several ranks sharing a hostname), which the
//! heterogeneous patternlets use.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use patternlets_core::{Error, Result};
use patternlets_metrics::{MetricsHub, Obs};
use patternlets_trace::Tracer;

use crate::comm::Comm;
use crate::deadlock::Detector;
use crate::envelope::{Envelope, Outgoing};
use crate::fabric::{AgreeKey, AgreeSlot, Fabric, ProvidedWorld, WorldSpec};
use crate::fault::{ChaosDecision, FaultPlan, FaultState};
use crate::mailbox::Mailbox;

/// The default deadlock-detector poll interval: how long a blocked
/// receive waits between liveness re-checks. Configurable via
/// [`WorldBuilder::poll_interval`].
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Shared routing fabric for one world.
pub(crate) struct Transport {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) finished: Vec<AtomicBool>,
    /// Ranks that *failed* (killed by the fault plan, or panicked) rather
    /// than finishing normally. Peer operations that depend on a failed
    /// rank report [`Error::RankFailed`] instead of `Deadlock`.
    pub(crate) failed: Vec<AtomicBool>,
    pub(crate) send_seqs: Vec<AtomicU64>,
    /// Backstop for missed agreement wake-ups.
    pub(crate) poll_interval: Duration,
    /// Force every payload through the encode/decode wire path even
    /// though all ranks share this address space (benchmark baseline;
    /// see [`WorldBuilder::encoded_payloads`]).
    pub(crate) encoded_only: bool,
    /// Message-free agreement slots for `Comm::agree`/`Comm::shrink`
    /// (ULFM-style operations must work when messaging peers are dead, so
    /// they synchronise through shared runtime state instead).
    pub(crate) agreements: Mutex<HashMap<AgreeKey, AgreeSlot>>,
    pub(crate) agree_cv: Condvar,
}

/// What every rank of one world shares above the transport: simulated
/// hostnames, the receive poll interval, the tracer and metrics hub, the
/// fault plan's state and, in a thread world, the deadlock detector.
/// [`WorldBuilder`] builds it once per world from the [`WorldSpec`], and
/// every [`Comm`] of the world holds it, so no [`Fabric`] has to carry
/// any of it.
pub(crate) struct WorldCtx {
    names: Vec<String>,
    /// How long blocked receives sleep between liveness re-checks.
    pub(crate) poll_interval: Duration,
    /// Tracer and metrics hub: every instrumentation point of a rank
    /// records through it on the rank's world lane.
    pub(crate) obs: Obs,
    fault: Option<FaultState>,
    /// The waits-for detector, for a world whose ranks are all threads of
    /// this process; a provider-built world has none.
    pub(crate) detector: Option<Detector>,
}

impl WorldCtx {
    pub(crate) fn new(spec: &WorldSpec, detector: Option<Detector>) -> Self {
        WorldCtx {
            detector,
            names: (0..spec.np)
                .map(|r| format!("node-{:02}", r / spec.ranks_per_node + 1))
                .collect(),
            poll_interval: spec.poll_interval,
            obs: spec.obs(),
            fault: spec
                .fault
                .clone()
                .map(|plan| FaultState::new(plan, spec.np)),
        }
    }

    /// Simulated hostname of `world_rank`.
    pub(crate) fn rank_name(&self, world_rank: usize) -> &str {
        &self.names[world_rank]
    }

    /// Count one message operation by `me` against the fault plan; a kill
    /// trigger marks `me` failed through `fabric` (so peers see it) and
    /// returns [`Error::RankFailed`].
    pub(crate) fn fault_op(&self, fabric: &dyn Fabric, me: usize, op: &'static str) -> Result<()> {
        if let Some(fault) = &self.fault {
            if let Err(e) = fault.record_op(me, op) {
                fabric.mark_failed(me);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Draw the chaos decisions for one transmission by `me`, or `None`
    /// when no fault plan is installed.
    pub(crate) fn chaos_decision(&self, me: usize) -> Option<ChaosDecision> {
        self.fault.as_ref().map(|fault| fault.decide(me))
    }
}

impl Transport {
    pub(crate) fn new(np: usize, ctx: &WorldCtx, encoded_only: bool) -> Self {
        // Each mailbox records on its owner's lane.
        let mailboxes = (0..np)
            .map(|r| Mailbox::observed(ctx.obs.clone(), r))
            .collect();
        Transport {
            encoded_only,
            mailboxes,
            finished: (0..np).map(|_| AtomicBool::new(false)).collect(),
            failed: (0..np).map(|_| AtomicBool::new(false)).collect(),
            send_seqs: (0..np).map(|_| AtomicU64::new(0)).collect(),
            poll_interval: ctx.poll_interval,
            agreements: Mutex::new(HashMap::new()),
            agree_cv: Condvar::new(),
        }
    }
}

impl Fabric for Transport {
    fn np(&self) -> usize {
        self.mailboxes.len()
    }

    fn next_send_seq(&self, me: usize) -> u64 {
        self.send_seqs[me].fetch_add(1, Ordering::Relaxed)
    }

    fn shares_address_space(&self, _me: usize, _dest: usize) -> bool {
        // Every rank is a thread of this process, so all pairs qualify
        // for the shared in-process payload path — unless the world was
        // built with the encode-everything benchmark baseline.
        !self.encoded_only
    }

    /// Is rank `r` still running?
    fn rank_alive(&self, r: usize) -> bool {
        !self.finished[r].load(Ordering::SeqCst)
    }

    /// Has rank `r` failed (fault-plan kill or panic)?
    fn rank_failed(&self, r: usize) -> bool {
        self.failed[r].load(Ordering::SeqCst)
    }

    /// Raise rank `r`'s failed flag and wake any agreement waiters (they
    /// must re-examine membership when a participant dies).
    fn mark_failed(&self, r: usize) {
        self.failed[r].store(true, Ordering::SeqCst);
        self.agree_cv.notify_all();
    }

    fn finish(&self, me: usize) {
        self.finished[me].store(true, Ordering::SeqCst);
        self.agree_cv.notify_all();
    }

    fn transmit(
        &self,
        _me: usize,
        dest: usize,
        env: Envelope<Outgoing<'_>>,
        overtake: usize,
        duplicate: bool,
    ) {
        let env = env.map_payload(Outgoing::into_owned);
        self.mailboxes[dest].deliver_copies(env, overtake, duplicate);
    }

    fn mailbox(&self, world_rank: usize) -> &Mailbox {
        &self.mailboxes[world_rank]
    }

    /// One blocking agreement round through shared runtime state.
    fn agreement(&self, key: AgreeKey, me: usize, value: u64, group: &[usize]) -> AgreeSlot {
        let mut slots = self.agreements.lock();
        slots.entry(key).or_default().insert(me, value);
        self.agree_cv.notify_all();
        loop {
            let slot = slots.get(&key).expect("slot inserted above");
            let done = group
                .iter()
                .all(|&w| slot.contains_key(&w) || self.rank_failed(w) || !self.rank_alive(w));
            if done {
                // Slots are left in the map until the world is torn down:
                // their number is bounded by the agreement calls made, and
                // removal would race against members still reading.
                return slot.clone();
            }
            // Contributions and failures both notify the condvar; the
            // timeout is a backstop against missed wake-ups.
            self.agree_cv.wait_for(&mut slots, self.poll_interval);
        }
    }
}

/// World-creation ordinal for this process — see [`WorldSpec::epoch`].
/// Counts every provider-consulted world build (including thread
/// fallbacks and skips), so sibling processes running the same program
/// stay aligned on which world a rendezvous belongs to.
static WORLD_EPOCH: AtomicU64 = AtomicU64::new(0);

fn next_world_epoch() -> u64 {
    WORLD_EPOCH.fetch_add(1, Ordering::SeqCst)
}

/// Configures and launches a world of ranks.
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    np: usize,
    ranks_per_node: usize,
    obs: Obs,
    fault: Option<FaultPlan>,
    poll_interval: Duration,
    encoded_only: bool,
}

impl WorldBuilder {
    /// A world of `np` ranks, one rank per simulated node.
    pub fn new(np: usize) -> Self {
        WorldBuilder {
            np,
            ranks_per_node: 1,
            obs: Obs::none(),
            fault: None,
            poll_interval: DEFAULT_POLL_INTERVAL,
            encoded_only: false,
        }
    }

    /// When `true`, force every in-process payload through the full
    /// encode/decode wire path even though sender and receiver share an
    /// address space — the pre-zero-copy behaviour. Exists so benchmarks
    /// can measure the shared-payload fast path against the encoded
    /// baseline in the same build; semantics are identical either way.
    pub fn encoded_payloads(mut self, encoded_only: bool) -> Self {
        self.encoded_only = encoded_only;
        self
    }

    /// Attach a structured-event [`Tracer`]: every rank emits send/recv,
    /// collective-phase, and chaos-incident events on its world-rank lane.
    /// Drain the tracer after the run to inspect or export the stream.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.obs.tracer = Some(tracer);
        self
    }

    /// Attach a [`MetricsHub`]: every rank accumulates msg/byte counters,
    /// wait counters, and latency histograms on its world-rank lane.
    /// Snapshot the hub after the run (or during it, for live views).
    pub fn metrics(mut self, hub: MetricsHub) -> Self {
        self.obs.metrics = Some(hub);
        self
    }

    /// Install a [`FaultPlan`]: chaos (delay/reorder/drop/duplicate) and
    /// rank kills are injected inside the transport, underneath unmodified
    /// patternlet code.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// How long a blocked receive sleeps between deadlock-detector
    /// liveness re-checks (default [`DEFAULT_POLL_INTERVAL`], 20 ms).
    /// Shorter intervals detect failures faster at the cost of more
    /// wake-ups; the interval does not bound message latency (deliveries
    /// wake receivers immediately).
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        assert!(interval > Duration::ZERO, "poll interval must be positive");
        self.poll_interval = interval;
        self
    }

    /// Place `k` consecutive ranks on each simulated node (they share a
    /// hostname), modelling multicore cluster nodes.
    pub fn ranks_per_node(mut self, k: usize) -> Self {
        assert!(k > 0, "ranks_per_node must be positive");
        self.ranks_per_node = k;
        self
    }

    /// Launch the world: run `f` in every rank, return results in rank
    /// order. Like `mpirun`, all ranks execute the same program.
    ///
    /// When a process-wide [`FabricProvider`](crate::fabric::FabricProvider)
    /// is installed (multi-process launch under `pmrun`), the provider may
    /// take over transport duties: this process then runs *its own world
    /// rank only* over the provided [`Fabric`], and the returned vector
    /// holds that single rank's result (or nothing, if this process's rank
    /// is outside the world).
    pub fn run<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        if self.np == 0 {
            return Err(Error::InvalidConfig("world needs at least one rank".into()));
        }
        if let Some(provider) = crate::fabric::fabric_provider() {
            let spec = self.spec(next_world_epoch());
            if let Some(world) = provider(&spec)? {
                return Ok(run_provided(world, Arc::new(WorldCtx::new(&spec, None)), f));
            }
        }
        Ok(self.run_inner(f))
    }

    pub(crate) fn spec(&self, epoch: u64) -> WorldSpec {
        WorldSpec {
            np: self.np,
            ranks_per_node: self.ranks_per_node,
            fault: self.fault.clone(),
            poll_interval: self.poll_interval,
            tracer: self.obs.tracer.clone(),
            metrics: self.obs.metrics.clone(),
            epoch,
        }
    }

    /// Run every rank of a thread world.
    fn run_inner<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        let ctx = Arc::new(WorldCtx::new(&self.spec(0), Some(Detector::new(self.np))));
        let transport = Arc::new(Transport::new(self.np, &ctx, self.encoded_only));
        let results: Vec<Mutex<Option<R>>> = (0..self.np).map(|_| Mutex::new(None)).collect();

        // Traced worlds line every rank up at a start gate before the
        // body runs, so the recorded timelines begin together and spawn
        // order doesn't masquerade as blocked time in the analysis. The
        // multi-process fabrics do the same with an agreement round at
        // the end of rendezvous. A spin gate rather than `sync::Barrier`:
        // condvar wakeup latency (tens of µs) would stagger the release
        // by more than an in-process message takes to deliver, hiding
        // real message edges from the critical path.
        let start_gate = ctx
            .obs
            .tracer
            .is_some()
            .then(|| std::sync::atomic::AtomicUsize::new(0));
        let np = self.np;

        std::thread::scope(|scope| {
            for (rank, slot) in results.iter().enumerate() {
                let transport = Arc::clone(&transport);
                let ctx = Arc::clone(&ctx);
                let f = &f;
                let start_gate = &start_gate;
                scope.spawn(move || {
                    let _guard = FinishGuard {
                        fabric: &*transport,
                        rank,
                    };
                    let comm =
                        Comm::over_fabric(rank, Arc::clone(&transport) as Arc<dyn Fabric>, ctx);
                    if let Some(gate) = start_gate {
                        gate.fetch_add(1, Ordering::SeqCst);
                        let mut spins = 0u32;
                        while gate.load(Ordering::SeqCst) < np {
                            spins += 1;
                            if spins.is_multiple_of(1024) {
                                // More ranks than cores must not livelock
                                // the unarrived ones off the CPU.
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                    let r = f(comm);
                    *slot.lock() = Some(r);
                });
            }
        });

        results
            .into_iter()
            .map(|m| m.into_inner().expect("every rank produced a result"))
            .collect()
    }
}

/// Run this process's single rank of a provider-built world.
fn run_provided<R, F>(world: ProvidedWorld, ctx: Arc<WorldCtx>, f: F) -> Vec<R>
where
    F: Fn(Comm) -> R,
{
    let ProvidedWorld::Rank { rank, fabric } = world else {
        return Vec::new();
    };
    let _guard = FinishGuard {
        fabric: &*fabric,
        rank,
    };
    vec![f(Comm::over_fabric(rank, Arc::clone(&fabric), ctx))]
}

/// Announces a rank's exit through its fabric even if the body panics, so
/// peers blocked on it report the failure instead of hanging while the
/// panic propagates. A panicking rank is marked *failed* first, so peers
/// see `RankFailed` rather than `Deadlock`.
struct FinishGuard<'a> {
    fabric: &'a dyn Fabric,
    rank: usize,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.fabric.mark_failed(self.rank);
        }
        self.fabric.finish(self.rank);
    }
}

/// Entry point mirroring `mpirun`.
pub struct World;

impl World {
    /// `mpirun -np <np>`: run `f` in `np` ranks, panicking on configuration
    /// errors. Returns per-rank results in rank order.
    pub fn run<R, F>(np: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        WorldBuilder::new(np)
            .run(f)
            .expect("world configuration is valid")
    }

    /// A configurable builder.
    pub fn builder(np: usize) -> WorldBuilder {
        WorldBuilder::new(np)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids_and_size() {
        let out = World::run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| comm.rank());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn zero_rank_world_is_invalid() {
        let err = WorldBuilder::new(0).run(|_| ()).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn default_hostnames_match_paper_figure_6() {
        // One rank per node: process i runs on node-0(i+1).
        let out = World::run(4, |comm| comm.processor_name().to_string());
        assert_eq!(out, vec!["node-01", "node-02", "node-03", "node-04"]);
    }

    #[test]
    fn ranks_per_node_shares_hostnames() {
        let out = World::builder(6)
            .ranks_per_node(2)
            .run(|comm| comm.processor_name().to_string())
            .unwrap();
        assert_eq!(
            out,
            vec!["node-01", "node-01", "node-02", "node-02", "node-03", "node-03"]
        );
    }

    #[test]
    fn results_are_in_rank_order_regardless_of_finish_order() {
        let out = World::run(5, |comm| {
            // Later ranks finish first.
            std::thread::sleep(std::time::Duration::from_millis(
                (5 - comm.rank() as u64) * 2,
            ));
            comm.rank() * 100
        });
        assert_eq!(out, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        World::run(3, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
