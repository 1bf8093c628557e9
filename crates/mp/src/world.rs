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

use parking_lot::Mutex as PlMutex;

use crate::comm::Comm;
use crate::envelope::{Envelope, Outgoing};
use crate::fabric::{AgreeKey, AgreeSlot, Fabric, ProvidedWorld, WorldSpec};
use crate::fault::{ChaosDecision, FaultPlan, FaultState};
use crate::mailbox::Mailbox;
use crate::status::{SourceSel, TagSel};

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
    /// What each world rank is currently blocked receiving (None = not
    /// blocked). Basis of the waits-for deadlock detector.
    pub(crate) waits: Vec<PlMutex<Option<WaitRecord>>>,
    /// Bumped on every publish/clear of a wait record; used to confirm a
    /// deadlock verdict against a quiescent snapshot.
    pub(crate) wait_epochs: Vec<AtomicU64>,
    /// Bumped on every message delivery. A deadlock verdict is only valid
    /// if no delivery happened while it was being computed — otherwise a
    /// just-delivered message could wake a rank the fixpoint still counts
    /// as stuck.
    pub(crate) progress: AtomicU64,
    /// Backstop for missed agreement wake-ups.
    pub(crate) poll_interval: Duration,
    /// Force every payload through the encode/decode wire path even
    /// though all ranks share this address space (benchmark baseline;
    /// see [`WorldBuilder::encoded_payloads`]).
    pub(crate) encoded_only: bool,
    /// Message-free agreement slots for `Comm::agree`/`Comm::shrink`
    /// (ULFM-style operations must work when messaging peers are dead, so
    /// they synchronise through shared runtime state instead).
    pub(crate) agreements: PlMutex<HashMap<AgreeKey, AgreeSlot>>,
    pub(crate) agree_cv: Condvar,
}

/// A blocked receive, as seen by the deadlock detector. Published to the
/// [`Fabric`] by every blocking receive; backends with a global view (the
/// in-process one) feed it to a waits-for fixpoint, others may ignore it.
#[derive(Clone)]
pub struct WaitRecord {
    /// Communicator the receive is posted on.
    pub comm_id: u64,
    /// The receive's source selector (communicator-local numbering).
    pub src: SourceSel,
    /// The receive's tag selector.
    pub tag: TagSel,
    /// World rank of the receiving rank.
    pub world_rank: usize,
    /// World ranks of the whole communicator the receive is posted on
    /// (the failure model fails collective receives when *any* member is
    /// dead, not just the awaited peer).
    pub world_group: Arc<Vec<usize>>,
}

impl WaitRecord {
    /// World ranks whose future sends could satisfy this receive: the
    /// awaited member, or every member but the receiver.
    pub fn world_sources(&self) -> impl Iterator<Item = usize> + '_ {
        let wanted = move |(local, world): &(usize, usize)| match self.src {
            SourceSel::Rank(r) => *local == r,
            SourceSel::Any => *world != self.world_rank,
        };
        self.world_group
            .iter()
            .copied()
            .enumerate()
            .filter(wanted)
            .map(|(_, world)| world)
    }
}

/// What every rank of one world shares above the transport: simulated
/// hostnames, the receive poll interval, the tracer and metrics hub, and
/// the fault plan's state. [`WorldBuilder`] builds it once per world from
/// the [`WorldSpec`], and every [`Comm`] of the world holds it, so no
/// [`Fabric`] has to carry any of it.
pub(crate) struct WorldCtx {
    names: Vec<String>,
    /// How long blocked receives sleep between liveness re-checks.
    pub(crate) poll_interval: Duration,
    /// Tracer and metrics hub: every instrumentation point of a rank
    /// records through it on the rank's world lane.
    pub(crate) obs: Obs,
    fault: Option<FaultState>,
}

impl WorldCtx {
    fn new(spec: &WorldSpec) -> Self {
        WorldCtx {
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
    fn new(np: usize, ctx: &WorldCtx, encoded_only: bool) -> Self {
        // Each mailbox records on its owner's lane.
        let mailboxes = (0..np)
            .map(|r| Mailbox::observed(ctx.obs.clone(), r))
            .collect();
        Transport {
            encoded_only,
            progress: AtomicU64::new(0),
            mailboxes,
            finished: (0..np).map(|_| AtomicBool::new(false)).collect(),
            failed: (0..np).map(|_| AtomicBool::new(false)).collect(),
            send_seqs: (0..np).map(|_| AtomicU64::new(0)).collect(),
            waits: (0..np).map(|_| PlMutex::new(None)).collect(),
            wait_epochs: (0..np).map(|_| AtomicU64::new(0)).collect(),
            poll_interval: ctx.poll_interval,
            agreements: PlMutex::new(HashMap::new()),
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
        // Order matters: bump progress BEFORE the delivery becomes
        // matchable, so any deadlock verdict computed across this delivery
        // sees the progress change and rejects itself.
        self.progress.fetch_add(1, Ordering::SeqCst);
        self.mailboxes[dest].deliver_copies(env, overtake, duplicate);
    }

    fn mailbox(&self, world_rank: usize) -> &Mailbox {
        &self.mailboxes[world_rank]
    }

    /// Record that `world_rank` is blocked on `record`.
    fn publish_wait(&self, world_rank: usize, record: WaitRecord) {
        *self.waits[world_rank].lock() = Some(record);
        self.wait_epochs[world_rank].fetch_add(1, Ordering::SeqCst);
    }

    /// Record that `world_rank` is no longer blocked.
    fn clear_wait(&self, world_rank: usize) {
        *self.waits[world_rank].lock() = None;
        self.wait_epochs[world_rank].fetch_add(1, Ordering::SeqCst);
    }

    /// Waits-for deadlock detection: is `me` part of a set of ranks none
    /// of which can ever make progress?
    ///
    /// A rank is *stuck* if it has finished, or if it is blocked in a
    /// receive that (a) has no matching envelope queued and (b) can only
    /// be satisfied by stuck ranks. The fixpoint starts from "every
    /// finished or blocked-with-empty-queue rank is stuck" and repeatedly
    /// un-sticks ranks with a non-stuck potential sender. If `me` remains
    /// stuck, no future delivery can wake it.
    ///
    /// Concurrency: the verdict is only trusted when every rank's wait
    /// epoch is identical before and after the computation — i.e. nobody
    /// published, woke, or cleared a wait while we looked. Otherwise we
    /// report "no deadlock" and let the caller retry on its next timeout.
    fn deadlocked(&self, me: usize) -> Option<String> {
        let np = self.mailboxes.len();
        let progress_before = self.progress.load(Ordering::SeqCst);
        let epochs_before: Vec<u64> = self
            .wait_epochs
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .collect();

        // Snapshot the wait records.
        let records: Vec<Option<WaitRecord>> =
            self.waits.iter().map(|w| w.lock().clone()).collect();

        // A wait the failure model fail-fasts is an *escape*, not a block:
        // its owner's own liveness check resolves it to `RankFailed` on
        // the next poll, after which the owner makes progress. Mirrors
        // the conditions in `recv_match`'s liveness closure exactly —
        // without this, a detector running in the window between a kill
        // and the blocked peer's next poll would see that peer as stuck
        // and misreport `Deadlock` where `RankFailed` is imminent.
        let failure_resolves = |rec: &WaitRecord| -> bool {
            if matches!(rec.tag, TagSel::Tag(t) if crate::envelope::is_collective_tag(t))
                && rec.world_group.iter().any(|&w| self.rank_failed(w))
            {
                return true;
            }
            match rec.src {
                SourceSel::Rank(_) => rec.world_sources().any(|w| self.rank_failed(w)),
                SourceSel::Any => {
                    rec.world_sources().any(|w| self.rank_failed(w))
                        && rec
                            .world_sources()
                            .all(|w| self.rank_failed(w) || !self.rank_alive(w))
                }
            }
        };

        // Initial stuck set: finished, or blocked with no queued match.
        // The caller holds its OWN mailbox lock, so other mailboxes are
        // only try-probed: an unprobeable mailbox means its owner is
        // active right now, so we abort and retry on the next timeout
        // (this also rules out lock-order cycles between two detectors).
        let mut stuck: Vec<bool> = Vec::with_capacity(np);
        for (r, record) in records.iter().enumerate() {
            let s = if !self.rank_alive(r) {
                true
            } else if r == me {
                // The caller just scanned its queue and found no match.
                record.is_some()
            } else {
                match record {
                    None => false,                               // running
                    Some(rec) if failure_resolves(rec) => false, // about to error out
                    Some(rec) => {
                        match self.mailboxes[r].try_probe(rec.comm_id, rec.src, rec.tag) {
                            Some(has_match) => !has_match,
                            None => return None, // busy: verdict unavailable
                        }
                    }
                }
            };
            stuck.push(s);
        }

        // Un-stick any blocked rank with a live, non-stuck potential
        // sender (finished ranks stay stuck: they will never send again).
        loop {
            let mut changed = false;
            for r in 0..np {
                if !stuck[r] || !self.rank_alive(r) {
                    continue;
                }
                if let Some(rec) = &records[r] {
                    if rec.world_sources().any(|s| !stuck[s]) {
                        stuck[r] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // A failure that landed after the caller's own liveness check
        // resolves its wait on the next poll. Ranks raise `failed` before
        // `finished`, so a peer seen finished above shows its failure here.
        if !stuck[me] || records[me].as_ref().is_some_and(failure_resolves) {
            return None;
        }
        // Confirm against a quiescent snapshot: no wait was posted,
        // matched, or cleared — and no message was delivered — while we
        // were looking.
        let epochs_after: Vec<u64> = self
            .wait_epochs
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .collect();
        if epochs_before != epochs_after || self.progress.load(Ordering::SeqCst) != progress_before
        {
            return None;
        }
        // Render the stuck set for the diagnostic.
        let mut graph = String::new();
        for r in 0..np {
            if !stuck[r] {
                continue;
            }
            if !self.rank_alive(r) {
                graph.push_str(&format!("[world {r}: finished] "));
            } else if let Some(rec) = &records[r] {
                graph.push_str(&format!(
                    "[world {r}: blocked on {:?} from world {:?} (comm {:#x}, tag {:?})] ",
                    rec.src,
                    rec.world_sources().collect::<Vec<_>>(),
                    rec.comm_id,
                    rec.tag
                ));
            }
        }
        Some(graph.trim_end().to_string())
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
                return self.run_provided(world, Arc::new(WorldCtx::new(&spec)), f);
            }
        }
        self.run_inner(f)
    }

    fn spec(&self, epoch: u64) -> WorldSpec {
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

    /// Run this process's single rank of a provider-built world.
    fn run_provided<R, F>(&self, world: ProvidedWorld, ctx: Arc<WorldCtx>, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        let ProvidedWorld::Rank { rank, fabric } = world else {
            return Ok(Vec::new());
        };
        // Same contract as the thread backend's guard: announce finish
        // even if `f` panics (so peers see a failure, not a hang), and
        // mark the rank failed on panic so they see `RankFailed`.
        struct FinishGuard {
            fabric: Arc<dyn Fabric>,
            rank: usize,
        }
        impl Drop for FinishGuard {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.fabric.mark_failed(self.rank);
                }
                self.fabric.finish(self.rank);
            }
        }
        let _guard = FinishGuard {
            fabric: Arc::clone(&fabric),
            rank,
        };
        let comm = Comm::over_fabric(rank, fabric, ctx);
        Ok(vec![f(comm)])
    }

    fn run_inner<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        if self.np == 0 {
            return Err(Error::InvalidConfig("world needs at least one rank".into()));
        }
        let ctx = Arc::new(WorldCtx::new(&self.spec(0)));
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
                    // Mark the rank finished even if `f` panics, so peers
                    // blocked in recv() report the failure instead of
                    // hanging while the panic propagates. A panicking rank
                    // is additionally marked *failed*, so peers see
                    // `RankFailed` rather than `Deadlock`.
                    struct FinishGuard<'a> {
                        transport: &'a Transport,
                        rank: usize,
                    }
                    impl Drop for FinishGuard<'_> {
                        fn drop(&mut self) {
                            if std::thread::panicking() {
                                self.transport.mark_failed(self.rank);
                            }
                            self.transport.finished[self.rank].store(true, Ordering::SeqCst);
                            self.transport.agree_cv.notify_all();
                        }
                    }
                    let _guard = FinishGuard {
                        transport: &transport,
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

        Ok(results
            .into_iter()
            .map(|m| m.into_inner().expect("every rank produced a result"))
            .collect())
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
    fn a_failure_racing_the_liveness_check_is_not_a_deadlock() {
        // What a lost race leaves behind: rank 0's own liveness check saw
        // rank 1 alive, then rank 1 was killed and finished before rank 0
        // ran the detector. Its next poll reports RankFailed instead.
        let ctx = WorldCtx::new(&WorldBuilder::new(2).spec(0));
        let transport = Transport::new(2, &ctx, false);
        transport.publish_wait(
            0,
            WaitRecord {
                comm_id: 0,
                src: SourceSel::Rank(1),
                tag: TagSel::Tag(0),
                world_rank: 0,
                world_group: Arc::new(vec![0, 1]),
            },
        );
        transport.mark_failed(1);
        transport.finished[1].store(true, Ordering::SeqCst);
        assert_eq!(transport.deadlocked(0), None);
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
