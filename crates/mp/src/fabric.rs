//! The transport seam: [`Fabric`] is what a [`crate::Comm`] needs from
//! the layer that moves envelopes between ranks — delivery, liveness,
//! finish, agreement and the rank's own mailbox — and nothing else.
//!
//! The in-process [`crate::World`] backend (ranks as threads, one shared
//! [`crate::mailbox::Mailbox`] per rank) is one implementation; the
//! `patternlets-net` crate provides the multi-process ones, in which every
//! rank is a separate OS process on a mesh of TCP or shared-memory links.
//! Patternlet code never sees the difference: the
//! [`Datatype`](crate::Datatype) layer already round-trips every payload
//! through bytes, so the only thing a backend changes is *how* those
//! bytes cross the rank boundary. Every send reaches a backend through
//! one method, [`Fabric::transmit`], in the form `Comm::prepare_payload`
//! chose: an owned [`Payload`](crate::Payload), or — for a larger `u8`
//! send, whose elements are their own bytes — the sender's slice,
//! borrowed for the call ([`Outgoing::Wire`]), so that the backend's one
//! copy of the bytes is the only one. What is not transport — hostnames,
//! the receive poll interval, tracer, metrics hub and fault plan — lives in
//! the world context [`crate::WorldBuilder`] builds from the
//! [`WorldSpec`] and every `Comm` holds.
//!
//! A process that wants worlds built on a different backend installs a
//! [`FabricProvider`] via [`install_fabric_provider`] (the net crate's
//! one provider does, for `pmrun` and `pmserve` workers alike, keyed off
//! the rank's job context). Every subsequent
//! [`crate::WorldBuilder::run`] consults the provider; when it returns a
//! fabric, the builder runs *this process's rank only* over that fabric
//! instead of spawning rank threads.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use patternlets_core::Result;
use patternlets_metrics::{MetricsHub, Obs};
use patternlets_trace::Tracer;

use crate::envelope::{Envelope, Outgoing};
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::world::WaitRecord;

/// Key of one agreement round: (communicator id, operation kind,
/// agreement sequence number on that communicator).
pub type AgreeKey = (u64, u8, u64);

/// Contributions to one agreement round, by world rank.
pub type AgreeSlot = HashMap<usize, u64>;

/// The transport backend under a world: delivery, liveness, failure
/// marking, and the message-free agreement protocol.
///
/// All ranks in the methods below are **world** ranks. A backend hosting
/// only one rank of the world (one process of a multi-process job) must
/// support [`Fabric::mailbox`] for that rank alone; `Comm` only ever
/// reads its own mailbox, and delivers a rank's sends to itself straight
/// into it, never through [`Fabric::transmit`]. The defaulted methods fit
/// a backend that hosts one rank per process; the thread backend, which
/// sees every rank, overrides them.
pub trait Fabric: Send + Sync {
    /// World size.
    fn np(&self) -> usize;

    /// Next per-sender sequence number for `me` (monotone per sender;
    /// receivers deduplicate retransmissions by it).
    fn next_send_seq(&self, me: usize) -> u64;

    /// Deliver `env` from `me` to `dest`'s mailbox (`dest != me`),
    /// displaced past up to `overtake` envelopes from other senders; when
    /// `duplicate`, a second copy is transmitted, which the receiving
    /// mailbox deduplicates and records as a duplicate drop. An
    /// [`Outgoing::Wire`] payload is only borrowed for the call, so the
    /// sender may reuse its slice as soon as this returns.
    fn transmit(
        &self,
        me: usize,
        dest: usize,
        env: Envelope<Outgoing<'_>>,
        overtake: usize,
        duplicate: bool,
    );

    /// [`transmit`](Fabric::transmit) an envelope that owns its payload.
    fn deliver(&self, me: usize, dest: usize, env: Envelope, overtake: usize, duplicate: bool) {
        let env = env.map_payload(Outgoing::Owned);
        self.transmit(me, dest, env, overtake, duplicate);
    }

    /// The mailbox of `world_rank`. Backends hosting a single rank may
    /// panic for any other rank; `Comm` only reads its own.
    fn mailbox(&self, world_rank: usize) -> &Mailbox;

    /// Is `world_rank` still running (not finished, normally or not)?
    fn rank_alive(&self, world_rank: usize) -> bool;

    /// Has `world_rank` failed (fault-plan kill, panic, or — on network
    /// backends — a dead peer process)?
    fn rank_failed(&self, world_rank: usize) -> bool;

    /// Raise `world_rank`'s failed flag and wake any waiters that must
    /// re-examine membership. Network backends announce a rank's own
    /// failure to its peers.
    fn mark_failed(&self, world_rank: usize);

    /// Mark `me` finished (rank body returned). Network backends announce
    /// this to peers so a closed connection afterwards reads as a normal
    /// exit, not a failure.
    fn finish(&self, me: usize);

    /// One blocking round of the message-free agreement protocol behind
    /// `Comm::agree`/`Comm::shrink`: contribute `value` for `me` under
    /// `key`, then wait until every member of `group` has contributed,
    /// failed, or finished. Every caller observes the same final map.
    fn agreement(&self, key: AgreeKey, me: usize, value: u64, group: &[usize]) -> AgreeSlot;

    /// Do `me` and `dest` share an address space, so a send between them
    /// may ship a shared in-process payload
    /// ([`Payload::InProc`](crate::envelope::Payload)) instead of an
    /// encoded one? A backend answering `true` must deliver envelopes by
    /// handing them to the destination's [`Mailbox`] directly. By default
    /// only a rank's sends to itself qualify; `InProc` payloads that do
    /// reach a wire-crossing backend are converted at the framing seam via
    /// `Payload::to_wire`. A `false` also lets a large `u8` send skip its
    /// encode and reach [`Fabric::transmit`] as the sender's slice.
    fn shares_address_space(&self, me: usize, dest: usize) -> bool {
        me == dest
    }

    /// Record that `me` is blocked on `record` (waits-for deadlock
    /// detection). Backends without a global view ignore this.
    fn publish_wait(&self, me: usize, record: WaitRecord) {
        let _ = (me, record);
    }

    /// Record that `me` is no longer blocked.
    fn clear_wait(&self, me: usize) {
        let _ = me;
    }

    /// Waits-for deadlock verdict for `me`: a rendered stuck-set when the
    /// backend can *prove* no future delivery can wake `me`, else `None`.
    /// Backends without a global view return `None` (never a false
    /// positive); receives from finished ranks still resolve through
    /// [`Fabric::rank_alive`].
    fn deadlocked(&self, me: usize) -> Option<String> {
        let _ = me;
        None
    }

    /// A communicator owned by `me` was dropped: release per-communicator
    /// receive-side state (the mailbox's dedup high-water marks and any
    /// stray queued envelopes for `comm_id`), so long-running worlds that
    /// split/shrink in a loop don't accumulate per-communicator entries.
    fn prune_comm(&self, me: usize, comm_id: u64) {
        self.mailbox(me).prune_comm(comm_id);
    }
}

/// What a rank's process should run for one world, as decided by the
/// installed [`FabricProvider`].
pub enum ProvidedWorld {
    /// This process hosts world rank `rank`: run the body once over
    /// `fabric` and return a one-element result vector.
    Rank {
        /// The world rank this process plays.
        rank: usize,
        /// The backend carrying this world's traffic.
        fabric: Arc<dyn Fabric>,
    },
    /// This process takes no part in this world (its rank is outside the
    /// world's size); the body is not run and the result vector is empty.
    Skip,
}

/// Everything a [`FabricProvider`] needs to know about the world being
/// built.
#[derive(Clone)]
pub struct WorldSpec {
    /// Requested world size.
    pub np: usize,
    /// Ranks per simulated node (hostname grouping).
    pub ranks_per_node: usize,
    /// Installed fault plan, if any.
    pub fault: Option<FaultPlan>,
    /// Liveness re-check interval for blocked receives.
    pub poll_interval: Duration,
    /// Structured-event tracer, if tracing is on.
    pub tracer: Option<Tracer>,
    /// Metrics hub, if metrics collection is on.
    pub metrics: Option<MetricsHub>,
    /// World-creation ordinal in this process (0 for the first world a
    /// process builds, 1 for the next, ...). All processes of a job run
    /// the same program, so ordinals line up across processes and serve
    /// as the rendezvous epoch.
    pub epoch: u64,
}

impl WorldSpec {
    /// The spec's tracer and metrics hub as one [`Obs`].
    pub fn obs(&self) -> Obs {
        Obs {
            tracer: self.tracer.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

/// Decides, per world, whether to take over transport duties. Returning
/// `Ok(None)` falls back to the in-process thread backend; errors abort
/// the world build.
pub type FabricProvider = dyn Fn(&WorldSpec) -> Result<Option<ProvidedWorld>> + Send + Sync;

static PROVIDER: OnceLock<Box<FabricProvider>> = OnceLock::new();

/// Install a process-wide [`FabricProvider`], consulted by every
/// subsequent [`crate::WorldBuilder::run`]. Returns `false` (and leaves
/// the existing provider in place) if one was already installed.
pub fn install_fabric_provider(provider: Box<FabricProvider>) -> bool {
    PROVIDER.set(provider).is_ok()
}

/// The installed provider, if any.
pub(crate) fn fabric_provider() -> Option<&'static FabricProvider> {
    PROVIDER.get().map(|b| b.as_ref())
}
