//! The rendezvous: how N worker processes find each other's listeners.
//!
//! The membership state machine lives in [`RendezvousCore`], shared by
//! two front doors:
//!
//! * `pmrun` starts the classic one-shot [`serve_with`] loop before
//!   spawning workers and passes its address down via `PMRUN_RENDEZVOUS`;
//!   the same listener takes the ranks' report connections;
//! * `pmserve` (the long-lived cluster daemon in `patternlets-serve`)
//!   folds the same core into its cluster listener, dispatching
//!   [`Frame::Register`] connections into [`RendezvousCore::admit`] while
//!   other first-frames (worker hellos) take the pool path.
//!
//! Each worker, per world it builds, binds a fresh listener and
//! [`register`]s `(epoch, rank, np, addr)` exactly once; when `np`
//! distinct ranks have registered for an epoch the core replies to each
//! with the full address table and forgets the epoch. Epochs are independent, so ranks that
//! skip a small world (their rank is outside it) can already be
//! registering for the next one while slower ranks are still inside the
//! current one — and, under `pmserve`, concurrent *jobs* rendezvous
//! through the same core because each job's worlds are namespaced into a
//! disjoint epoch block.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use patternlets_core::{Error, Result};
use patternlets_mp::fabric::WorldSpec;

use crate::frame::{encode_frame, read_frame, write_frame, Frame};

/// How long a worker waits for its siblings to register before giving up
/// — generous, because a missing sibling means the job is already lost.
pub const REGISTER_TIMEOUT: Duration = Duration::from_secs(30);

struct EpochGroup {
    np: usize,
    /// rank → (listener address, the registrant's connection).
    entries: HashMap<usize, (String, TcpStream)>,
}

#[derive(Default)]
struct CoreState {
    epochs: HashMap<u64, EpochGroup>,
    /// Half-open epoch ranges whose jobs are known dead: registrations
    /// for them are refused on arrival (connection dropped) instead of
    /// parked forever. Grows by one entry per aborted job attempt.
    poisoned: Vec<(u64, u64)>,
}

impl CoreState {
    fn is_poisoned(&self, epoch: u64) -> bool {
        self.poisoned
            .iter()
            .any(|&(lo, hi)| lo <= epoch && epoch < hi)
    }
}

/// The reusable membership core: epoch-keyed registration groups, each
/// released (every registrant gets the full rank-ordered address table)
/// the moment its `np`-th distinct rank arrives.
///
/// Thread-safe; `pmserve` calls [`admit`](Self::admit) from many
/// connection-handling threads at once.
#[derive(Default)]
pub struct RendezvousCore {
    state: Mutex<CoreState>,
}

impl RendezvousCore {
    /// An empty core with no epochs in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one registration, parking `conn` until its epoch completes.
    /// When this registration is the epoch's last, every parked
    /// connection (this one included) is answered with the rank-ordered
    /// [`Frame::Table`] and the epoch is forgotten.
    pub fn admit(&self, epoch: u64, rank: usize, np: usize, addr: String, conn: TcpStream) {
        let complete = {
            let mut state = self.state.lock().expect("rendezvous lock");
            if state.is_poisoned(epoch) {
                // The job this world belongs to already lost a member;
                // dropping the connection fails the registrant now
                // instead of parking it until REGISTER_TIMEOUT.
                drop(state);
                drop(conn);
                return;
            }
            let group = state.epochs.entry(epoch).or_insert_with(|| EpochGroup {
                np,
                entries: HashMap::new(),
            });
            group.entries.insert(rank, (addr, conn));
            if group.entries.len() == group.np {
                state.epochs.remove(&epoch)
            } else {
                None
            }
        };
        if let Some(group) = complete {
            // Replies happen outside the lock: a slow registrant socket
            // must not stall other epochs' admissions.
            let addrs: Vec<String> = (0..group.np).map(|r| group.entries[&r].0.clone()).collect();
            let table = encode_frame(&Frame::Table { addrs });
            for (_, (_, mut conn)) in group.entries {
                let _ = conn.write_all(&table);
            }
        }
        // An incomplete epoch keeps waiting; abandoned epochs (a sibling
        // died before registering) are bounded by the registrants' own
        // REGISTER_TIMEOUT — their sockets error out and the entries are
        // overwritten or leak one map slot per lost epoch, which the
        // one-shot server never notices and the daemon's epoch blocks
        // make unreachable for future jobs.
    }

    /// Abort every pending epoch in `[lo, hi)` and poison the range:
    /// parked registrants have their connections dropped (their
    /// `register` fails immediately, reading as a died-sibling error) and
    /// later registrations for the range are refused on arrival. The
    /// daemon calls this with a job attempt's epoch block when a member
    /// worker dies, so surviving ranks fail fast instead of waiting out
    /// [`REGISTER_TIMEOUT`] on a rendezvous that can never complete.
    pub fn abort_block(&self, lo: u64, hi: u64) {
        let dropped: Vec<EpochGroup> = {
            let mut state = self.state.lock().expect("rendezvous lock");
            state.poisoned.push((lo, hi));
            let doomed: Vec<u64> = state
                .epochs
                .keys()
                .copied()
                .filter(|&e| lo <= e && e < hi)
                .collect();
            doomed
                .into_iter()
                .filter_map(|e| state.epochs.remove(&e))
                .collect()
        };
        // Connections close on drop, outside the lock.
        drop(dropped);
    }

    /// Number of epochs with at least one parked registrant (diagnostic).
    pub fn pending_epochs(&self) -> usize {
        self.state.lock().expect("rendezvous lock").epochs.len()
    }
}

/// Bind a rendezvous server on loopback and serve registrations on a
/// detached daemon thread for the life of the process. Returns the bound
/// address to hand to workers. (`pmserve` embeds [`RendezvousCore`] in
/// its own listener instead.)
pub fn serve() -> std::io::Result<SocketAddr> {
    serve_with(|_, _| {})
}

/// [`serve`], handing every connection whose first frame is not a
/// [`Frame::Register`] to `other`, with that frame: `pmrun`'s ranks send
/// their reports to the listener they rendezvous at. `other` runs on the
/// accept thread, in arrival order, so it must not block.
pub fn serve_with(
    other: impl Fn(Frame, TcpStream) + Send + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::Builder::new()
        .name("pmrun-rendezvous".into())
        .spawn(move || serve_loop(listener, other))?;
    Ok(addr)
}

fn serve_loop(listener: TcpListener, other: impl Fn(Frame, TcpStream)) {
    let core = RendezvousCore::new();
    for conn in listener.incoming() {
        let Ok(mut conn) = conn else { continue };
        // Whoever connects speaks first, promptly, so a short sequential
        // read here cannot stall the loop for long; the timeout protects
        // against a half-dead client.
        let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
        match read_frame(&mut conn) {
            Ok(Some(Frame::Register {
                epoch,
                rank,
                np,
                addr,
            })) => core.admit(epoch, rank as usize, np as usize, addr, conn),
            Ok(Some(frame)) => other(frame, conn),
            _ => {}
        }
    }
}

/// A rank's one registration for world `spec`: bind its loopback
/// listener, register the listener's address, with the shm
/// advertisement `ad` appended when given, and block until the table
/// arrives. Every fabric is built from the listener and table this
/// returns.
pub(crate) fn bind_and_register(
    server: &str,
    me: usize,
    spec: &WorldSpec,
    ad: Option<&str>,
) -> Result<(TcpListener, Vec<String>)> {
    let bound = |e| Error::Codec(format!("bind listener: {e}"));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(bound)?;
    let addr = format!(
        "{}{}",
        listener.local_addr().map_err(bound)?,
        ad.unwrap_or("")
    );
    let table = register(server, spec.epoch, me, spec.np, &addr)?;
    Ok((listener, table))
}

/// Register this rank's listener for `epoch` and block until the full
/// address table arrives (every member registered).
pub fn register(
    server: &str,
    epoch: u64,
    rank: usize,
    np: usize,
    my_addr: &str,
) -> Result<Vec<String>> {
    let mut conn = TcpStream::connect(server)
        .map_err(|e| Error::Codec(format!("cannot reach rendezvous at {server}: {e}")))?;
    conn.set_read_timeout(Some(REGISTER_TIMEOUT))
        .map_err(|e| Error::Codec(format!("rendezvous socket setup: {e}")))?;
    write_frame(
        &mut conn,
        &Frame::Register {
            epoch,
            rank: rank as u64,
            np: np as u64,
            addr: my_addr.to_string(),
        },
    )
    .map_err(|e| Error::Codec(format!("rendezvous register: {e}")))?;
    match read_frame(&mut conn)? {
        Some(Frame::Table { addrs }) if addrs.len() == np => Ok(addrs),
        Some(Frame::Table { addrs }) => Err(Error::Codec(format!(
            "rendezvous table has {} entries, expected {np}",
            addrs.len()
        ))),
        other => Err(Error::Codec(format!(
            "unexpected rendezvous reply: {other:?} (a sibling worker may have died before \
             registering)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_epoch_gets_everyone_the_same_table() {
        let server = serve().unwrap().to_string();
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let server = server.clone();
                std::thread::spawn(move || {
                    register(&server, 0, rank, 3, &format!("127.0.0.1:{}", 9000 + rank)).unwrap()
                })
            })
            .collect();
        let tables: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for table in &tables {
            assert_eq!(table, &tables[0]);
            assert_eq!(table[2], "127.0.0.1:9002", "rank order preserved");
        }
    }

    #[test]
    fn concurrent_epochs_do_not_mix() {
        let server = serve().unwrap().to_string();
        // Epoch 1's lone rank registers first, then epoch 0's pair.
        let s1 = server.clone();
        let later = std::thread::spawn(move || register(&s1, 1, 0, 1, "127.0.0.1:7001").unwrap());
        let t1 = later.join().unwrap();
        assert_eq!(t1, vec!["127.0.0.1:7001"]);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let server = server.clone();
                std::thread::spawn(move || {
                    register(&server, 0, rank, 2, &format!("127.0.0.1:{}", 7100 + rank)).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().len(), 2);
        }
    }

    #[test]
    fn other_first_frames_go_to_the_handler_and_registrations_still_complete() {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = serve_with(move |frame, _conn| tx.send(frame).unwrap())
            .unwrap()
            .to_string();
        let mut other = TcpStream::connect(&server).unwrap();
        write_frame(&mut other, &Frame::Shutdown).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Frame::Shutdown
        );
        assert_eq!(
            register(&server, 0, 0, 1, "127.0.0.1:9000").unwrap(),
            vec!["127.0.0.1:9000"]
        );
        assert!(rx.try_recv().is_err(), "a Register is not handed over");
    }

    /// The shared core, driven directly (the way `pmserve` drives it):
    /// admissions from many threads, interleaved across epochs, each
    /// epoch released exactly when its last rank lands.
    #[test]
    fn core_releases_epochs_independently() {
        use std::sync::Arc;
        let core = Arc::new(RendezvousCore::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Feed the core raw sockets: each "registrant" is a connected
        // pair; the accept side is what admit() parks and answers.
        let mut clients = Vec::new();
        for (epoch, rank, np) in [(5u64, 0usize, 2usize), (6, 0, 1), (5, 1, 2)] {
            let client = TcpStream::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let (server_side, _) = listener.accept().unwrap();
            core.admit(
                epoch,
                rank,
                np,
                format!("127.0.0.1:{}", 8000 + rank),
                server_side,
            );
            clients.push((epoch, client));
        }
        for (epoch, mut client) in clients {
            let frame = read_frame(&mut client).unwrap().unwrap();
            let Frame::Table { addrs } = frame else {
                panic!("expected a table, got {frame:?}")
            };
            match epoch {
                5 => assert_eq!(addrs.len(), 2),
                6 => assert_eq!(addrs, vec!["127.0.0.1:8000"]),
                _ => unreachable!(),
            }
        }
        assert_eq!(core.pending_epochs(), 0);
    }

    /// Aborting a block unsticks parked registrants immediately (their
    /// sockets close) and refuses later arrivals for the same range —
    /// both ends of the race between a worker death and its siblings'
    /// registrations.
    #[test]
    fn aborted_blocks_fail_fast_before_and_after() {
        use std::sync::Arc;
        let core = Arc::new(RendezvousCore::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let park = |epoch: u64| {
            let client = TcpStream::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let (server_side, _) = listener.accept().unwrap();
            core.admit(epoch, 0, 2, "127.0.0.1:9100".into(), server_side);
            client
        };
        // Parked before the abort: epoch 100 is inside the block, 999 is
        // outside and must survive.
        let mut doomed = park(100);
        let survivor = park(999);
        core.abort_block(64, 128);
        let reply = read_frame(&mut doomed).unwrap();
        assert!(reply.is_none(), "doomed registrant should see EOF");
        // Arriving after the abort: refused on the spot.
        let mut late = park(101);
        assert!(read_frame(&mut late).unwrap().is_none());
        // The untouched epoch still completes normally.
        let mut peer = {
            let client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            core.admit(999, 1, 2, "127.0.0.1:9101".into(), server_side);
            client
        };
        drop(peer.set_read_timeout(Some(Duration::from_secs(5))));
        let mut survivor = survivor;
        for conn in [&mut survivor, &mut peer] {
            match read_frame(conn).unwrap() {
                Some(Frame::Table { addrs }) => assert_eq!(addrs.len(), 2),
                other => panic!("expected a table, got {other:?}"),
            }
        }
    }
}
