//! A TCP rank drains its own sockets and fields redials on the redial
//! threads themselves: besides the rank's own thread it runs exactly a
//! `mesh-heartbeat` thread, whatever the world size, as a shm rank does —
//! no per-peer reader and no accept thread. Counted from `/proc/self/task`, so
//! this file holds one test: no other mesh may run in the process while
//! it counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use patternlets_mp::envelope::{Envelope, Payload};
use patternlets_mp::fabric::{Fabric, WorldSpec};
use patternlets_mp::status::{SourceSel, TagSel};
use patternlets_net::{rendezvous, TcpFabric};

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

fn count(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

/// Threads a mesh starts, by name.
const MESH_THREADS: [&str; 4] = ["mesh-heartbeat", "net-accept", "net-reader", "net-redial"];

/// Establish an `np`-rank TCP world in this process, one thread per rank
/// as `np` processes would.
fn tcp_world(np: usize, epoch: u64) -> Vec<Arc<TcpFabric>> {
    let server = rendezvous::serve().unwrap().to_string();
    let spec = WorldSpec {
        np,
        ranks_per_node: 1,
        fault: None,
        poll_interval: Duration::from_millis(5),
        tracer: None,
        metrics: None,
        epoch,
    };
    std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..np)
            .map(|me| {
                let (server, spec) = (&server, &spec);
                scope.spawn(move || Arc::new(TcpFabric::establish(server, me, spec).unwrap()))
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Rank `src` sends rank `dst` one message and `dst` receives it.
fn one_message(fabrics: &[Arc<TcpFabric>], src: usize, dst: usize) {
    let env = Envelope {
        comm_id: 0,
        src,
        tag: 7,
        type_name: "u8",
        count: 1,
        payload: Payload::Bytes(bytes::Bytes::from(vec![src as u8])),
        seq: 0,
        needs_ack: false,
    };
    fabrics[src].deliver(src, dst, env, 0, false);
    let got = fabrics[dst]
        .mailbox(dst)
        .recv_match(
            0,
            SourceSel::Rank(src),
            TagSel::Tag(7),
            Duration::from_millis(5),
            || None,
            || {},
        )
        .unwrap();
    assert_eq!(got.src, src);
}

/// Wait until no mesh thread of an earlier world is left.
fn no_mesh_threads_within(within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        let names = thread_names();
        if MESH_THREADS.iter().all(|p| count(&names, p) == 0) {
            return;
        }
        assert!(Instant::now() < deadline, "mesh threads linger: {names:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_tcp_rank_runs_two_threads_at_np_2_4_and_8() {
    for (epoch, np) in [2usize, 4, 8].into_iter().enumerate() {
        no_mesh_threads_within(Duration::from_secs(5));
        let fabrics = tcp_world(np, epoch as u64);
        // Traffic on every link first, so nothing is counted before it
        // could have started.
        for src in 0..np {
            one_message(&fabrics, src, (src + 1) % np);
        }
        // A thread takes its name once it first runs: give the last ones
        // started a moment to.
        let deadline = Instant::now() + Duration::from_secs(5);
        let names = loop {
            let names = thread_names();
            if count(&names, "mesh-heartbeat") >= np || Instant::now() > deadline {
                break names;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(count(&names, "mesh-heartbeat"), np, "{names:?}");
        assert_eq!(count(&names, "net-accept"), 0, "{names:?}");
        assert_eq!(count(&names, "net-reader"), 0, "{names:?}");
        assert_eq!(count(&names, "net-redial"), 0, "{names:?}");
        for (me, fabric) in fabrics.iter().enumerate() {
            fabric.finish(me);
        }
    }
}
