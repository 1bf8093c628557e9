//! A rank registers with the rendezvous once per world. When that one
//! registration fails, `shm::establish` returns the error: it does not
//! register the same epoch again over TCP, which would make a rank wait
//! out the rendezvous timeout twice.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use patternlets_mp::fabric::WorldSpec;
use patternlets_net::frame::{read_frame, Frame};
use patternlets_net::shm::{self, FabricMode};

/// A rendezvous that reads one frame from each connection and closes it,
/// counting the `Register` frames it saw.
fn refusing_rendezvous() -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let registers = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&registers);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
            if let Ok(Some(Frame::Register { .. })) = read_frame(&mut conn) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    (addr, registers)
}

#[test]
fn a_refused_auto_rank_registers_once_and_fails() {
    let (server, registers) = refusing_rendezvous();
    let dir = std::env::temp_dir().join(format!("register-once-{}", std::process::id()));
    let spec = WorldSpec {
        np: 2,
        ranks_per_node: 1,
        fault: None,
        poll_interval: Duration::from_millis(5),
        tracer: None,
        metrics: None,
        epoch: 0,
    };
    let got = shm::establish(&server, 0, &spec, None, FabricMode::Auto, &dir, "testhost");
    assert!(got.is_err(), "a refused registration cannot build a world");
    assert_eq!(
        registers.load(Ordering::SeqCst),
        1,
        "one Register per world"
    );
    let left = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(left, 0, "the rank removes the rings nobody will map");
    let _ = std::fs::remove_dir_all(dir);
}
