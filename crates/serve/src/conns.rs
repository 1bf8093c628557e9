//! The connection loop behind both `pmserve` listeners (and `pmrun`'s
//! `--metrics-port`): an acceptor hands each connection to a thread of a
//! small pool, and the thread runs the listener's handler on it.
//!
//! A pool thread survives its connection and waits for the next one, so
//! in steady state a connection spawns nothing: a `pmserve` job's three
//! gateway requests and `np` rendezvous registrations reuse the threads
//! earlier jobs left behind (the FastFlow rule of keeping a skeleton's
//! threads alive between runs). The pool grows on demand, one thread at
//! a time, up to [`Limits::threads`]. At the cap the acceptor waits for a
//! thread to come free, and later connections wait in the listen backlog,
//! so silent or slow clients hold at most the cap's threads. Each
//! connection must send within [`Limits::first_read`], or its first read
//! fails and the thread moves on.

use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Most connection threads one listener keeps.
pub const CONN_THREADS: usize = 64;

/// How long a new connection may take to send its request or first frame.
pub const FIRST_READ: Duration = Duration::from_secs(10);

/// How long the acceptor waits for a busy thread before it grows the
/// pool. A thread that has just answered is back within microseconds, so
/// a client's next connection reuses it instead of spawning another; the
/// margin covers a thread preempted on a loaded host. Only a growth step
/// pays this wait, once.
const REUSE_GRACE: Duration = Duration::from_millis(20);

/// The bounds of one connection loop.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Most connection threads the loop keeps.
    pub threads: usize,
    /// Read timeout set on each connection before its handler runs.
    pub first_read: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            threads: CONN_THREADS,
            first_read: FIRST_READ,
        }
    }
}

/// The acceptor's hand-off slot and the pool's census.
struct Pool<H> {
    state: Mutex<State>,
    /// Signalled when a connection is put in the slot.
    offered: Condvar,
    /// Signalled when a thread takes it.
    taken: Condvar,
    handler: H,
}

struct State {
    /// The connection on offer.
    next: Option<TcpStream>,
    /// Threads spawned so far.
    threads: usize,
    /// Threads waiting for a connection, or spawned and not yet waiting.
    idle: usize,
}

impl<H> Pool<H> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Accept on `listener` from a thread named `name`, and run `handler` on
/// each connection in a pool thread named `{name}-conn`, within `limits`.
pub fn serve<H>(
    listener: TcpListener,
    name: &str,
    limits: Limits,
    handler: H,
) -> std::io::Result<()>
where
    H: Fn(TcpStream) + Send + Sync + 'static,
{
    let pool = Arc::new(Pool {
        state: Mutex::new(State {
            next: None,
            threads: 0,
            idle: 0,
        }),
        offered: Condvar::new(),
        taken: Condvar::new(),
        handler,
    });
    let conn_name = format!("{name}-conn");
    let cap = limits.threads.max(1);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let _ = conn.set_read_timeout(Some(limits.first_read));
                hand_off(&pool, conn, cap, &conn_name);
            }
        })?;
    Ok(())
}

/// Offer `conn` to the pool and return once a thread has taken it:
/// at once to an idle thread, else to the first busy one that comes free
/// within [`REUSE_GRACE`], else to a new thread, or, at the cap, to
/// whichever thread comes free first.
fn hand_off<H>(pool: &Arc<Pool<H>>, conn: TcpStream, cap: usize, name: &str)
where
    H: Fn(TcpStream) + Send + Sync + 'static,
{
    let mut st = pool.lock();
    st.next = Some(conn);
    pool.offered.notify_one();
    let grow_at = Instant::now() + REUSE_GRACE;
    while st.next.is_some() {
        let can_grow = st.idle == 0 && st.threads < cap;
        let now = Instant::now();
        if can_grow && (st.threads == 0 || now >= grow_at) {
            let worker = Arc::clone(pool);
            let spawned = std::thread::Builder::new()
                .name(name.into())
                .spawn(move || conn_thread(&worker));
            if spawned.is_err() {
                // No thread to be had: drop the connection, as an
                // unanswered one.
                st.next = None;
                return;
            }
            st.threads += 1;
            st.idle += 1;
        } else if can_grow {
            st = pool
                .taken
                .wait_timeout(st, grow_at - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        } else {
            st = pool.taken.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A pool thread: take the connection on offer, run the handler on it,
/// and come back for the next, for the life of the process.
fn conn_thread<H: Fn(TcpStream)>(pool: &Pool<H>) {
    let mut st = pool.lock();
    loop {
        let Some(conn) = st.next.take() else {
            st = pool.offered.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        st.idle -= 1;
        pool.taken.notify_one();
        drop(st);
        // A handler that panics loses its connection, not the thread.
        let _ = catch_unwind(AssertUnwindSafe(|| (pool.handler)(conn)));
        st = pool.lock();
        st.idle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An echo of one byte per connection, counting the threads it ran on.
    fn echo_pool(limits: Limits) -> (std::net::SocketAddr, Arc<Mutex<Vec<std::thread::ThreadId>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        serve(listener, "conns-test", limits, move |mut conn| {
            let id = std::thread::current().id();
            let mut ids = record.lock().unwrap();
            if !ids.contains(&id) {
                ids.push(id);
            }
            drop(ids);
            let mut b = [0u8; 1];
            if conn.read_exact(&mut b).is_ok() {
                let _ = conn.write_all(&b);
            }
        })
        .unwrap();
        (addr, seen)
    }

    fn exchange(addr: std::net::SocketAddr, byte: u8) -> u8 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&[byte]).unwrap();
        let mut b = [0u8; 1];
        conn.read_exact(&mut b).unwrap();
        b[0]
    }

    #[test]
    fn sequential_connections_reuse_one_thread() {
        let (addr, seen) = echo_pool(Limits::default());
        for i in 0..50u8 {
            assert_eq!(exchange(addr, i), i);
        }
        assert_eq!(seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn at_the_cap_connections_wait_for_a_free_thread() {
        let limits = Limits {
            threads: 2,
            first_read: Duration::from_millis(200),
        };
        let (addr, seen) = echo_pool(limits);
        // Two silent connections hold both threads until they time out;
        // the answered ones behind them wait, then run on the same two.
        let silent: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let answered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..4u8 {
                let answered = &answered;
                s.spawn(move || {
                    assert_eq!(exchange(addr, i), i);
                    answered.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(answered.load(Ordering::Relaxed), 4);
        assert!(seen.lock().unwrap().len() <= 2);
        drop(silent);
    }
}
