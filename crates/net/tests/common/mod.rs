//! What the allocation-count tests share: a global allocator that counts
//! the allocations of at least some size made on one thread, or on every
//! thread of the process but marked ones, and a two-rank world whose
//! ranks are threads of this process. A test binary that counts on every
//! thread should hold that one test only, so that no sibling test's
//! allocations land in its count.

#![allow(dead_code)]

use patternlets_mp::{Comm, World};
use patternlets_net::shm::FabricMode;
use patternlets_net::{install_job_fabric, rendezvous, with_job_ctx, JobCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// The largest single allocation this thread made since last reset.
    pub static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations of at least `.0` bytes this thread made while `.0` was
    /// set, in `.1`.
    static AT_LEAST: Cell<(usize, usize)> = const { Cell::new((usize::MAX, 0)) };
    /// This thread's allocations are left out of [`EVERYWHERE`].
    pub static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations of at least `EVERYWHERE_MIN` bytes on every thread not
/// [`UNCOUNTED`], while a count is running.
static EVERYWHERE: AtomicUsize = AtomicUsize::new(0);
static EVERYWHERE_MIN: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The system allocator, noting each thread's largest allocation.
pub struct Measured;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Measured {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    let _ = AT_LEAST.try_with(|a| {
        let (min, n) = a.get();
        a.set((min, n + usize::from(size >= min)));
    });
    if size >= EVERYWHERE_MIN.load(Ordering::Relaxed)
        && !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
    {
        EVERYWHERE.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running count of the allocations of at least some size on every
/// thread but the [`UNCOUNTED`] ones.
pub struct Everywhere;

/// Start counting allocations of at least `min` bytes on every thread.
/// Only one count runs at a time, and it sees every thread: run it in a
/// test binary of its own.
pub fn everywhere(min: usize) -> Everywhere {
    EVERYWHERE.store(0, Ordering::SeqCst);
    EVERYWHERE_MIN.store(min, Ordering::SeqCst);
    Everywhere
}

impl Everywhere {
    /// Stop counting; the count.
    pub fn stop(self) -> usize {
        EVERYWHERE_MIN.store(usize::MAX, Ordering::SeqCst);
        EVERYWHERE.load(Ordering::SeqCst)
    }
}

/// Run `f` and count the allocations of at least `min` bytes it made on
/// this thread.
pub fn allocations_of_at_least<R>(min: usize, f: impl FnOnce() -> R) -> (R, usize) {
    AT_LEAST.with(|a| a.set((min, 0)));
    let out = f();
    let (_, n) = AT_LEAST.with(|a| a.replace((usize::MAX, 0)));
    (out, n)
}

#[global_allocator]
static ALLOC: Measured = Measured;

/// Run `body` as both ranks of a two-rank world over `fabric`, the ranks
/// threads of this process; returns each rank's result.
pub fn two_ranks<R: Send>(fabric: FabricMode, body: impl Fn(Comm) -> R + Sync) -> Vec<R> {
    ranks(2, fabric, body)
}

/// Run `body` as every rank of an `np`-rank world over `fabric`, the
/// ranks threads of this process; returns each rank's result. One world
/// at a time: the process-wide count must see one world's allocations
/// only.
pub fn ranks<R: Send>(np: usize, fabric: FabricMode, body: impl Fn(Comm) -> R + Sync) -> Vec<R> {
    static ONE_WORLD: Mutex<()> = Mutex::new(());
    let _one = ONE_WORLD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    install_job_fabric();
    let server = rendezvous::serve().unwrap().to_string();
    let dir = std::env::temp_dir().join(format!(
        "spsc-model-{}-{}",
        fabric.as_str(),
        std::process::id()
    ));
    let results = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..np)
            .map(|rank| {
                let mut ctx = JobCtx::new(rank, np, server.clone(), 0, None);
                ctx.fabric = fabric;
                ctx.shm_dir = dir.clone();
                let body = &body;
                scope.spawn(move || {
                    with_job_ctx(ctx, || World::builder(np).run(body).unwrap().remove(0))
                })
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    results
}
