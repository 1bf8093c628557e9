//! The linear stage graph: `source → stage → … → sink`, one thread per
//! stage, bounded queues between them.
//!
//! This is the paper's pipeline patternlet shape lifted to a reusable
//! builder: each `stage` call appends a transform and the whole graph is
//! inert until [`Pipeline::run`] — building the pipeline allocates
//! nothing and spawns nothing, so a patternlet can describe the same
//! graph and then run it serially (mode OFF) or concurrently (mode ON).
//!
//! Order preservation falls out of the topology: every queue is FIFO and
//! every stage is a single thread, so items leave the sink in exactly the
//! order the source produced them — no sequence numbers needed (the farm
//! keeps order the same way, reading its workers' edges in dealing order).
//!
//! That same topology fact — every queue is statically 1:1 — is why the
//! edges here are the lock-free [`spsc_edge`](crate::spsc_edge) rings
//! rather than the mutex-guarded MPMC channel: a pipeline edge never has
//! a second producer or consumer to synchronize with, so it pays two
//! atomics per batch instead of a lock acquisition.

use crate::channel::batch_for;
use crate::spsc_edge::{spsc_edge, SpscReceiver};
use crate::Obs;
use std::thread::JoinHandle;

/// Everything a build needs: queue shape, observability, and the spawned
/// stage threads (joined by `run` after the sink drains).
struct Ctx {
    capacity: usize,
    obs: Obs,
    handles: Vec<JoinHandle<()>>,
    next_queue: usize,
}

impl Ctx {
    fn alloc_queue(&mut self) -> usize {
        let q = self.next_queue;
        self.next_queue += 1;
        q
    }
}

/// The deferred construction of a pipeline suffix: spawns the stage
/// threads into `Ctx` and hands back the suffix's output queue.
type BuildFn<T> = Box<dyn FnOnce(&mut Ctx) -> SpscReceiver<T> + Send>;

/// A pipeline whose last stage yields items of type `T`. Extend it with
/// [`Pipeline::stage`], execute it with [`Pipeline::run`] or
/// [`Pipeline::collect`].
pub struct Pipeline<T: Send + 'static> {
    build: BuildFn<T>,
    stages: usize,
}

impl<T: Send + 'static> Pipeline<T> {
    /// The head of a pipeline: a source stage that feeds `items` into the
    /// first queue (blocking when downstream backs up).
    pub fn source<I>(items: I) -> Pipeline<T>
    where
        I: IntoIterator<Item = T> + Send + 'static,
        I::IntoIter: Send,
    {
        Pipeline {
            build: Box::new(move |ctx| {
                let (tx, rx) = spsc_edge(ctx.capacity, ctx.alloc_queue(), &ctx.obs);
                let tx = tx.for_lane(0);
                let chunk = batch_for(ctx.capacity);
                ctx.handles.push(std::thread::spawn(move || {
                    let mut batch = Vec::with_capacity(chunk);
                    for item in items {
                        batch.push(item);
                        if batch.len() == chunk && !tx.send_many(batch.drain(..)) {
                            return; // downstream abandoned the stream
                        }
                    }
                    tx.send_many(batch);
                    // tx drops here: EOS propagates to the next stage.
                }));
                rx
            }),
            stages: 1,
        }
    }

    /// Append a transform stage: its own thread, its own output queue.
    pub fn stage<U, F>(self, mut f: F) -> Pipeline<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        let upstream = self.build;
        let lane = self.stages;
        Pipeline {
            build: Box::new(move |ctx| {
                let input = upstream(ctx).for_lane(lane);
                let (tx, rx) = spsc_edge(ctx.capacity, ctx.alloc_queue(), &ctx.obs);
                let tx = tx.for_lane(lane);
                let chunk = batch_for(ctx.capacity);
                ctx.handles.push(std::thread::spawn(move || {
                    let mut out = Vec::with_capacity(chunk);
                    while let Some(batch) = input.recv_many(chunk) {
                        out.extend(batch.into_iter().map(&mut f));
                        if !tx.send_many(out.drain(..)) {
                            break;
                        }
                    }
                }));
                rx
            }),
            stages: self.stages + 1,
        }
    }

    /// Spawn the stage threads, drive every item through `sink` on the
    /// calling thread, and join the stages once the stream ends.
    pub fn run<F: FnMut(T)>(self, capacity: usize, obs: &Obs, mut sink: F) {
        let mut ctx = Ctx {
            capacity: capacity.max(1),
            obs: obs.clone(),
            handles: Vec::new(),
            next_queue: 0,
        };
        let sink_lane = self.stages;
        let chunk = batch_for(ctx.capacity);
        let rx = (self.build)(&mut ctx).for_lane(sink_lane);
        while let Some(batch) = rx.recv_many(chunk) {
            for item in batch {
                sink(item);
            }
        }
        drop(rx);
        for h in ctx.handles {
            h.join().expect("stage thread panicked");
        }
    }

    /// [`Pipeline::run`] into a `Vec`.
    pub fn collect(self, capacity: usize, obs: &Obs) -> Vec<T> {
        let mut out = Vec::new();
        self.run(capacity, obs, |item| out.push(item));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_three_stage_pipeline_preserves_order() {
        let out = Pipeline::source(0..1000)
            .stage(|x: i32| x * 2)
            .stage(|x| x + 1)
            .collect(4, &Obs::none());
        let expected: Vec<i32> = (0..1000).map(|x| x * 2 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn stages_change_types_along_the_way() {
        let out = Pipeline::source(vec!["7", "11", "13"])
            .stage(|s: &str| s.parse::<u32>().unwrap())
            .stage(|n| n * n)
            .collect(2, &Obs::none());
        assert_eq!(out, vec![49, 121, 169]);
    }

    #[test]
    fn an_empty_source_is_a_clean_noop() {
        let out = Pipeline::source(Vec::<u8>::new())
            .stage(|x| x)
            .collect(1, &Obs::none());
        assert!(out.is_empty());
    }

    #[test]
    fn tiny_queues_backpressure_without_deadlock() {
        // capacity 1 forces a full handoff at every boundary.
        let out = Pipeline::source(0..500)
            .stage(|x: u64| x + 1)
            .stage(|x| x * 3)
            .stage(|x| x - 2)
            .collect(1, &Obs::none());
        assert_eq!(out.len(), 500);
        assert_eq!(out[499], (499 + 1) * 3 - 2);
    }

    #[test]
    fn every_queue_gets_its_own_metrics_lane() {
        let hub = patternlets_metrics::MetricsHub::new();
        let obs = Obs {
            tracer: None,
            metrics: Some(hub.clone()),
        };
        Pipeline::source(0..10)
            .stage(|x: i32| x)
            .run(4, &obs, |_| {});
        let snap = hub.snapshot();
        // Two queues (source→stage, stage→sink), lanes 0 and 1, each saw
        // all ten items in and out.
        let lanes: Vec<usize> = snap.lanes.iter().map(|l| l.lane).collect();
        assert_eq!(lanes, vec![0, 1]);
        for lane in &snap.lanes {
            assert_eq!(
                lane.counter(patternlets_metrics::CounterId::StreamItemsIn),
                10
            );
            assert_eq!(
                lane.counter(patternlets_metrics::CounterId::StreamItemsOut),
                10
            );
        }
    }
}
