//! `stream/farm` — the *Master-Worker* pattern on a stream: an emitter
//! deals work round-robin to replicated workers, and a collector reads
//! their results back in the same rotation, so output keeps emission order.

use crate::harness::{Patternlet, RunConfig, Technology};
use patternlets_stream::{run_farm, FarmConfig};

/// The patternlet descriptor.
pub const PATTERNLET: Patternlet = Patternlet {
    name: "stream/farm",
    technology: Technology::Stream,
    patterns: &["Master-Worker"],
    figures: &[],
    summary: "emitter → N workers → ordered collector over per-worker SPSC edges",
    exercise: "Workers run concurrently and finish items in any order — yet \
               the output is in emission order, on or off, and the farm \
               keeps no reorder buffer. Read run_farm in patternlets-stream: \
               how does dealing blocks round-robin let the collector restore \
               order, and why can it never wait on a block that is stuck \
               behind a later one? What would a worker with slow items do to \
               the others? (The stream_farm bench measures exactly this farm.)",
    run,
};

fn run(cfg: &RunConfig) {
    let sink = cfg.sink(0);
    let items = 4 * cfg.tasks.max(1);
    let work = |n: usize| (n, n * (n + 1) / 2); // n-th triangular number
    if cfg.mode.is_on() {
        let farm = FarmConfig {
            workers: cfg.tasks.max(1),
            capacity: 8,
            ordered: true,
            obs: cfg.stream_obs(),
            queue_base: 0,
        };
        run_farm(&farm, 0..items, work, |(n, tri)| {
            sink.println(format!("triangle({n:>2}) = {tri}"));
        });
    } else {
        // Serial: the master does every task itself, same order.
        for n in 0..items {
            let (n, tri) = work(n);
            sink.println(format!("triangle({n:>2}) = {tri}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mode;

    #[test]
    fn ordered_collection_makes_on_match_off() {
        let on = PATTERNLET.run_captured(4, Mode::On);
        let off = PATTERNLET.run_captured(4, Mode::Off);
        assert_eq!(on.texts(), off.texts());
        assert_eq!(on.texts().len(), 16);
        assert_eq!(on.texts()[10], "triangle(10) = 55");
    }

    #[test]
    fn every_item_crosses_both_farm_queues() {
        let (_, trace) = PATTERNLET.run_traced(3, Mode::On);
        let pops = trace
            .events
            .iter()
            .filter(|e| e.kind.label() == "stage-pop")
            .count();
        // 12 items popped from the work queue + 12 from the result queue.
        assert_eq!(pops, 24);
    }

    #[test]
    fn one_worker_still_works() {
        let out = PATTERNLET.run_captured(1, Mode::On);
        assert_eq!(
            out.texts(),
            vec![
                "triangle( 0) = 0",
                "triangle( 1) = 1",
                "triangle( 2) = 3",
                "triangle( 3) = 6",
            ]
        );
    }
}
