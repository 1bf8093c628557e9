//! `omp/private` — the data environment: shared vs private variables.
//! With a shared counter ([`Mode::Off`](crate::harness::Mode::Off)) concurrent updates race; with
//! per-thread (private) counters combined at the end ([`Mode::On`](crate::harness::Mode::On)) the
//! count is exact — the student-discovered idea behind the reduction
//! clause (paper §III.D discussion).

use patternlets_shmem::ops;
use patternlets_shmem::sync::racy::RacyCell;

use crate::harness::{Patternlet, RunConfig, Technology};

const REPS_PER_THREAD: usize = 25_000;

/// The patternlet descriptor.
pub const PATTERNLET: Patternlet = Patternlet {
    name: "omp/private",
    technology: Technology::Omp,
    patterns: &["Replicated Data", "Reduction", "SPMD"],
    figures: &[],
    summary: "shared counter races; private per-thread counters do not",
    exercise: "Explain why making the counter private fixes the race \
               without any locking at all. What extra step does privacy \
               force, and which pattern performs that step efficiently?",
    run,
};

fn run(cfg: &RunConfig) {
    let sink = cfg.sink(0);
    let expected = (cfg.tasks * REPS_PER_THREAD) as i64;
    let total = if cfg.mode.is_on() {
        // Private counters, combined with a reduction.
        cfg.team(cfg.tasks).parallel_map(|ctx| {
            let mut mine = 0i64; // truly private: a plain local
            for _ in 0..REPS_PER_THREAD {
                mine += 1;
            }
            ctx.reduce(mine, &ops::Sum)
        })[0]
    } else {
        // One shared counter, unprotected.
        let counter = RacyCell::new(0);
        cfg.team(cfg.tasks).parallel(|_ctx| {
            for _ in 0..REPS_PER_THREAD {
                counter.add_racy(1);
            }
        });
        counter.get()
    };
    sink.println(format!("expected = {expected}"));
    sink.println(format!("counted  = {total}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mode;

    fn get(out: &patternlets_core::capture::Output, key: &str) -> i64 {
        out.texts()
            .iter()
            .find(|t| t.starts_with(key))
            .unwrap()
            .split('=')
            .nth(1)
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    }

    #[test]
    fn private_counters_count_exactly() {
        for tasks in [1, 2, 4] {
            let out = PATTERNLET.run_captured(tasks, Mode::On);
            assert_eq!(get(&out, "counted"), get(&out, "expected"), "tasks={tasks}");
        }
    }

    #[test]
    fn shared_counter_never_overcounts() {
        let out = PATTERNLET.run_captured(4, Mode::Off);
        assert!(get(&out, "counted") <= get(&out, "expected"));
    }
}
