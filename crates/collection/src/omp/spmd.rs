//! `omp/spmd` — the *Single Program Multiple Data* pattern
//! (paper Fig. 1–3).
//!
//! With the `parallel` directive "commented out" ([`Mode::Off`](crate::harness::Mode::Off)) one thread
//! says hello (Fig. 2); uncommented ([`Mode::On`](crate::harness::Mode::On)), every team thread says
//! hello in nondeterministic order (Fig. 3).

use crate::harness::{Patternlet, RunConfig, Technology};

/// The patternlet descriptor.
pub const PATTERNLET: Patternlet = Patternlet {
    name: "omp/spmd",
    technology: Technology::Omp,
    patterns: &["SPMD", "Fork-Join"],
    figures: &["Fig. 1", "Fig. 2", "Fig. 3"],
    summary: "every team thread runs the same code with a different id",
    exercise: "Run with Mode::Off and note the single hello. Switch to \
               Mode::On and rerun several times with 4+ tasks: how many \
               hellos appear, and is their order stable? Explain why.",
    run,
};

fn run(cfg: &RunConfig) {
    // `Mode::Off` models the commented-out `#pragma omp parallel`: the
    // "region" is just the master thread.
    let team_size = if cfg.mode.is_on() { cfg.tasks } else { 1 };
    cfg.team(team_size).parallel(|ctx| {
        let sink = cfg.sink(ctx.thread_num());
        sink.println(format!(
            "Hello from thread {} of {}",
            ctx.thread_num(),
            ctx.num_threads()
        ));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mode;

    #[test]
    fn figure_2_one_hello_when_directive_off() {
        let out = PATTERNLET.run_captured(4, Mode::Off);
        assert_eq!(out.texts(), vec!["Hello from thread 0 of 1"]);
    }

    #[test]
    fn figure_3_every_thread_says_hello_when_on() {
        let out = PATTERNLET.run_captured(4, Mode::On);
        assert_eq!(out.len(), 4);
        let mut texts = out.texts();
        texts.sort();
        let mut expected: Vec<String> = (0..4)
            .map(|i| format!("Hello from thread {i} of 4"))
            .collect();
        expected.sort();
        assert_eq!(texts, expected);
    }

    #[test]
    fn scales_with_task_count() {
        for n in [1, 2, 8] {
            assert_eq!(PATTERNLET.run_captured(n, Mode::On).len(), n);
        }
    }
}
