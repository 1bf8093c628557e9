//! `stream/farm_feedback` — a farm with *feedback edges*: workers inject
//! follow-on work back to the emitter that feeds them (FastFlow's
//! `wrap_around()`), turning the farm into a dynamic task pool.

use crate::harness::{Patternlet, RunConfig, Technology};
use patternlets_stream::{farm_feedback, FarmConfig};

/// The patternlet descriptor.
pub const PATTERNLET: Patternlet = Patternlet {
    name: "stream/farm_feedback",
    technology: Technology::Stream,
    patterns: &["Master-Worker", "Pipeline"],
    figures: &[],
    summary: "workers feed Collatz steps back to the farm's emitter",
    exercise: "Each worker advances a Collatz orbit by ONE step and injects \
               the rest — no worker ever owns a whole orbit. Every edge \
               here is bounded, so why must the emitter never block on a \
               full work edge, and keep a backlog instead? (Hint: imagine \
               every worker blocked writing back to an emitter that is \
               itself blocked.) And why does the emitter count in-flight \
               items instead of waiting for senders to drop?",
    run,
};

/// One Collatz step of an orbit: `(start, current, steps so far)`.
type Orbit = (u64, u64, u32);

fn run(cfg: &RunConfig) {
    let sink = cfg.sink(0);
    let seeds: Vec<u64> = (1..=6 * cfg.tasks.max(1) as u64).collect();
    let mut lengths: Vec<(u64, u32)> = if cfg.mode.is_on() {
        let farm = FarmConfig {
            workers: cfg.tasks.max(1),
            capacity: 16,
            ordered: false,
            obs: cfg.stream_obs(),
            queue_base: 0,
        };
        let orbits: Vec<Orbit> = seeds.iter().map(|&n| (n, n, 0)).collect();
        farm_feedback(&farm, orbits, |(start, n, steps), fb| {
            if n == 1 {
                Some((start, steps))
            } else {
                let next = if n % 2 == 0 { n / 2 } else { 3 * n + 1 };
                fb.inject((start, next, steps + 1));
                None
            }
        })
    } else {
        // Serial: walk each orbit to 1, one after another.
        seeds
            .iter()
            .map(|&start| {
                let (mut n, mut steps) = (start, 0);
                while n != 1 {
                    n = if n % 2 == 0 { n / 2 } else { 3 * n + 1 };
                    steps += 1;
                }
                (start, steps)
            })
            .collect()
    };
    // Feedback results arrive in completion order; sort for the classroom.
    lengths.sort_unstable();
    for (start, steps) in lengths {
        sink.println(format!("collatz({start:>2}) reaches 1 in {steps} steps"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mode;

    #[test]
    fn parallel_orbits_match_the_serial_walk() {
        let on = PATTERNLET.run_captured(4, Mode::On);
        let off = PATTERNLET.run_captured(4, Mode::Off);
        assert_eq!(on.texts(), off.texts());
        assert_eq!(on.texts().len(), 24);
    }

    #[test]
    fn known_orbit_lengths_are_right() {
        let out = PATTERNLET.run_captured(1, Mode::On);
        let texts = out.texts();
        assert_eq!(texts[0], "collatz( 1) reaches 1 in 0 steps");
        assert_eq!(texts[5], "collatz( 6) reaches 1 in 8 steps");
    }

    #[test]
    fn feedback_traffic_dwarfs_the_seed_count() {
        let (_, trace) = PATTERNLET.run_traced(2, Mode::On);
        let pushes = trace
            .events
            .iter()
            .filter(|e| e.kind.label() == "stage-push")
            .count();
        // 12 seeds but every intermediate Collatz step is a push too.
        assert!(pushes > 50, "only {pushes} pushes — feedback not flowing");
    }
}
