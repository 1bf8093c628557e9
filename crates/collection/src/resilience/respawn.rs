//! `resilience/respawn` — checkpoint/restart as a pattern: a stepwise
//! computation checkpoints after every step, a rank dies mid-run, and the
//! job recovers at *full* world size by restarting the dead rank from its
//! last checkpoint instead of shrinking around the hole.
//!
//! In-process, the "respawn" is the retry world itself: the victim's
//! thread dies under a [`FaultPlan`] kill on the first attempt, and the
//! next world build brings all `np` rank threads back, each restoring
//! from its checkpoint file. Under `pmrun --kill-worker R:MS --respawn 1`
//! the same source demonstrates the real thing: the launcher SIGKILLs a
//! worker *process*, respawns it with `PMRUN_EPOCH_BASE` so its first
//! world joins the survivors' retry world, and the restarted rank picks
//! up from the checkpoint directory `pmrun` shared via `PMRUN_CKPT_DIR`.
//! Under either launcher (a `pmrun` job or a `pmserve` one) the seeded
//! in-process kill is off: only the launcher kills processes, so an
//! unkilled job prints the same transcript whichever launcher ran it.
//!
//! The restart protocol handles the classic divergence window (a rank
//! that died after the collective but before its checkpoint is one step
//! behind the others): survivors agree on the *minimum* completed step,
//! and a rank that checkpointed exactly that step broadcasts its state to
//! everyone — a consistent cut rebuilt from per-rank local checkpoints.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use patternlets_core::reduce::ops;
use patternlets_core::Error;
use patternlets_mp::{CheckpointStore, Comm, FaultPlan};
use patternlets_net::JobCtx;

use crate::harness::{Patternlet, RunConfig, Technology};

/// Fixed chaos seed so the demonstration replays identically.
const CHAOS_SEED: u64 = 0xC4C7;
/// Steps in the computation; each is one allreduce plus one checkpoint.
const STEPS: u64 = 8;
/// In-process message operations the victim survives before its kill:
/// past the restart preamble and the first three steps, into step 4 — so
/// a partial (but nonzero) checkpoint exists when it dies.
const KILL_AFTER_OPS: u64 = 22;
/// Retry budget: world builds before giving up (first build included).
const MAX_ATTEMPTS: u32 = 5;

/// The patternlet descriptor.
pub const PATTERNLET: Patternlet = Patternlet {
    name: "resilience/respawn",
    technology: Technology::Resilience,
    patterns: &["Collective Communication", "Reduction", "Broadcast"],
    figures: &[],
    summary: "a rank dies mid-computation; the job restarts it from a checkpoint at full size",
    exercise: "Contrast with resilience/shrink: there the group gets smaller, here it \
               heals back to np ranks — when is each the right call? Why must the \
               restart agree on the MINIMUM completed step instead of the maximum? \
               Run under pmrun with --kill-worker 1:400 --respawn 1 and watch the \
               respawned process resume from the shared checkpoint directory.",
    run,
};

fn run(cfg: &RunConfig) {
    let np = cfg.tasks.max(2);
    let victim = match cfg.kill {
        Some(r) if (1..np).contains(&r) => r,
        _ => np - 1,
    };
    // Checkpoints must survive across retry worlds (and, under pmrun,
    // across processes), so the directory is resolved once out here:
    // the config's/launcher's directory when provided, a scratch
    // directory of our own otherwise.
    static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);
    let (dir, scratch): (PathBuf, bool) = match cfg.checkpoint_store(0) {
        Some(store) => (
            store.path().parent().expect("store path has a dir").into(),
            false,
        ),
        None => (
            std::env::temp_dir().join(format!(
                "plet-respawn-{}-{}",
                std::process::id(),
                SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
            )),
            true,
        ),
    };
    // Under a launcher (pmrun or pmserve) each rank is a process and a
    // kill is the launcher's business. Each step dawdles, so
    // `--kill-worker RANK:MS` reliably lands mid-computation instead of
    // after the job already finished.
    let launched = JobCtx::current().is_some();

    let mut attempt = 0u32;
    loop {
        let mut world = cfg.world(np);
        if attempt == 0 && !launched {
            // In-process only: the first world loses the victim to a
            // seeded kill. Retry worlds run fault-free — the "respawned"
            // victim is simply a fresh rank thread restoring state.
            world = world
                .fault_plan(FaultPlan::seeded(CHAOS_SEED).kill_rank_after(victim, KILL_AFTER_OPS))
                .poll_interval(std::time::Duration::from_millis(2));
        }
        let results = world
            .run(|comm| step_loop(cfg, &comm, &dir, np, launched))
            .expect("world config is valid");
        // In-process: one verdict per rank thread. Under pmrun: exactly
        // one, this process's. Any failure means the world must be
        // rebuilt (at the next rendezvous epoch) and the loop retried.
        if results.iter().all(|r| r.is_some()) {
            break;
        }
        attempt += 1;
        assert!(
            attempt < MAX_ATTEMPTS,
            "resilience/respawn: no fault-free attempt in {MAX_ATTEMPTS} tries"
        );
    }
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = cfg.mode;
}

/// One rank's attempt at the full computation: restore, agree on a
/// consistent resume point, then step to [`STEPS`], checkpointing after
/// every step. Returns `None` when a peer's death aborted the attempt.
fn step_loop(
    cfg: &RunConfig,
    comm: &Comm,
    dir: &PathBuf,
    np: usize,
    launched: bool,
) -> Option<i64> {
    let sink = cfg.sink(comm.rank());
    let store = CheckpointStore::new(dir, comm.world_rank()).expect("checkpoint dir is writable");
    let (done, state) = comm
        .restore::<i64>(&store)
        .expect("own checkpoint is readable")
        .map(|(step, data)| (step, data[0]))
        .unwrap_or((0, 0));

    // Consistent cut: a rank that died after the allreduce but before
    // its checkpoint is one step behind the others, so the group resumes
    // from the MINIMUM completed step, with the state broadcast by a
    // rank whose checkpoint is exactly that old.
    let survived = |r: patternlets_core::Result<i64>| -> Option<i64> {
        match r {
            Ok(v) => Some(v),
            Err(Error::RankFailed { .. }) => None,
            // On the in-process first attempt a seeded kill is pending, and
            // the waits-for detector can race the failure marking: a rank
            // blocked on the victim may see a Deadlock verdict in the
            // window before the kill is recorded as a failure. Either way
            // the attempt is lost; treat it like RankFailed and retry.
            Err(Error::Deadlock(_)) => None,
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    let resume = survived(comm.allreduce(&[done as i64], &ops::Min).map(|v| v[0]))? as u64;
    let holder = survived(
        comm.allreduce(
            &[if done == resume {
                comm.rank() as i64
            } else {
                np as i64
            }],
            &ops::Min,
        )
        .map(|v| v[0]),
    )? as usize;
    let mut state = survived(comm.bcast_one(holder, Some(state)))?;
    if resume > 0 && comm.is_master() {
        sink.println(format!(
            "restart: resuming from step {resume} (state {state}, held by rank {holder})"
        ));
    }

    for step in resume..STEPS {
        if launched {
            // Give the launcher's kill timer something to land in.
            std::thread::sleep(std::time::Duration::from_millis(150));
        }
        state += survived(comm.allreduce(&[1i64], &ops::Sum).map(|v| v[0]))?;
        comm.checkpoint(&store, step + 1, &[state])
            .expect("checkpoint dir is writable");
    }
    if comm.is_master() {
        sink.println(format!(
            "done: {STEPS} steps at full size {np}, state {state} (expected {})",
            STEPS as i64 * np as i64
        ));
    }
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mode;

    #[test]
    fn the_job_heals_to_full_size_from_checkpoints() {
        for np in [2, 4] {
            let out = PATTERNLET.run_captured(np, Mode::On);
            let texts = out.texts();
            let expected = STEPS as i64 * np as i64;
            assert!(
                texts.iter().any(|t| t.contains(&format!(
                    "done: {STEPS} steps at full size {np}, state {expected}"
                ))),
                "np={np}: {texts:?}"
            );
            // The retry world really did restore mid-run state rather
            // than recomputing from scratch.
            assert!(
                texts
                    .iter()
                    .any(|t| t.starts_with("restart: resuming from step")),
                "np={np}: {texts:?}"
            );
        }
    }

    #[test]
    fn the_victim_is_selectable() {
        let cfg = RunConfig::new(4, Mode::On).with_kill(Some(2));
        (PATTERNLET.run)(&cfg);
        let texts = cfg.output.texts();
        assert!(
            texts
                .iter()
                .any(|t| t.contains("done: 8 steps at full size 4, state 32")),
            "{texts:?}"
        );
    }
}
