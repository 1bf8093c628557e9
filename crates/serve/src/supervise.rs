//! One supervisor for `pmrun`'s ranks and `pmserve`'s local workers.
//!
//! A [`Supervisor`] runs N slots, one child each at a time, from one spawn
//! function `(slot, epoch_base) -> io::Result<Child>`, under one rule set.
//! A spawn error during the first launch kills the children already
//! started and fails the launch. A child that exits 0 is done. A child
//! that fails, or whose respawn cannot be spawned, is respawned after its
//! backoff while the job-wide budget lasts. The first SIGINT/SIGTERM
//! starts no further respawn (a drain). The second signal, or the
//! deadline, kills every child, and no respawn starts after it.
//! [`Supervisor::step`] takes the time and the termination count, so
//! tests drive it without real signals or sleeps.

use std::io;
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

use patternlets_core::rng::{Rng, SplitMix64};
use patternlets_core::signals;

/// Why the supervisor killed every child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kill {
    /// A second SIGINT/SIGTERM arrived.
    Signal,
    /// The deadline passed.
    Deadline,
}

/// What a step did, for its launcher to report.
#[derive(Debug, PartialEq, Eq)]
pub enum Event {
    /// A slot's child ended, or its respawn could not be spawned, as the
    /// text says ("exit 1", "killed by signal 9", "respawn failed: ...").
    /// When a respawn is scheduled, its epoch base and the budget left.
    Ended(usize, String, Option<(u64, usize)>),
    /// The first termination signal: no respawn starts from now on.
    Draining,
    /// Every child was killed.
    Killed(Kill),
}

/// How a settled slot ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// "exit 0", "killed by signal 9 (after 2 respawns)", ...
    pub how: String,
    /// Did the slot's last child exit 0?
    pub ok: bool,
    /// Respawns tried in the slot; one a drain or a kill called off is
    /// not counted.
    pub respawns: usize,
}

enum State {
    Running(Child),
    /// A respawn at this epoch base is due then; the text is how the slot
    /// ended, and judges it if the respawn never starts.
    Backoff(Instant, u64, String),
    Settled(String, bool),
}

struct Slot {
    state: State,
    /// Respawns tried: the exponent of the next one's backoff.
    respawns: usize,
}

/// N child slots under one rule set (see the module docs).
pub struct Supervisor<F> {
    spawn: F,
    slots: Vec<Slot>,
    budget: usize,
    /// When to kill every child that has not settled.
    pub deadline: Option<Instant>,
    /// Respawns scheduled job-wide: the last epoch base handed out.
    ordinal: u64,
    draining: bool,
    killed: bool,
}

impl<F: FnMut(usize, u64) -> io::Result<Child>> Supervisor<F> {
    /// Spawn slots `0..n` at epoch base 0, with `budget` respawns to
    /// spend across all of them (`usize::MAX`: no limit). A spawn error
    /// kills and reaps the children already started, and names its slot.
    pub fn launch(n: usize, budget: usize, spawn: F) -> Result<Self, (usize, io::Error)> {
        let mut sup = Supervisor {
            spawn,
            slots: Vec::with_capacity(n),
            budget,
            deadline: None,
            ordinal: 0,
            draining: false,
            killed: false,
        };
        for slot in 0..n {
            let state = State::Running((sup.spawn)(slot, 0).map_err(|e| (slot, e))?);
            sup.slots.push(Slot { state, respawns: 0 });
        }
        Ok(sup)
    }

    /// SIGKILL the child running in `slot`, if there is one. Its death is
    /// reaped and judged like any other.
    pub fn kill(&mut self, slot: usize) {
        if let State::Running(child) = &mut self.slots[slot].state {
            let _ = child.kill();
        }
    }

    /// Has every slot ended for good?
    pub fn settled(&self) -> bool {
        (self.slots.iter()).all(|slot| matches!(slot.state, State::Settled(..)))
    }

    /// Each slot's outcome, once [`settled`](Self::settled).
    pub fn outcomes(mut self) -> Vec<Outcome> {
        let outcome = |slot: Slot| {
            let State::Settled(how, ok) = slot.state else {
                unreachable!("the outcome of an unsettled slot");
            };
            let how = match slot.respawns {
                0 => how,
                1 => format!("{how} (after 1 respawn)"),
                n => format!("{how} (after {n} respawns)"),
            };
            let respawns = slot.respawns;
            Outcome { how, ok, respawns }
        };
        std::mem::take(&mut self.slots)
            .into_iter()
            .map(outcome)
            .collect()
    }

    /// Sleep 10 ms, then [`step`](Self::step) on the real clock and this
    /// process's termination signals.
    pub fn tick(&mut self) -> Vec<Event> {
        std::thread::sleep(Duration::from_millis(10));
        self.step(Instant::now(), signals::termination_count())
    }

    /// Apply the rules at `now`, `terminations` signals having arrived.
    pub fn step(&mut self, now: Instant, terminations: usize) -> Vec<Event> {
        let mut events = Vec::new();
        let kill = match self.deadline {
            _ if self.killed => None,
            Some(at) if now >= at => Some(Kill::Deadline),
            _ => (terminations > 1).then_some(Kill::Signal),
        };
        if let Some(kill) = kill {
            self.killed = true;
            (0..self.slots.len()).for_each(|slot| self.kill(slot));
            events.push(Event::Killed(kill));
        }
        if terminations > 0 && !self.draining && !self.killed {
            events.push(Event::Draining);
        }
        self.draining |= terminations > 0;
        let stopped = self.draining || self.killed;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let state = &mut slot.state;
            let (how, ok) = match state {
                State::Settled(..) => continue,
                State::Running(child) => match child.try_wait() {
                    Ok(Some(status)) => (describe(status), status.success()),
                    Ok(None) => continue,
                    // The child may still run: a respawn could double it.
                    Err(e) => {
                        *state = State::Settled(format!("wait failed: {e}"), false);
                        continue;
                    }
                },
                State::Backoff(_, _, how) if stopped => {
                    *state = State::Settled(std::mem::take(how), false);
                    slot.respawns -= 1;
                    continue;
                }
                State::Backoff(due, ..) if now < *due => continue,
                State::Backoff(_, epoch_base, _) => match (self.spawn)(i, *epoch_base) {
                    Ok(child) => {
                        *state = State::Running(child);
                        continue;
                    }
                    Err(e) => (format!("respawn failed: {e}"), false),
                },
            };
            let respawn = !ok && !stopped && self.budget > 0;
            *state = if respawn {
                self.budget -= 1;
                self.ordinal += 1;
                slot.respawns += 1;
                let due = now + backoff(i, slot.respawns, self.ordinal);
                State::Backoff(due, self.ordinal, how.clone())
            } else {
                State::Settled(how.clone(), ok)
            };
            let respawn = respawn.then_some((self.ordinal, self.budget));
            events.push(Event::Ended(i, how, respawn));
        }
        events
    }
}

impl<F> Drop for Supervisor<F> {
    /// Kill and reap every child still running: the launch failed, or the
    /// launcher is unwinding.
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let State::Running(child) = &mut slot.state {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// "exit 1", "killed by signal 9": how a child ended, for reports.
fn describe(status: ExitStatus) -> String {
    #[cfg(unix)]
    if let Some(sig) = std::os::unix::process::ExitStatusExt::signal(&status) {
        return format!("killed by signal {sig}");
    }
    let code = status.code().map(|code| format!("exit {code}"));
    code.unwrap_or_else(|| "ended without an exit code".to_string())
}

/// The wait before the `nth` respawn of `slot` (`nth` ≥ 1), the job's
/// `ordinal`-th: doubling from 100 ms so a crash loop cools down, capped
/// at 5 s so it settles on a steady cadence, and jittered so slots that
/// died together do not restart in lockstep. The jitter is seeded from
/// `(slot, ordinal)`, so a spawn history replays identically.
fn backoff(slot: usize, nth: usize, ordinal: u64) -> Duration {
    const BASE_MS: u64 = 100;
    const CAP_MS: u64 = 5_000;
    let exp = BASE_MS
        .saturating_mul(1u64 << (nth.saturating_sub(1) as u32).min(10))
        .min(CAP_MS);
    let mut rng = SplitMix64::new(((slot as u64) << 32) ^ ordinal ^ 0x5EED_BACC);
    // Half fixed, half jittered: never less than exp/2, never more than exp.
    Duration::from_millis(exp / 2 + rng.gen_range(exp / 2 + 1))
}

/// A bare program name resolves to a sibling of this executable first:
/// the launchers and `patternlets` are built into one target directory,
/// so `pmrun -np 4 patternlets ...` works without touching PATH. A name
/// with a path separator, or one with no sibling, is left as it is.
pub fn sibling_program(name: &str) -> String {
    let me = std::env::current_exe().ok();
    match me.map(|me| me.with_file_name(name)) {
        Some(sibling) if !name.contains(std::path::MAIN_SEPARATOR) && sibling.is_file() => {
            sibling.to_string_lossy().into_owned()
        }
        _ => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::process::Command;

    fn sh(script: &str) -> io::Result<Child> {
        Command::new("sh").args(["-c", script]).spawn()
    }

    /// Step until the supervisor has something to say, at `now` and with
    /// `terminations` signals: the children are real and end in real time.
    fn next_events<F>(sup: &mut Supervisor<F>, now: Instant, terminations: usize) -> Vec<Event>
    where
        F: FnMut(usize, u64) -> io::Result<Child>,
    {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            let events = sup.step(now, terminations);
            if !events.is_empty() {
                return events;
            }
            assert!(Instant::now() < give_up, "no event in 10 s");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Step until every slot settles, `now` advancing by `advance` a step.
    fn settle<F>(
        sup: &mut Supervisor<F>,
        mut now: Instant,
        advance: Duration,
        terminations: usize,
    ) -> Vec<Event>
    where
        F: FnMut(usize, u64) -> io::Result<Child>,
    {
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut events = Vec::new();
        while !sup.settled() {
            events.extend(sup.step(now, terminations));
            assert!(Instant::now() < give_up, "the slots never settled");
            now += advance;
            std::thread::sleep(Duration::from_millis(5));
        }
        events
    }

    fn ended(slot: usize, how: &str, respawn: Option<(u64, usize)>) -> Event {
        Event::Ended(slot, how.to_string(), respawn)
    }

    #[test]
    fn no_respawn_starts_before_its_due_time() {
        let spawned = Cell::new(0);
        let mut sup = Supervisor::launch(1, 5, |_, _| {
            spawned.set(spawned.get() + 1);
            sh("exit 1")
        })
        .unwrap();
        let t0 = Instant::now();
        let events = next_events(&mut sup, t0, 0);
        assert_eq!(events, [ended(0, "exit 1", Some((1, 4)))]);
        let due = t0 + backoff(0, 1, 1);
        assert!(due >= t0 + Duration::from_millis(50));
        assert!(sup.step(due - Duration::from_millis(1), 0).is_empty());
        assert_eq!(spawned.get(), 1, "respawned before its due time");
        assert!(sup.step(due, 0).is_empty());
        assert_eq!(spawned.get(), 2, "not respawned at its due time");
        settle(&mut sup, due, Duration::ZERO, 1);
    }

    #[test]
    fn the_budget_is_spent_job_wide() {
        let spawned = Cell::new(0);
        let mut sup = Supervisor::launch(2, 3, |_, _| {
            spawned.set(spawned.get() + 1);
            sh("exit 1")
        })
        .unwrap();
        // 10 s a step: every backoff (≤ 5 s) is due at the next one.
        let events = settle(&mut sup, Instant::now(), Duration::from_secs(10), 0);
        let respawns: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Ended(_, _, respawn) => *respawn,
                _ => None,
            })
            .collect();
        assert_eq!(respawns, [(1, 2), (2, 1), (3, 0)], "{events:?}");
        assert_eq!(spawned.get(), 2 + 3);
        let outcomes = sup.outcomes();
        assert!(outcomes
            .iter()
            .all(|o| !o.ok && o.how.starts_with("exit 1")));
        assert_eq!(outcomes.iter().map(|o| o.respawns).sum::<usize>(), 3);
    }

    #[test]
    fn a_failed_respawn_spawn_takes_another_backoff() {
        let spawned = Cell::new(0);
        let mut sup = Supervisor::launch(1, 5, |_, epoch_base| {
            spawned.set(spawned.get() + 1);
            match epoch_base {
                0 => sh("exit 1"),
                1 => Err(io::Error::other("no such program")),
                _ => sh("exit 0"),
            }
        })
        .unwrap();
        let t0 = Instant::now();
        assert_eq!(
            next_events(&mut sup, t0, 0),
            [ended(0, "exit 1", Some((1, 4)))]
        );
        let due = t0 + backoff(0, 1, 1);
        let failed = "respawn failed: no such program";
        assert_eq!(sup.step(due, 0), [ended(0, failed, Some((2, 3)))]);
        // The retry waits out a backoff of its own, doubled.
        let retry = due + backoff(0, 2, 2);
        assert!(retry >= due + Duration::from_millis(100));
        assert!(sup.step(retry - Duration::from_millis(1), 0).is_empty());
        assert_eq!(spawned.get(), 2);
        assert!(sup.step(retry, 0).is_empty());
        assert_eq!(next_events(&mut sup, retry, 0), [ended(0, "exit 0", None)]);
        // The respawn that failed to spawn was tried, and counts.
        let outcome = Outcome {
            how: "exit 0 (after 2 respawns)".into(),
            ok: true,
            respawns: 2,
        };
        assert_eq!(sup.outcomes(), [outcome]);
    }

    #[test]
    fn the_first_signal_stops_respawns() {
        let spawned = Cell::new(0);
        let mut sup = Supervisor::launch(2, 5, |slot, _| {
            spawned.set(spawned.get() + 1);
            sh(if slot == 0 {
                "exit 1"
            } else {
                "sleep 1; exit 1"
            })
        })
        .unwrap();
        let t0 = Instant::now();
        assert_eq!(
            next_events(&mut sup, t0, 0),
            [ended(0, "exit 1", Some((1, 4)))]
        );
        // Slot 0's respawn is pending, slot 1 still runs: the signal
        // cancels the one, and the other's failure starts none.
        let late = t0 + Duration::from_secs(60);
        assert_eq!(sup.step(late, 1), [Event::Draining]);
        let events = settle(&mut sup, late, Duration::ZERO, 1);
        assert_eq!(events, [ended(1, "exit 1", None)]);
        assert_eq!(spawned.get(), 2);
        let outcomes = sup.outcomes();
        assert!(outcomes.iter().all(|o| o.how == "exit 1" && !o.ok));
    }

    #[test]
    fn the_second_signal_kills_every_child_once() {
        let spawned = Cell::new(0);
        let mut sup = Supervisor::launch(2, 5, |_, _| {
            spawned.set(spawned.get() + 1);
            sh("exec sleep 30")
        })
        .unwrap();
        let t0 = Instant::now();
        assert_eq!(sup.step(t0, 1), [Event::Draining]);
        assert_eq!(sup.step(t0, 2), [Event::Killed(Kill::Signal)]);
        let mut events = settle(&mut sup, t0, Duration::from_secs(10), 2);
        events.sort_by_key(|e| format!("{e:?}"));
        let killed = "killed by signal 9";
        assert_eq!(events, [ended(0, killed, None), ended(1, killed, None)]);
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert_eq!(spawned.get(), 2);
    }

    #[test]
    fn the_deadline_kills_every_child_once() {
        let mut sup = Supervisor::launch(1, 5, |_, _| sh("exec sleep 30")).unwrap();
        let t0 = Instant::now();
        sup.deadline = Some(t0 + Duration::from_secs(1));
        assert!(sup.step(t0 + Duration::from_millis(999), 0).is_empty());
        assert_eq!(
            sup.step(t0 + Duration::from_secs(1), 0),
            [Event::Killed(Kill::Deadline)]
        );
        let later = t0 + Duration::from_secs(2);
        let events = settle(&mut sup, later, Duration::from_secs(10), 2);
        assert_eq!(events, [ended(0, "killed by signal 9", None)]);
        assert!(!sup.outcomes()[0].ok);
    }

    #[test]
    fn a_failed_first_launch_reaps_the_children_it_started() {
        let pid = Cell::new(0);
        let launched = Supervisor::launch(2, 5, |slot, _| {
            if slot == 1 {
                return Err(io::Error::other("no such program"));
            }
            let child = sh("exec sleep 30")?;
            pid.set(child.id());
            Ok(child)
        });
        let Err((slot, e)) = launched else {
            panic!("the launch succeeded");
        };
        assert_eq!((slot, e.to_string().as_str()), (1, "no such program"));
        let probe = Command::new("kill")
            .args(["-0", &pid.get().to_string()])
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(!probe.success(), "slot 0's child outlived the launch");
    }
}
