//! Processes and files a run leaves behind. Every child leads a process
//! group of its own, so one signal reaches a launcher and everything it
//! started (`pmrun` ranks, `pmserve` workers). Each exit path — normal
//! return, panic, the hard deadline, SIGINT/SIGTERM — kills the live
//! groups and removes the run's scratch directory.

use std::io::{self, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use patternlets_serve::json::escape;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// Process groups started by this run and not yet reaped.
static GROUPS: Mutex<Vec<i32>> = Mutex::new(Vec::new());

/// The run's scratch directory, once made.
static SCRATCH: Mutex<Option<PathBuf>> = Mutex::new(None);

fn signal(pid: i32, sig: i32) -> bool {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe { kill(pid, sig) == 0 }
}

/// A child process leading its own process group.
pub struct Group {
    child: Child,
    pgid: i32,
}

impl Group {
    /// Spawn `cmd` as the leader of a new process group.
    pub fn spawn(cmd: &mut Command) -> io::Result<Group> {
        let child = cmd.process_group(0).spawn()?;
        let pgid = child.id() as i32;
        GROUPS.lock().expect("group list lock").push(pgid);
        Ok(Group { child, pgid })
    }

    /// The leader's pid.
    pub fn pid(&self) -> u32 {
        self.pgid as u32
    }

    /// The leader process.
    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Ask the leader alone to shut down gracefully (SIGTERM).
    pub fn terminate(&self) {
        signal(self.pgid, SIGTERM);
    }

    /// Wait up to `limit` for the leader to exit.
    pub fn wait_for(&mut self, limit: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + limit;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Group {
    /// Kill whatever is left of the group, reap the leader, and wait
    /// until no member remains.
    fn drop(&mut self) {
        signal(-self.pgid, SIGKILL);
        let _ = self.child.wait();
        wait_gone(self.pgid);
        GROUPS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|&g| g != self.pgid);
    }
}

/// Wait, at most 5 s, until no process of group `pgid` remains. Members
/// other than the leader are reaped by whoever inherits them.
fn wait_gone(pgid: i32) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while signal(-pgid, 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run `cmd` to completion as a group leader; return its standard output
/// and how long it ran, or why it failed. Callers bound the run with the
/// program's own timeout flag where it has one; the run's watchdog bounds
/// everything else.
pub fn output_of(cmd: &mut Command) -> Result<(String, Duration), String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut group = Group::spawn(cmd).map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let mut stdout = group.child().stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = group.child().wait();
    let took = start.elapsed();
    drop(group);
    let text = reader.join().expect("stdout reader thread");
    match status {
        Ok(s) if s.success() => Ok((text, took)),
        Ok(s) => Err(format!("{cmd:?} ended with {s}")),
        Err(e) => Err(format!("{cmd:?}: wait failed: {e}")),
    }
}

/// A transcript as a sorted multiset of lines: ranks interleave freely,
/// blank lines depend on which rank's output lands last, and launcher
/// chatter is not part of the program's output.
pub fn line_multiset(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with("pmrun:"))
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

/// The pids of `parent`'s child processes, read from `/proc`.
pub fn children_of(parent: u32) -> io::Result<Vec<u32>> {
    let mut children = Vec::new();
    for entry in std::fs::read_dir("/proc")? {
        let entry = entry?;
        let Some(pid) = entry.file_name().to_str().and_then(|n| n.parse().ok()) else {
            continue;
        };
        // A process may end between listing and reading; it is no child
        // to count then.
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (command) state ppid ...`: the command may hold spaces and
        // parentheses, so fields are counted from the last `)`.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1))
            .and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(parent) {
            children.push(pid);
        }
    }
    Ok(children)
}

/// A CPU set as the kernel passes it: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs a run was given and the one it runs on.
#[derive(Clone, Copy)]
pub struct Host {
    /// CPUs the run could use before it pinned itself.
    pub nproc: usize,
    /// The CPU every process of the run shares.
    pub cpu: usize,
}

/// Pin this process to one CPU, the highest-numbered it may use. Threads
/// and children started later inherit the pin, so every process of the
/// run — `pmrun` and its ranks, `pmserve` and its workers, the stream
/// parts — shares that CPU.
///
/// On a host with two CPUs shared with other tenants, where the scheduler
/// places the two ends of a hand-off decides whether the receiver catches
/// it spinning or has to be woken, and that placement shifts from run to
/// run: unpinned, the message workloads' median round trip spread 0.1–0.6
/// (interquartile range over median, ten runs). On one CPU every hand-off
/// takes the same path, and the same runs spread below 0.1. The cost is
/// that no run measures two threads working at once.
///
/// Call before any thread exists.
pub fn pin_to_one_cpu() -> io::Result<Host> {
    let mut mask: CpuMask = [0; 16];
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: `mask` is `size` bytes the call may write; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let allowed = |c: usize| mask[c / 64] >> (c % 64) & 1 == 1;
    let nproc = (0..size * 8).filter(|&c| allowed(c)).count();
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| allowed(c))
        .ok_or_else(|| io::Error::other("no CPU is allowed"))?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Host { nproc, cpu })
}

/// Make this run's scratch directory under `root` and point `TMPDIR` at
/// it, so the shared-memory segments and launcher directories of every
/// process the run starts stay inside the checkout.
pub fn make_scratch(root: &Path) -> io::Result<()> {
    let dir = root.join("tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    *SCRATCH.lock().expect("scratch lock") = Some(dir);
    Ok(())
}

/// Kill every live group, wait until it is gone, and remove the scratch
/// directory. Safe to call from any exit path, more than once.
pub fn cleanup() {
    let groups = GROUPS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    for &pgid in &groups {
        signal(-pgid, SIGKILL);
    }
    for pgid in groups {
        let mut status = 0;
        // SAFETY: `status` is a valid place for waitpid(2) to write; the
        // leader is our own child (or already reaped, and then the call
        // fails harmlessly).
        unsafe { waitpid(pgid, &mut status, 0) };
        wait_gone(pgid);
    }
    if let Some(dir) = SCRATCH.lock().unwrap_or_else(|e| e.into_inner()).take() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Guard the run: a panic cleans up before unwinding, and a watchdog
/// thread ends the process with a failure once `limit` passes or a
/// termination signal arrives.
pub fn guard(limit: Duration) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        cleanup();
        default_hook(info);
    }));
    patternlets_core::signals::install_termination_handler();
    let deadline = Instant::now() + limit;
    std::thread::spawn(move || loop {
        let expired = Instant::now() >= deadline;
        if expired || patternlets_core::signals::termination_requested() {
            cleanup();
            eprintln!(
                "pbench: {}; the run failed",
                if expired {
                    format!("hard timeout of {}s reached", limit.as_secs())
                } else {
                    "terminated by signal".to_string()
                }
            );
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// What a result was measured on, so results from different hosts or
/// builds are never compared blindly.
pub fn stamp(host: Host) -> String {
    let Host { nproc, cpu } = host;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = git_commit().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {cpu}, \"kernel\": \"{}\", \"commit\": \"{}\", \"profile\": \"{profile}\"}}",
        escape(&kernel),
        escape(&commit)
    )
}

/// The commit checked out in the current directory, read from `.git`
/// directly (a checkout without git metadata has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
