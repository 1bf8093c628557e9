//! CPU time of the processes that serve an operation, read from their
//! POSIX CPU clocks.
//!
//! Every process of a run shares one CPU (see `procs::pin_to_one_cpu`),
//! so the CPU time those processes consume while an operation runs is its
//! duration on a CPU of its own. Time in which the host runs other guests
//! on the CPU (steal, which the kernel keeps out of task clocks) or this
//! guest runs other processes is not counted. On the reference host, with
//! steal simulated by a real-time spinner taking the run's CPU for a
//! random share (0–60%, changing every 3 s) of the time, the median job
//! of ten `jobs` runs spread 0.66 (interquartile range over median) in
//! wall time, 0.04–0.07 in CPU time, and 0.01 in CPU time at the
//! reference speed (see `reference`).

use std::io;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// The calling process's CPU clock, all threads together.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The summed CPU clocks of a fixed set of processes.
#[derive(Clone, Debug)]
pub struct Meter {
    clocks: Vec<i32>,
}

impl Meter {
    /// This process alone.
    pub fn own() -> Meter {
        Meter {
            clocks: vec![CLOCK_PROCESS_CPUTIME_ID],
        }
    }

    /// This process and the processes `pids`.
    pub fn with(pids: &[u32]) -> io::Result<Meter> {
        let mut clocks = vec![CLOCK_PROCESS_CPUTIME_ID];
        for &pid in pids {
            let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
            let mut clock = 0;
            // SAFETY: `clock` is a valid place for the call to write one
            // clock id.
            if unsafe { clock_getcpuclockid(pid, &mut clock) } != 0 {
                return Err(io::Error::other(format!("no CPU clock for pid {pid}")));
            }
            clocks.push(clock);
        }
        Ok(Meter { clocks })
    }

    /// CPU time the processes have consumed since each started, in ns.
    /// Fails once one of them has exited.
    pub fn read(&self) -> io::Result<u64> {
        self.clocks.iter().try_fold(0u64, |sum, &clock| {
            let mut ts = Timespec { sec: 0, nsec: 0 };
            // SAFETY: `ts` is a valid place for the call to write a
            // timespec.
            if unsafe { clock_gettime(clock, &mut ts) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(sum + ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_of_this_process_and_a_child() {
        let own = Meter::own();
        let before = own.read().expect("own clock");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(own.read().expect("own clock") > before, "{x}");

        let mut child = std::process::Command::new("sh")
            .args([
                "-c",
                "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; read x",
            ])
            .stdin(std::process::Stdio::piped())
            .spawn()
            .expect("sh runs");
        let both = Meter::with(&[child.id()]).expect("child clock");
        std::thread::sleep(std::time::Duration::from_millis(200));
        let sum = both.read().expect("both clocks");
        assert!(
            sum > own.read().expect("own clock"),
            "the child's time counts"
        );
        drop(child.stdin.take());
        child.wait().expect("sh ends");
        assert!(both.read().is_err(), "a reaped child's clock is gone");
    }
}
