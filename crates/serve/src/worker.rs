//! The worker side of the cluster protocol.
//!
//! [`run_worker`] is one long-lived loop: connect to the daemon's
//! cluster port, announce with [`Frame::WorkerHello`], then serve
//! [`Frame::JobAssign`]s until the daemon says [`Frame::Shutdown`] (or
//! disappears). Each assignment runs under
//! [`with_job_ctx`], so every world the
//! patternlet builds goes over TCP as the assigned rank of the job's
//! private epoch block — the worker itself never restarts between jobs,
//! which is the whole point of the elastic pool.
//!
//! What "run the patternlet" means is the caller's business: the
//! `patternlets worker` CLI passes a registry-backed [`JobRunner`], the
//! in-process tests pass closures. The loop owns the protocol (context
//! install, panic containment, line streaming, metrics push, the final
//! [`Frame::JobDone`] verdict); the runner owns the patternlet.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use patternlets_metrics::{wire, MetricsSnapshot};
use patternlets_net::chaos::NetChaosPlan;
use patternlets_net::frame::{read_frame, write_frame, Frame};
use patternlets_net::{install_job_fabric, with_job_ctx, JobCtx};

/// One job assignment, as handed to a [`JobRunner`].
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Gateway job id.
    pub job: u64,
    /// Catalog name of the patternlet.
    pub patternlet: String,
    /// World size.
    pub np: usize,
    /// This worker's rank in the job.
    pub rank: usize,
    /// The directive toggle (`--on`).
    pub on: bool,
    /// Capture an execution trace: the runner runs the patternlet under
    /// a tracer and ships the Chrome export back via
    /// [`JobLineSink::trace`] before returning.
    pub trace: bool,
}

/// Executes one assigned patternlet. Runs inside the job's fabric
/// context: any world built in `run` is rank `assign.rank` of an
/// `assign.np`-wide TCP world. Return the run's metrics snapshot (an
/// empty snapshot is fine) or a human-readable error.
pub trait JobRunner: Send + Sync + 'static {
    /// Execute the patternlet, emitting output through `lines`.
    fn run(&self, assign: &Assignment, lines: &JobLineSink) -> Result<MetricsSnapshot, String>;
}

impl<F> JobRunner for F
where
    F: Fn(&Assignment, &JobLineSink) -> Result<MetricsSnapshot, String> + Send + Sync + 'static,
{
    fn run(&self, assign: &Assignment, lines: &JobLineSink) -> Result<MetricsSnapshot, String> {
        self(assign, lines)
    }
}

/// A handle for sending one rank's output lines and reports back to its
/// launcher: a `pmserve` worker's control connection, or a `pmrun`
/// rank's report connection ([`JobLineSink::connect`]). Clone-cheap;
/// writes are frame-atomic (one frame per line or report), so frames
/// from concurrent rank threads never interleave.
#[derive(Clone)]
pub struct JobLineSink {
    conn: Arc<Mutex<TcpStream>>,
    job: u64,
    rank: u64,
}

impl JobLineSink {
    /// Open a report connection to `addr` for `rank` of `job`. Send the
    /// first report right away: the listener reads it before the next.
    pub fn connect(addr: &str, job: u64, rank: usize) -> std::io::Result<JobLineSink> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(JobLineSink {
            conn: Arc::new(Mutex::new(conn)),
            job,
            rank: rank as u64,
        })
    }

    fn send(&self, frame: &Frame) {
        let _ = write_frame(&mut *self.conn.lock().expect("worker conn lock"), frame);
    }

    /// Send one output line (pass it without a trailing newline).
    /// Send failures are swallowed: if the daemon is gone the job is
    /// already lost, and the run loop will notice on its next read.
    pub fn line(&self, text: &str) {
        self.send(&Frame::JobLine {
            job: self.job,
            rank: self.rank,
            line: text.to_string(),
        });
    }

    /// Send this rank's metrics snapshot (one [`Frame::JobMetrics`];
    /// snapshots are cumulative, so the launcher keeps the latest).
    /// Send failures are swallowed like line sends.
    pub fn metrics(&self, snapshot: &MetricsSnapshot) {
        self.send(&Frame::JobMetrics {
            job: self.job,
            rank: self.rank,
            payload: wire::encode(snapshot),
        });
    }

    /// Ship this rank's Chrome-trace export back to the launcher (one
    /// [`Frame::JobTrace`]; the launcher merges all ranks' exports).
    /// Send failures are swallowed like line sends: a gone launcher
    /// already lost the job.
    pub fn trace(&self, json: &str) {
        self.send(&Frame::JobTrace {
            job: self.job,
            rank: self.rank,
            json: json.to_string(),
        });
    }

    /// An `io::Write` adapter that splits a byte stream on `\n` and
    /// forwards each complete line — the shape
    /// [`Output::echoing_to`](patternlets_core::Output::echoing_to)
    /// wants for its echo writer.
    pub fn into_line_writer(self) -> LineWriter {
        LineWriter {
            sink: self,
            buf: Vec::new(),
        }
    }
}

/// See [`JobLineSink::into_line_writer`].
pub struct LineWriter {
    sink: JobLineSink,
    buf: Vec<u8>,
}

impl std::io::Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.sink.line(&line);
                self.buf.clear();
            } else {
                self.buf.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "patternlet panicked".to_string()
    }
}

/// Join the cluster at `cluster_addr` and serve job assignments until
/// shutdown (`Ok`) or a protocol/transport failure (`Err`). Blocks for
/// the worker's lifetime — callers wanting a background worker spawn a
/// thread around this.
pub fn run_worker(cluster_addr: &str, runner: impl JobRunner) -> std::io::Result<()> {
    let conn = TcpStream::connect(cluster_addr)?;
    conn.set_nodelay(true).ok();
    let mut reader = conn.try_clone()?;
    let conn = Arc::new(Mutex::new(conn));
    write_frame(
        &mut *conn.lock().expect("worker conn lock"),
        &Frame::WorkerHello {
            pid: std::process::id() as u64,
            host: patternlets_net::shm::hostname(),
        },
    )?;
    install_job_fabric();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // EOF: the daemon went away; nothing left to serve.
            Ok(None) => return Ok(()),
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("worker control stream: {e}"),
                ))
            }
        };
        match frame {
            Frame::JobAssign {
                job,
                patternlet,
                np,
                rank,
                epoch_base,
                on,
                chaos,
                trace,
            } => {
                let assign = Assignment {
                    job,
                    patternlet,
                    np: np as usize,
                    rank: rank as usize,
                    on,
                    trace,
                };
                let sink = JobLineSink {
                    conn: conn.clone(),
                    job,
                    rank,
                };
                let chaos = if chaos.is_empty() {
                    None
                } else {
                    NetChaosPlan::from_env_value(&chaos)
                };
                let ctx = JobCtx::new(
                    assign.rank,
                    assign.np,
                    cluster_addr.to_string(),
                    epoch_base,
                    chaos,
                );
                // Contain panics: a crashing patternlet fails its job,
                // not the worker. (A SIGKILL'd worker is the daemon's
                // problem; a panicking patternlet is ours.)
                let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    with_job_ctx(ctx, || runner.run(&assign, &sink))
                }));
                let (ok, error) = match verdict {
                    Ok(Ok(snapshot)) => {
                        sink.metrics(&snapshot);
                        (true, String::new())
                    }
                    Ok(Err(e)) => (false, e),
                    Err(payload) => (false, panic_text(payload)),
                };
                write_frame(
                    &mut *conn.lock().expect("worker conn lock"),
                    &Frame::JobDone {
                        job,
                        rank,
                        ok,
                        error,
                    },
                )?;
            }
            Frame::Shutdown => return Ok(()),
            // Anything else on the control stream is noise.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn line_writer_splits_on_newlines() {
        // A sink needs a real socket; use a loopback pair and read the
        // frames back.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let sink = JobLineSink {
            conn: Arc::new(Mutex::new(client)),
            job: 9,
            rank: 1,
        };
        let mut w = sink.into_line_writer();
        w.write_all(b"hel").unwrap();
        w.write_all(b"lo\nworld\npartial").unwrap();
        drop(w);
        for expect in ["hello", "world"] {
            let Some(Frame::JobLine { job, rank, line }) = read_frame(&mut server).unwrap() else {
                panic!("expected a JobLine frame");
            };
            assert_eq!((job, rank), (9, 1));
            assert_eq!(line, expect);
        }
    }
}
