//! `pmserve` — the patternlets cluster daemon.
//!
//! ```text
//! pmserve [--workers N] [--cluster-port P] [--http-port P]
//!         [--net-chaos SPEC] [--retries N] [--worker-cmd PATH] [--quiet]
//! ```
//!
//! Binds the cluster and HTTP gateway ports (ephemeral by default,
//! printed on startup), runs `--workers` local `patternlets worker`
//! processes, and serves jobs until SIGINT / SIGTERM — which drains
//! in-flight jobs, prints a final metrics summary, and exits 0. A second
//! signal exits immediately.
//!
//! The local workers run under `patternlets_serve::supervise`, the
//! supervisor `pmrun` runs its ranks with, with no respawn budget: a
//! worker that fails is respawned after a backoff that doubles from
//! 100 ms to a 5 s cap, so a crash-looping worker command cools down
//! instead of spinning. The first signal starts no further respawn, and
//! once the scheduler has drained, the workers it told to shut down get
//! 5 s to exit before they are killed.
//!
//! External workers may also join (`patternlets worker <cluster-addr>`
//! from anywhere that can reach the port): the pool is membership, not
//! configuration.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use patternlets_core::signals;
use patternlets_serve::daemon::{self, DaemonConfig};
use patternlets_serve::supervise::{sibling_program, Event, Kill, Supervisor};

struct Options {
    workers: usize,
    cluster_port: u16,
    http_port: u16,
    chaos: String,
    retries: u32,
    worker_cmd: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pmserve [--workers N] [--cluster-port P] [--http-port P]\n\
         \x20              [--net-chaos SPEC] [--retries N] [--worker-cmd PATH] [--quiet]\n\
         \n\
         Starts the patternlets cluster daemon: an elastic worker pool plus an\n\
         HTTP job gateway. Ports default to ephemeral (0) and are printed on\n\
         startup. SIGINT/SIGTERM drains in-flight jobs and exits 0."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workers: 4,
        cluster_port: 0,
        http_port: 0,
        chaos: String::new(),
        retries: 0,
        worker_cmd: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("pmserve: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workers" => opts.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--cluster-port" => {
                opts.cluster_port = value("--cluster-port").parse().unwrap_or_else(|_| usage())
            }
            "--http-port" => {
                opts.http_port = value("--http-port").parse().unwrap_or_else(|_| usage())
            }
            "--net-chaos" => opts.chaos = value("--net-chaos"),
            "--retries" => opts.retries = value("--retries").parse().unwrap_or_else(|_| usage()),
            "--worker-cmd" => opts.worker_cmd = Some(value("--worker-cmd")),
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("pmserve: unknown argument {other:?}");
                usage();
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    signals::install_termination_handler();
    let config = DaemonConfig {
        cluster_addr: format!("127.0.0.1:{}", opts.cluster_port),
        http_addr: format!("127.0.0.1:{}", opts.http_port),
        quiet: opts.quiet,
        default_chaos: opts.chaos.clone(),
        default_retries: opts.retries,
    };
    let daemon = match daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pmserve: cannot start: {e}");
            std::process::exit(1);
        }
    };
    let cluster = daemon.cluster_addr.to_string();
    println!("pmserve: cluster on {cluster}");
    println!("pmserve: gateway on http://{}", daemon.http_addr);
    std::io::stdout().flush().ok();

    let worker_cmd = sibling_program(opts.worker_cmd.as_deref().unwrap_or("patternlets"));
    let spawn = |_, _| {
        let mut cmd = Command::new(&worker_cmd);
        let child = cmd
            .arg("worker")
            .arg(&cluster)
            .stdin(Stdio::null())
            .spawn()?;
        if !opts.quiet {
            println!("pmserve: spawned worker pid {}", child.id());
        }
        Ok(child)
    };
    let mut workers = match Supervisor::launch(opts.workers, usize::MAX, spawn) {
        Ok(workers) => workers,
        Err((_, e)) => {
            eprintln!("pmserve: cannot spawn worker ({worker_cmd}): {e}");
            std::process::exit(1);
        }
    };

    // Serve until a signal drains the scheduler, whose Shutdown tells
    // every worker to exit; the local ones get 5 s to.
    while !(daemon.finished() && workers.settled()) {
        for event in workers.tick() {
            match event {
                Event::Draining => daemon.drain(),
                Event::Killed(Kill::Signal) => {
                    eprintln!("pmserve: second signal; exiting immediately");
                    std::process::exit(130);
                }
                Event::Ended(slot, how, _) if !opts.quiet => {
                    println!("pmserve: worker {slot} {how}")
                }
                _ => {}
            }
        }
        if daemon.finished() && workers.deadline.is_none() {
            workers.deadline = Some(Instant::now() + Duration::from_secs(5));
        }
    }
    daemon.wait();
}
