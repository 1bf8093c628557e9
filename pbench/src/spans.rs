//! Spans around the calls a workload makes into the system under test.
//! Kept in memory only in traced runs (an untraced run pays one branch per
//! call) and written out as Chrome trace JSON when the run ends.

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::stats;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The call, named after the layer it enters (`mp.comm.send`).
    pub name: &'static str,
    /// Process the call ran in.
    pub pid: u32,
    /// Thread label within the process (rank or client index).
    pub tid: u32,
    /// Wall-clock start, so spans from several processes line up.
    pub start_unix_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// The operation the call belongs to; spans of one operation share it.
    pub op: u64,
}

/// One thread's span recorder.
pub struct Spans {
    on: bool,
    tid: u32,
    origin: Instant,
    origin_unix_ns: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder for thread `tid`; records nothing unless `on`.
    pub fn new(on: bool, tid: u32) -> Self {
        Spans {
            on,
            tid,
            origin: Instant::now(),
            origin_unix_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, op, start, Instant::now());
        out
    }

    /// Record a span measured by the caller.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let since = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            pid: std::process::id(),
            tid: self.tid,
            start_unix_ns: self.origin_unix_ns + since,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            op,
        });
    }

    /// Take over another recorder's spans.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count and median duration in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.dur_ns as f64);
        }
        by_name
            .into_iter()
            .map(|(name, mut durs)| {
                durs.sort_by(f64::total_cmp);
                (name, (durs.len(), stats::percentile(&durs, 50.0)))
            })
            .collect()
    }

    /// Serialize for another process: one `span` line per span.
    pub fn to_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "span {} {} {} {} {} {}\n",
                    s.name, s.pid, s.tid, s.start_unix_ns, s.dur_ns, s.op
                )
            })
            .collect()
    }

    /// Parse one line written by [`Spans::to_lines`] into this recorder.
    pub fn push_line(&mut self, line: &str) -> Option<()> {
        let f: Vec<&str> = line.strip_prefix("span ")?.split(' ').collect();
        let [name, pid, tid, start, dur, op] = f[..] else {
            return None;
        };
        self.spans.push(Span {
            name: intern(name),
            pid: pid.parse().ok()?,
            tid: tid.parse().ok()?,
            start_unix_ns: start.parse().ok()?,
            dur_ns: dur.parse().ok()?,
            op: op.parse().ok()?,
        });
        Some(())
    }

    /// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, timestamps relative to the earliest span.
    pub fn to_chrome_json(&self) -> String {
        let t0 = self
            .spans
            .iter()
            .map(|s| s.start_unix_ns)
            .min()
            .unwrap_or(0);
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"op\":{}}}}}",
                    s.name,
                    (s.start_unix_ns - t0) as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.pid,
                    s.tid,
                    s.op
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// A span or sample name read back from another process, as a `'static`
/// string. The set of names is small and fixed, so each is leaked once.
pub fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut names = NAMES.lock().expect("span name table lock");
    let names = names.get_or_insert_with(HashSet::new);
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_round_trips_through_lines() {
        let mut off = Spans::new(false, 0);
        assert_eq!(off.time("mp.comm.send", 1, || 5), 5);
        assert_eq!(off.len(), 0);

        let mut on = Spans::new(true, 3);
        on.time("mp.comm.send", 1, || ());
        on.time("mp.comm.recv", 1, || ());
        let mut back = Spans::new(true, 0);
        for line in on.to_lines().lines() {
            back.push_line(line).expect("well-formed span line");
        }
        assert_eq!(back.spans, on.spans);
        assert_eq!(back.summary().len(), 2);
        let json = on.to_chrome_json();
        assert!(json.contains("\"name\":\"mp.comm.recv\""));
        assert!(json.contains("\"tid\":3"));
    }
}
