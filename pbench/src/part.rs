//! What one world or one child process measured. The message workloads'
//! rank 0 and the stream workload's child processes write it as text
//! lines, and the run reads it back:
//!
//! ```text
//! checked 5163
//! failure round 17: 4096 B echo differs
//! sample setup 41187350 40080123.5
//! sample rtt_4KiB 201625 196200.3
//! reference handoff 301872
//! detail hub.msgs_recv 61023 count 0
//! span mp.comm.send 4242 0 1792114867806000000 1021 17
//! ```

use crate::report::Metric;
use crate::spans::{intern, Spans};

/// The sample name of a set-up.
pub const SETUP: &str = "setup";

/// One timed operation, or a set-up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Its class: what the operation was (`rtt_8B`, `burst`, `farm`), or
    /// [`SETUP`].
    pub name: &'static str,
    /// Its time as measured: the CPU time its processes spent, in ns.
    pub raw_ns: u64,
    /// Its time at the reference speed, in ns (see `reference`).
    pub ns: f64,
}

/// Checked operations, failures, timed samples, reference times,
/// breakdown rows and spans.
pub struct Part {
    /// Operations whose output was checked.
    pub checked: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Timed samples, in the order they were taken.
    pub samples: Vec<Sample>,
    /// Every reference time taken: its kind and the time in ns.
    pub references: Vec<(&'static str, f64)>,
    /// Breakdown rows (counters of an attached metrics hub).
    pub details: Vec<Metric>,
    /// Spans of the calls made (traced runs only).
    pub spans: Spans,
}

/// The units a breakdown row can carry across a process boundary.
const UNITS: [&str; 6] = ["ns", "us", "ms", "1/s", "count", "ratio"];

impl Part {
    /// An empty part; spans are kept when `traced`.
    pub fn new(traced: bool) -> Part {
        Part {
            checked: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            references: Vec::new(),
            details: Vec::new(),
            spans: Spans::new(traced, 0),
        }
    }

    /// Record `ops` checked operations and why each that failed did.
    pub fn check(&mut self, ops: u64, failures: impl IntoIterator<Item = String>) {
        self.checked += ops;
        self.failures.extend(failures);
    }

    /// Record one timed operation of class `name` that took `raw_ns`,
    /// scaled by `scale` to the reference speed.
    pub fn sample(&mut self, name: &'static str, raw_ns: u64, scale: f64) {
        self.samples.push(Sample {
            name,
            raw_ns,
            ns: raw_ns as f64 * scale,
        });
    }

    /// The text form.
    pub fn to_text(&self) -> String {
        let mut text = format!("checked {}\n", self.checked);
        for f in &self.failures {
            text.push_str(&format!("failure {}\n", f.replace('\n', " ")));
        }
        for s in &self.samples {
            text.push_str(&format!("sample {} {} {}\n", s.name, s.raw_ns, s.ns));
        }
        for (kind, ns) in &self.references {
            text.push_str(&format!("reference {kind} {ns}\n"));
        }
        for m in &self.details {
            text.push_str(&format!(
                "detail {} {} {} {}\n",
                m.name, m.value, m.unit, m.n
            ));
        }
        text.push_str(&self.spans.to_lines());
        text
    }

    /// Parse the text form.
    pub fn from_text(text: &str, traced: bool) -> Result<Part, String> {
        let mut part = Part::new(traced);
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let parsed = match f[..] {
                ["checked", n] => n.parse().ok().map(|n| part.checked = n),
                ["failure", ..] => {
                    part.failures.push(line["failure ".len()..].to_string());
                    Some(())
                }
                ["sample", name, raw, ns] => match (raw.parse(), ns.parse()) {
                    (Ok(raw_ns), Ok(ns)) => {
                        part.samples.push(Sample {
                            name: intern(name),
                            raw_ns,
                            ns,
                        });
                        Some(())
                    }
                    _ => None,
                },
                ["reference", kind, ns] => ns
                    .parse()
                    .ok()
                    .map(|ns| part.references.push((intern(kind), ns))),
                ["detail", name, value, unit, n] => {
                    let unit = UNITS.iter().find(|&&u| u == unit);
                    match (value.parse(), unit, n.parse()) {
                        (Ok(v), Some(unit), Ok(n)) => {
                            part.details.push(Metric::new(name, v, unit, n));
                            Some(())
                        }
                        _ => None,
                    }
                }
                ["span", ..] => part.spans.push_line(line),
                _ => None,
            };
            parsed.ok_or_else(|| format!("malformed measurement line {line:?}"))?;
        }
        Ok(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_form_round_trips() {
        let mut part = Part::new(true);
        part.check(1, None);
        part.check(1, Some("round 3: echo\ndiffers".into()));
        part.sample("rtt_8B", 3100, 0.5);
        part.sample("burst", 91000, 1.25);
        part.references.push(("handoff", 301_872.0));
        part.details
            .push(Metric::new("hub.msgs_recv", 12.0, "count", 0));
        part.spans.time("mp.comm.send", 3, || ());
        let back = Part::from_text(&part.to_text(), true).expect("parses");
        assert_eq!(back.checked, 2);
        assert_eq!(back.failures, ["round 3: echo differs"]);
        assert_eq!(back.samples, part.samples);
        assert_eq!(back.samples[0].ns, 1550.0);
        assert_eq!(back.references, [("handoff", 301_872.0)]);
        assert_eq!(back.details[0].unit, "count");
        assert_eq!(back.spans.len(), 1);
        assert!(Part::from_text("sample rtt_8B x 1", false).is_err());
    }
}
