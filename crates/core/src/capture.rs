//! Thread-safe output capture.
//!
//! Every patternlet in the paper communicates its lesson through the order —
//! or deliberate disorder — of lines printed by concurrent tasks (e.g.
//! Figures 2–3, 8–9, 14–15 of the paper). To make those behaviours
//! *observable by tests* rather than only by a human watching a terminal,
//! patternlets print through a [`Sink`] instead of `println!`.
//!
//! A [`Sink`] appends to a shared [`Output`]: an append-only log of
//! [`CapturedLine`]s stamped with the emitting task and a global sequence
//! number. The CLI runner constructs an echoing sink so humans still see the
//! live interleaving; tests construct a silent one and assert ordering
//! properties over the log.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ids::TaskId;

/// One captured line of patternlet output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedLine {
    /// Global sequence number: the order in which lines were *emitted*
    /// across all tasks. Strictly increasing over the whole log.
    pub seq: u64,
    /// The task (thread number / rank) that emitted the line.
    pub task: TaskId,
    /// The text, without a trailing newline.
    pub text: String,
}

#[derive(Default)]
struct Shared {
    lines: Mutex<Vec<CapturedLine>>,
    next_seq: AtomicU64,
    /// Live echo destination, if any. Guarded by its own lock so echoes
    /// are whole lines even when many tasks emit concurrently; the echo is
    /// written inside the capture lock section, so echo order always
    /// equals capture order.
    echo: Option<Mutex<Box<dyn Write + Send>>>,
}

/// An append-only, thread-safe log of captured output lines.
///
/// Cheap to clone (it is an `Arc` underneath); all clones append to the same
/// log.
#[derive(Clone, Default)]
pub struct Output {
    shared: Arc<Shared>,
}

impl Output {
    /// A silent capture log (for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// A capture log that also echoes every line to stdout (for the CLI
    /// runner, so the live interleaving is visible like the paper's demos).
    pub fn echoing() -> Self {
        Output::echoing_to(std::io::stdout())
    }

    /// A capture log that echoes every line to an arbitrary writer. Each
    /// line is emitted as ONE `write_all` of `text\n`, so concurrent
    /// writers can never tear a line apart mid-text, and the echo stream's
    /// line order matches the capture log's.
    pub fn echoing_to(writer: impl Write + Send + 'static) -> Self {
        Output {
            shared: Arc::new(Shared {
                echo: Some(Mutex::new(Box::new(writer))),
                ..Shared::default()
            }),
        }
    }

    /// A [`Sink`] through which `task` emits lines into this log.
    pub fn sink(&self, task: impl Into<TaskId>) -> Sink {
        Sink {
            output: self.clone(),
            task: task.into(),
        }
    }

    fn push(&self, task: TaskId, text: String) {
        // seq is taken *inside* the same lock section that appends, so the
        // log order and the seq order always agree — and the echo happens
        // there too, so the echoed stream and the capture log agree.
        let mut lines = self.shared.lines.lock();
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(echo) = &self.shared.echo {
            // One write_all per line: text and newline can never be split
            // by another writer's output.
            let mut bytes = Vec::with_capacity(text.len() + 1);
            bytes.extend_from_slice(text.as_bytes());
            bytes.push(b'\n');
            let mut w = echo.lock();
            let _ = w.write_all(&bytes);
            let _ = w.flush();
        }
        lines.push(CapturedLine { seq, task, text });
    }

    /// Snapshot of all lines captured so far, in emission order.
    pub fn lines(&self) -> Vec<CapturedLine> {
        self.shared.lines.lock().clone()
    }

    /// Just the text of every line, in emission order.
    pub fn texts(&self) -> Vec<String> {
        self.shared
            .lines
            .lock()
            .iter()
            .map(|l| l.text.clone())
            .collect()
    }

    /// The lines emitted by one task, in emission order.
    pub fn lines_of(&self, task: impl Into<TaskId>) -> Vec<CapturedLine> {
        let task = task.into();
        self.shared
            .lines
            .lock()
            .iter()
            .filter(|l| l.task == task)
            .cloned()
            .collect()
    }

    /// Number of captured lines.
    pub fn len(&self) -> usize {
        self.shared.lines.lock().len()
    }

    /// True if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index (sequence position) of the first line whose text satisfies
    /// `pred`, or `None`.
    pub fn first_index_where(&self, pred: impl Fn(&str) -> bool) -> Option<usize> {
        self.shared.lines.lock().iter().position(|l| pred(&l.text))
    }

    /// Index of the last line whose text satisfies `pred`, or `None`.
    pub fn last_index_where(&self, pred: impl Fn(&str) -> bool) -> Option<usize> {
        self.shared.lines.lock().iter().rposition(|l| pred(&l.text))
    }

    /// True iff every line matching `before` was emitted earlier than every
    /// line matching `after`. This is the *barrier property* used throughout
    /// the tests for Figures 9 and 12.
    pub fn all_before(&self, before: impl Fn(&str) -> bool, after: impl Fn(&str) -> bool) -> bool {
        match (self.last_index_where(before), self.first_index_where(after)) {
            (Some(last_b), Some(first_a)) => last_b < first_a,
            // Vacuously true when either side is empty.
            _ => true,
        }
    }
}

/// A per-task handle for emitting lines into an [`Output`].
#[derive(Clone)]
pub struct Sink {
    output: Output,
    task: TaskId,
}

impl Sink {
    /// Emit one line (no trailing newline required).
    pub fn println(&self, text: impl Into<String>) {
        self.output.push(self.task, text.into());
    }

    /// The task this sink stamps onto emitted lines.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The underlying output log.
    pub fn output(&self) -> &Output {
        &self.output
    }
}

/// A sink that discards everything — for benches, where we want patternlet
/// code paths without string formatting dominated by capture overhead being
/// stored forever.
pub fn null_sink() -> Sink {
    Output::new().sink(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn captures_in_emission_order() {
        let out = Output::new();
        let s0 = out.sink(0);
        let s1 = out.sink(1);
        s0.println("a");
        s1.println("b");
        s0.println("c");
        assert_eq!(out.texts(), vec!["a", "b", "c"]);
        let lines = out.lines();
        assert_eq!(lines[0].task, TaskId(0));
        assert_eq!(lines[1].task, TaskId(1));
        assert!(lines[0].seq < lines[1].seq && lines[1].seq < lines[2].seq);
    }

    #[test]
    fn lines_of_filters_by_task() {
        let out = Output::new();
        out.sink(0).println("x");
        out.sink(1).println("y");
        out.sink(0).println("z");
        let mine = out.lines_of(0);
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].text, "x");
        assert_eq!(mine[1].text, "z");
    }

    #[test]
    fn all_before_detects_phase_separation() {
        let out = Output::new();
        let s = out.sink(0);
        s.println("BEFORE 1");
        s.println("BEFORE 2");
        s.println("AFTER 1");
        assert!(out.all_before(|t| t.contains("BEFORE"), |t| t.contains("AFTER")));

        let out2 = Output::new();
        let s2 = out2.sink(0);
        s2.println("BEFORE 1");
        s2.println("AFTER 1");
        s2.println("BEFORE 2");
        assert!(!out2.all_before(|t| t.contains("BEFORE"), |t| t.contains("AFTER")));
    }

    #[test]
    fn all_before_is_vacuous_on_empty_sides() {
        let out = Output::new();
        out.sink(0).println("AFTER");
        assert!(out.all_before(|t| t.contains("BEFORE"), |t| t.contains("AFTER")));
        assert!(out.all_before(|t| t.contains("AFTER"), |t| t.contains("BEFORE")));
    }

    #[test]
    fn concurrent_emission_is_safe_and_complete() {
        let out = Output::new();
        thread::scope(|scope| {
            for t in 0..8 {
                let sink = out.sink(t);
                scope.spawn(move || {
                    for i in 0..100 {
                        sink.println(format!("task {t} line {i}"));
                    }
                });
            }
        });
        assert_eq!(out.len(), 800);
        // Per-task order is preserved even though the global interleaving
        // is nondeterministic.
        for t in 0..8usize {
            let mine = out.lines_of(t);
            let expected: Vec<String> = (0..100).map(|i| format!("task {t} line {i}")).collect();
            let got: Vec<String> = mine.into_iter().map(|l| l.text).collect();
            assert_eq!(got, expected);
        }
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = out.lines().iter().map(|l| l.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..800u64).collect::<Vec<_>>());
    }

    /// A `Write` impl tests can share to observe exactly what the echo
    /// stream emitted, byte for byte.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn echo_never_tears_lines_under_many_writers() {
        // Regression test for output tearing: with many tasks echoing
        // concurrently, every echoed line must arrive whole, and the echo
        // stream's line order must equal the capture log's order.
        let buf = SharedBuf::default();
        let out = Output::echoing_to(buf.clone());
        thread::scope(|scope| {
            for t in 0..8 {
                let sink = out.sink(t);
                scope.spawn(move || {
                    for i in 0..100 {
                        sink.println(format!("task {t} says hello for the {i}th time"));
                    }
                });
            }
        });
        let bytes = buf.0.lock().clone();
        let echoed = String::from_utf8(bytes).expect("echo stream is valid UTF-8");
        assert!(echoed.ends_with('\n'));
        let echoed_lines: Vec<&str> = echoed.lines().collect();
        assert_eq!(echoed_lines.len(), 800);
        // No torn/interleaved fragments: each echoed line is exactly one
        // captured line, in the same order.
        assert_eq!(echoed_lines, out.texts());
    }

    #[test]
    fn echoing_to_writes_each_line_once() {
        let buf = SharedBuf::default();
        let out = Output::echoing_to(buf.clone());
        out.sink(0).println("first");
        out.sink(1).println("second");
        assert_eq!(
            String::from_utf8(buf.0.lock().clone()).unwrap(),
            "first\nsecond\n"
        );
    }

    #[test]
    fn null_sink_swallows_output() {
        let s = null_sink();
        s.println("anything");
        assert_eq!(s.output().len(), 1); // captured but never echoed
    }

    #[test]
    fn first_and_last_index() {
        let out = Output::new();
        let s = out.sink(0);
        for w in ["a", "b", "a", "c"] {
            s.println(w);
        }
        assert_eq!(out.first_index_where(|t| t == "a"), Some(0));
        assert_eq!(out.last_index_where(|t| t == "a"), Some(2));
        assert_eq!(out.first_index_where(|t| t == "zz"), None);
    }
}
