//! Happened-before analysis and critical-path extraction.
//!
//! A drained [`Trace`] (or a merged Chrome export) is rebuilt into a
//! happened-before DAG:
//!
//! - **program order** — consecutive events on one lane,
//! - **message edges** — each [`EventKind::MsgSend`] to the receive that
//!   matched it, paired by the sender's per-stream `(from, to, seq)`,
//! - **queue edges** — on each stream queue, the k-th
//!   [`EventKind::StagePop`] is gated by the k-th
//!   [`EventKind::StagePush`] (a pop of the k-th item needs at least k
//!   pushes first, so the pairing is sound even for the farm's
//!   multi-consumer work queue),
//! - **span edges** — every rank's entry into a collective (or barrier)
//!   instance happens-before every rank's exit from it.
//!
//! From the DAG the analyzer derives the *critical path*: the chain of
//! binding dependencies ending at the run's last event, where each step
//! follows the predecessor that actually gated progress (the one with
//! the latest timestamp). Each segment is attributed to a rank and a
//! cost class — compute, blocked-on-recv, or barrier-wait — which turns
//! "the run took 40µs" into "rank 2 spent 60% of the path blocked on
//! rank 0's send".
//!
//! The schedule-*independent* number is [`Analysis::max_message_depth`]:
//! the longest chain of message edges in the DAG. For a binomial-tree
//! broadcast over `np` ranks it is exactly `ceil(log2 np)` — the closed
//! form the tests (and CI) assert against real runs.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::collector::Trace;
use crate::event::EventKind;

/// How a node depends on a predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// Previous event on the same lane.
    Program,
    /// The matching send of a receive.
    Message,
    /// The stream-queue push that made a pop possible.
    Queue,
    /// A collective/barrier instance entry gating an exit.
    Span,
}

/// Analyzer-internal event: the subset of [`EventKind`] the DAG cares
/// about, with owned strings so Chrome exports can be re-ingested.
#[derive(Debug, Clone)]
enum NodeKind {
    Send { to: usize, seq: u64 },
    Recv { from: usize, seq: u64, user: bool },
    Push { queue: usize },
    Pop { queue: usize },
    SpanBegin { op: String },
    SpanEnd { op: String },
    Other { label: String },
}

#[derive(Debug, Clone)]
struct Node {
    lane: usize,
    t_ns: u64,
    kind: NodeKind,
}

/// One step of the critical path, latest first segment last.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// The rank (lane) the segment's time is charged to.
    pub rank: usize,
    /// Human label of the event the segment ends at.
    pub label: String,
    /// The segment's duration.
    pub dur_ns: u64,
    /// Cost class: `"compute"`, `"blocked-recv"`, or `"barrier"`.
    pub class: &'static str,
}

/// Per-rank totals over the whole trace (not just the critical path).
#[derive(Debug, Clone)]
pub struct RankStats {
    /// The rank (lane).
    pub rank: usize,
    /// Events the rank emitted.
    pub events: usize,
    /// When the rank's last event fired, relative to the trace start.
    pub finish_ns: u64,
    /// Estimated time blocked in receives waiting for a message that had
    /// not been sent yet (user-tag traffic only — collective-internal
    /// waits are counted as barrier time).
    pub blocked_recv_ns: u64,
    /// Time inside collective/barrier spans.
    pub barrier_ns: u64,
    /// Everything else in the rank's active span.
    pub compute_ns: u64,
}

/// The full report. Build one with [`from_trace`] or
/// [`from_chrome_json`]; render it with [`Analysis::to_json`] or
/// [`Analysis::render_text`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Total events analyzed.
    pub events: usize,
    /// Number of lanes (ranks) that emitted anything.
    pub ranks: Vec<RankStats>,
    /// Message sends seen.
    pub sends: usize,
    /// Message receives seen.
    pub recvs: usize,
    /// Receives with no matching send in the trace (lost to ring
    /// overwrites or a dead rank's missing export).
    pub unmatched_recvs: usize,
    /// Stream-queue hand-offs: pops paired with the push that made them
    /// possible (the `stream/` family's analogue of a matched message).
    pub queue_handoffs: usize,
    /// Wall-clock span from first to last event.
    pub span_ns: u64,
    /// Longest chain of message (or queue hand-off) edges in the DAG —
    /// the run's causal message depth, independent of scheduling noise.
    pub max_message_depth: usize,
    /// The happened-before graph is acyclic (always true by
    /// construction; exposed so property tests can assert it).
    pub acyclic: bool,
    /// Critical-path segments, earliest first.
    pub critical_path: Vec<PathSegment>,
    /// Total critical-path time (sum of segment durations).
    pub critical_ns: u64,
    /// Critical-path time in compute segments.
    pub critical_compute_ns: u64,
    /// Critical-path time blocked on message arrival.
    pub critical_blocked_ns: u64,
    /// Critical-path time in barrier/collective waits.
    pub critical_barrier_ns: u64,
    /// Message edges on the critical path.
    pub critical_message_hops: usize,
    /// The rank whose finish time is latest (`None` for an empty trace).
    pub straggler: Option<usize>,
    /// Finish-time spread as a fraction of the span: 0 = perfectly
    /// balanced, 0.5 = the earliest rank idled half the run.
    pub imbalance: f64,
}

/// Analyze a drained in-process [`Trace`].
pub fn from_trace(trace: &Trace) -> Analysis {
    let nodes = trace
        .events
        .iter()
        .map(|e| Node {
            lane: e.lane,
            t_ns: e.t_ns,
            kind: match &e.kind {
                EventKind::MsgSend { to, seq, .. } => NodeKind::Send { to: *to, seq: *seq },
                EventKind::MsgRecv { from, tag, seq, .. } => NodeKind::Recv {
                    from: *from,
                    seq: *seq,
                    user: *tag >= 0,
                },
                EventKind::CollBegin { op } => NodeKind::SpanBegin {
                    op: (*op).to_string(),
                },
                EventKind::CollEnd { op } => NodeKind::SpanEnd {
                    op: (*op).to_string(),
                },
                EventKind::BarrierWait => NodeKind::SpanBegin {
                    op: "barrier".to_string(),
                },
                EventKind::BarrierRelease => NodeKind::SpanEnd {
                    op: "barrier".to_string(),
                },
                EventKind::StagePush { queue, .. } => NodeKind::Push { queue: *queue },
                EventKind::StagePop { queue, .. } => NodeKind::Pop { queue: *queue },
                other => NodeKind::Other {
                    label: other.label().to_string(),
                },
            },
        })
        .collect();
    build(nodes)
}

/// Analyze a Chrome-trace JSON export — either a single rank's
/// [`crate::chrome::to_chrome_json`] output or a
/// [`crate::chrome::merge_chrome_json`] merge. Only shapes this crate
/// itself produces are understood; anything else is an error.
pub fn from_chrome_json(json: &str) -> Result<Analysis, String> {
    let events = crate::chrome::events_slice(json)
        .ok_or_else(|| "not a patternlets chrome export (no traceEvents array)".to_string())?;
    // Merged exports label each rank's process; lane identity then lives
    // in `pid`. Single-rank exports keep pid 0 and lane identity in `tid`.
    let merged = json.contains("\"process_name\"");
    let mut nodes = Vec::new();
    for rec in records(events) {
        if let Some(node) = parse_record(rec, merged) {
            nodes.push(node);
        }
    }
    // A merge interleaves whole ranks, not events: restore one global
    // time order (stable, so same-timestamp events keep file order).
    nodes.sort_by_key(|n: &Node| n.t_ns);
    Ok(build(nodes))
}

/// Split the comma-joined record list into individual `{...}` objects by
/// brace matching. The exporter's strings never contain braces, so depth
/// counting is exact.
fn records(events: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = events.as_bytes();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(&events[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

fn field_str<'a>(rec: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = rec.find(&pat)? + pat.len();
    let end = rec[start..].find('"')?;
    Some(&rec[start..start + end])
}

fn field_u64(rec: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = rec.find(&pat)? + pat.len();
    let digits: String = rec[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn field_i64(rec: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let start = rec.find(&pat)? + pat.len();
    let digits: String = rec[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// A record's `"ts"` (the exporter's `{µs}.{3-digit ns}` shape) in ns.
fn ts_ns(rec: &str) -> Option<u64> {
    let start = rec.find("\"ts\":")? + "\"ts\":".len();
    let end = rec[start..]
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rec.len() - start);
    crate::chrome::parse_ts_ns(&rec[start..start + end])
}

fn parse_record(rec: &str, merged: bool) -> Option<Node> {
    let ph = field_str(rec, "ph")?;
    // Metadata and flow records carry no DAG information of their own.
    if matches!(ph, "M" | "s" | "f") {
        return None;
    }
    let name = field_str(rec, "name")?;
    let lane = if merged {
        field_u64(rec, "pid")? as usize
    } else {
        field_u64(rec, "tid")? as usize
    };
    let t_ns = ts_ns(rec)?;
    let cat = field_str(rec, "cat").unwrap_or("");
    let kind = match (ph, name, cat) {
        ("i", "send", _) => NodeKind::Send {
            to: field_u64(rec, "to")? as usize,
            seq: field_u64(rec, "seq")?,
        },
        ("i", "recv", _) => NodeKind::Recv {
            from: field_u64(rec, "from")? as usize,
            seq: field_u64(rec, "seq")?,
            user: field_i64(rec, "tag").is_some_and(|t| t >= 0),
        },
        ("i", "stage-push", _) => NodeKind::Push {
            queue: field_u64(rec, "queue")? as usize,
        },
        ("i", "stage-pop", _) => NodeKind::Pop {
            queue: field_u64(rec, "queue")? as usize,
        },
        ("B", _, "collective") | ("B", _, "sync") => NodeKind::SpanBegin {
            op: name.to_string(),
        },
        ("E", _, "collective") | ("E", _, "sync") => NodeKind::SpanEnd {
            op: name.to_string(),
        },
        _ => NodeKind::Other {
            label: name.to_string(),
        },
    };
    Some(Node { lane, t_ns, kind })
}

/// Build the DAG and derive everything. Every edge points from a lower
/// node index to a higher one (indices follow global order), so the
/// graph is acyclic by construction; edges a clock-skewed merge would
/// invert are dropped rather than allowed to create cycles.
fn build(mut nodes: Vec<Node>) -> Analysis {
    let n = nodes.len();
    if n == 0 {
        return Analysis {
            events: 0,
            ranks: Vec::new(),
            sends: 0,
            recvs: 0,
            unmatched_recvs: 0,
            queue_handoffs: 0,
            span_ns: 0,
            max_message_depth: 0,
            acyclic: true,
            critical_path: Vec::new(),
            critical_ns: 0,
            critical_compute_ns: 0,
            critical_blocked_ns: 0,
            critical_barrier_ns: 0,
            critical_message_hops: 0,
            straggler: None,
            imbalance: 0.0,
        };
    }
    let t0 = nodes.iter().map(|e| e.t_ns).min().unwrap_or(0);
    for node in &mut nodes {
        node.t_ns -= t0;
    }

    // Program order.
    let mut preds: Vec<Vec<(usize, Edge)>> = vec![Vec::new(); n];
    let mut lanes: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let lane = lanes.entry(node.lane).or_default();
        if let Some(&prev) = lane.last() {
            preds[i].push((prev, Edge::Program));
        }
        lane.push(i);
    }

    // Message edges: (sender, receiver, per-stream seq) is unique.
    let mut sends_by_key: HashMap<(usize, usize, u64), usize> = HashMap::new();
    let (mut sends, mut recvs, mut unmatched) = (0usize, 0usize, 0usize);
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Send { to, seq } = node.kind {
            sends += 1;
            sends_by_key.insert((node.lane, to, seq), i);
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Recv { from, seq, .. } = node.kind {
            recvs += 1;
            match sends_by_key.get(&(from, node.lane, seq)) {
                Some(&s) if s < i => preds[i].push((s, Edge::Message)),
                Some(_) => {} // clock-skew inversion: matched, edge dropped
                None => unmatched += 1,
            }
        }
    }

    // Queue edges: on one queue, the k-th pop can only happen after at
    // least k pushes, so push #k happens-before pop #k — sound even for
    // a multi-consumer work queue, where pops need not take items in
    // push order, and exact for the FIFO pipeline edges. The per-item
    // stage events (one push/pop record per item regardless of batching)
    // are what make the cumulative count a valid pairing key.
    let mut pushes_by_key: HashMap<(usize, usize), usize> = HashMap::new();
    let mut push_count: HashMap<usize, usize> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Push { queue } = node.kind {
            let k = push_count.entry(queue).or_default();
            pushes_by_key.insert((queue, *k), i);
            *k += 1;
        }
    }
    let mut pop_count: HashMap<usize, usize> = HashMap::new();
    let mut pop_match: HashMap<usize, usize> = HashMap::new();
    let mut handoffs = 0usize;
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Pop { queue } = node.kind {
            let k = pop_count.entry(queue).or_default();
            if let Some(&p) = pushes_by_key.get(&(queue, *k)) {
                handoffs += 1;
                pop_match.insert(i, p);
                if p < i {
                    preds[i].push((p, Edge::Queue));
                }
            }
            *k += 1;
        }
    }

    // Span edges: the k-th instance of op on every lane is one
    // collective — each lane's entry gates every lane's exit. (SPMD
    // patternlets hit collectives in lockstep per lane, which is what
    // makes occurrence-counting a sound instance id.)
    let mut begin_count: HashMap<(usize, String), usize> = HashMap::new();
    let mut end_count: HashMap<(usize, String), usize> = HashMap::new();
    let mut begins: HashMap<(String, usize), Vec<usize>> = HashMap::new();
    let mut ends: HashMap<(String, usize), Vec<usize>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        match &node.kind {
            NodeKind::SpanBegin { op } => {
                let k = begin_count.entry((node.lane, op.clone())).or_default();
                begins.entry((op.clone(), *k)).or_default().push(i);
                *k += 1;
            }
            NodeKind::SpanEnd { op } => {
                let k = end_count.entry((node.lane, op.clone())).or_default();
                ends.entry((op.clone(), *k)).or_default().push(i);
                *k += 1;
            }
            _ => {}
        }
    }
    for (key, exits) in &ends {
        let Some(entries) = begins.get(key) else {
            continue;
        };
        for &e in exits {
            for &b in entries {
                if b < e && nodes[b].lane != nodes[e].lane {
                    preds[e].push((b, Edge::Span));
                }
            }
        }
    }

    // Message-depth DP in index order (every edge goes forward, so index
    // order *is* a topological order) — and a Kahn pass to certify it.
    let mut depth = vec![0usize; n];
    for i in 0..n {
        for &(p, edge) in &preds[i] {
            let d = depth[p] + usize::from(matches!(edge, Edge::Message | Edge::Queue));
            depth[i] = depth[i].max(d);
        }
    }
    let max_message_depth = depth.iter().copied().max().unwrap_or(0);
    let acyclic = certify_acyclic(n, &preds);

    // Critical path: walk binding predecessors back from the last event.
    let last = (0..n)
        .max_by_key(|&i| (nodes[i].t_ns, i))
        .expect("nonempty");
    let mut path = Vec::new();
    let mut cur = last;
    let (mut c_compute, mut c_blocked, mut c_barrier, mut hops) = (0u64, 0u64, 0u64, 0usize);
    while let Some(&(pred, edge)) = preds[cur].iter().max_by_key(|&&(p, _)| (nodes[p].t_ns, p)) {
        let dur = nodes[cur].t_ns.saturating_sub(nodes[pred].t_ns);
        let class = match (edge, &nodes[cur].kind) {
            (Edge::Message | Edge::Queue, _) => {
                hops += 1;
                c_blocked += dur;
                "blocked-recv"
            }
            (Edge::Span, _) => {
                c_barrier += dur;
                "barrier"
            }
            (Edge::Program, NodeKind::SpanEnd { op }) => {
                // Bound by its own entry: the whole segment was a wait.
                if matches!(&nodes[pred].kind, NodeKind::SpanBegin { op: p } if p == op) {
                    c_barrier += dur;
                    "barrier"
                } else {
                    c_compute += dur;
                    "compute"
                }
            }
            (Edge::Program, _) => {
                c_compute += dur;
                "compute"
            }
        };
        path.push(PathSegment {
            rank: nodes[cur].lane,
            label: label(&nodes[cur].kind),
            dur_ns: dur,
            class,
        });
        cur = pred;
    }
    path.reverse();
    let critical_ns = c_compute + c_blocked + c_barrier;

    // Per-rank totals.
    let mut rank_ids: Vec<usize> = lanes.keys().copied().collect();
    rank_ids.sort_unstable();
    let mut ranks = Vec::with_capacity(rank_ids.len());
    for lane in rank_ids {
        let idxs = &lanes[&lane];
        let first = nodes[idxs[0]].t_ns;
        let finish = nodes[*idxs.last().expect("nonempty lane")].t_ns;
        let mut barrier = 0u64;
        let mut open: HashMap<&str, Vec<u64>> = HashMap::new();
        let mut blocked = 0u64;
        let mut prev_t = first;
        for &i in idxs {
            match &nodes[i].kind {
                NodeKind::SpanBegin { op } => {
                    open.entry(op.as_str()).or_default().push(nodes[i].t_ns)
                }
                NodeKind::SpanEnd { op } => {
                    if let Some(begin) = open.get_mut(op.as_str()).and_then(Vec::pop) {
                        barrier += nodes[i].t_ns.saturating_sub(begin);
                    }
                }
                NodeKind::Recv { from, seq, user } if *user => {
                    if let Some(&s) = sends_by_key.get(&(*from, lane, *seq)) {
                        let ready = nodes[s].t_ns.max(prev_t);
                        blocked += nodes[i].t_ns.saturating_sub(ready);
                    }
                }
                NodeKind::Pop { .. } => {
                    if let Some(&p) = pop_match.get(&i) {
                        let ready = nodes[p].t_ns.max(prev_t);
                        blocked += nodes[i].t_ns.saturating_sub(ready);
                    }
                }
                _ => {}
            }
            prev_t = nodes[i].t_ns;
        }
        let span = finish.saturating_sub(first);
        ranks.push(RankStats {
            rank: lane,
            events: idxs.len(),
            finish_ns: finish,
            blocked_recv_ns: blocked,
            barrier_ns: barrier,
            compute_ns: span.saturating_sub(barrier).saturating_sub(blocked),
        });
    }

    let span_ns = nodes.iter().map(|e| e.t_ns).max().unwrap_or(0);
    let straggler = ranks
        .iter()
        .max_by_key(|r| (r.finish_ns, r.rank))
        .map(|r| r.rank);
    let min_finish = ranks.iter().map(|r| r.finish_ns).min().unwrap_or(0);
    let max_finish = ranks.iter().map(|r| r.finish_ns).max().unwrap_or(0);
    let imbalance = if max_finish > 0 {
        (max_finish - min_finish) as f64 / max_finish as f64
    } else {
        0.0
    };

    Analysis {
        events: n,
        ranks,
        sends,
        recvs,
        unmatched_recvs: unmatched,
        queue_handoffs: handoffs,
        span_ns,
        max_message_depth,
        acyclic,
        critical_path: path,
        critical_ns,
        critical_compute_ns: c_compute,
        critical_blocked_ns: c_blocked,
        critical_barrier_ns: c_barrier,
        critical_message_hops: hops,
        straggler,
        imbalance,
    }
}

/// Kahn's algorithm as an independent acyclicity certificate (the
/// index-order invariant should make this trivially true; property tests
/// assert it stays that way).
fn certify_acyclic(n: usize, preds: &[Vec<(usize, Edge)>]) -> bool {
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        indegree[i] = ps.len();
        for &(p, _) in ps {
            succs[p].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(i) = ready.pop() {
        seen += 1;
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    seen == n
}

fn label(kind: &NodeKind) -> String {
    match kind {
        NodeKind::Send { to, .. } => format!("send→{to}"),
        NodeKind::Recv { from, .. } => format!("recv←{from}"),
        NodeKind::Push { queue } => format!("push q{queue}"),
        NodeKind::Pop { queue } => format!("pop q{queue}"),
        NodeKind::SpanBegin { op } => format!("{op} begin"),
        NodeKind::SpanEnd { op } => format!("{op} end"),
        NodeKind::Other { label } => label.clone(),
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

impl Analysis {
    /// Render the report as JSON (hand-rolled; every string in it comes
    /// from this crate's fixed vocabulary, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"events\":{},\"sends\":{},\"recvs\":{},\"unmatchedRecvs\":{},\
             \"queueHandoffs\":{},\"spanNs\":{},\"maxMessageDepth\":{},\"acyclic\":{},",
            self.events,
            self.sends,
            self.recvs,
            self.unmatched_recvs,
            self.queue_handoffs,
            self.span_ns,
            self.max_message_depth,
            self.acyclic,
        );
        let _ = write!(
            out,
            "\"criticalPath\":{{\"totalNs\":{},\"computeNs\":{},\"blockedRecvNs\":{},\
             \"barrierNs\":{},\"messageHops\":{},\"segments\":[",
            self.critical_ns,
            self.critical_compute_ns,
            self.critical_blocked_ns,
            self.critical_barrier_ns,
            self.critical_message_hops,
        );
        for (i, seg) in self.critical_path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"label\":\"{}\",\"durNs\":{},\"class\":\"{}\"}}",
                seg.rank, seg.label, seg.dur_ns, seg.class
            );
        }
        out.push_str("]},\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"events\":{},\"finishNs\":{},\"computeNs\":{},\
                 \"blockedRecvNs\":{},\"barrierNs\":{}}}",
                r.rank, r.events, r.finish_ns, r.compute_ns, r.blocked_recv_ns, r.barrier_ns
            );
        }
        let _ = write!(
            out,
            "],\"straggler\":{},\"imbalance\":{:.4}}}",
            self.straggler.map_or("null".to_string(), |r| r.to_string()),
            self.imbalance,
        );
        out
    }

    /// Render the report as a human-readable text block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: {} ({} sends, {} recvs{}{}) over {} rank(s), span {:.1}µs",
            self.events,
            self.sends,
            self.recvs,
            if self.unmatched_recvs > 0 {
                format!(", {} unmatched", self.unmatched_recvs)
            } else {
                String::new()
            },
            if self.queue_handoffs > 0 {
                format!(", {} queue hand-offs", self.queue_handoffs)
            } else {
                String::new()
            },
            self.ranks.len(),
            self.span_ns as f64 / 1_000.0,
        );
        let _ = writeln!(
            out,
            "critical path: {:.1}µs = compute {:.1}µs ({:.0}%) + blocked-recv {:.1}µs ({:.0}%) \
             + barrier {:.1}µs ({:.0}%), {} message hop(s)",
            self.critical_ns as f64 / 1_000.0,
            self.critical_compute_ns as f64 / 1_000.0,
            pct(self.critical_compute_ns, self.critical_ns),
            self.critical_blocked_ns as f64 / 1_000.0,
            pct(self.critical_blocked_ns, self.critical_ns),
            self.critical_barrier_ns as f64 / 1_000.0,
            pct(self.critical_barrier_ns, self.critical_ns),
            self.critical_message_hops,
        );
        let _ = writeln!(out, "max message depth: {}", self.max_message_depth);
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "rank", "events", "finish(µs)", "compute(µs)", "blocked(µs)", "barrier(µs)"
        );
        for r in &self.ranks {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                r.rank,
                r.events,
                r.finish_ns as f64 / 1_000.0,
                r.compute_ns as f64 / 1_000.0,
                r.blocked_recv_ns as f64 / 1_000.0,
                r.barrier_ns as f64 / 1_000.0,
            );
        }
        if let Some(straggler) = self.straggler {
            let _ = writeln!(
                out,
                "straggler: rank {straggler} (finish spread {:.0}% of span)",
                self.imbalance * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Tracer;
    use crate::event::TraceEvent;

    fn ev(lane: usize, seq: u64, t_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            lane,
            seq,
            t_ns,
            kind,
        }
    }

    /// A deterministic binomial broadcast over 4 ranks, one hop = 10µs:
    /// 0→1 then {0→2, 1→3}. Depth must be 2, not 3 (sends count once).
    fn bcast4() -> Trace {
        let h = 10_000u64;
        Trace {
            events: vec![
                ev(
                    0,
                    0,
                    0,
                    EventKind::MsgSend {
                        to: 1,
                        tag: -3,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    1,
                    1,
                    h,
                    EventKind::MsgRecv {
                        from: 0,
                        tag: -3,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    0,
                    2,
                    h,
                    EventKind::MsgSend {
                        to: 2,
                        tag: -3,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    1,
                    3,
                    h,
                    EventKind::MsgSend {
                        to: 3,
                        tag: -3,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    2,
                    4,
                    2 * h,
                    EventKind::MsgRecv {
                        from: 0,
                        tag: -3,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    3,
                    5,
                    2 * h,
                    EventKind::MsgRecv {
                        from: 1,
                        tag: -3,
                        bytes: 8,
                        seq: 0,
                    },
                ),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn broadcast_depth_matches_the_closed_form() {
        let analysis = from_trace(&bcast4());
        assert_eq!(analysis.max_message_depth, 2, "ceil(log2 4) hops");
        assert_eq!(analysis.critical_message_hops, 2);
        assert_eq!(analysis.critical_ns, 20_000);
        assert_eq!(analysis.critical_blocked_ns, 20_000);
        assert_eq!(analysis.sends, 3);
        assert_eq!(analysis.recvs, 3);
        assert_eq!(analysis.unmatched_recvs, 0);
        assert!(analysis.acyclic);
    }

    #[test]
    fn pipeline_critical_path_is_the_stage_sum() {
        // 3 ranks, fixed 5µs stage cost, one item: 0 works then sends to
        // 1, 1 works then sends to 2, 2 works. Critical path = 3 stages
        // + 2 hops. Timestamps make work 5µs and hops free.
        let w = 5_000u64;
        let trace = Trace {
            events: vec![
                ev(0, 0, 0, EventKind::CollBegin { op: "stage" }),
                ev(0, 1, w, EventKind::CollEnd { op: "stage" }),
                ev(
                    0,
                    2,
                    w,
                    EventKind::MsgSend {
                        to: 1,
                        tag: 1,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    1,
                    3,
                    w,
                    EventKind::MsgRecv {
                        from: 0,
                        tag: 1,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    1,
                    4,
                    2 * w,
                    EventKind::MsgSend {
                        to: 2,
                        tag: 1,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(
                    2,
                    5,
                    2 * w,
                    EventKind::MsgRecv {
                        from: 1,
                        tag: 1,
                        bytes: 8,
                        seq: 0,
                    },
                ),
                ev(2, 6, 3 * w, EventKind::ChunkClaim { start: 0, len: 1 }),
            ],
            dropped: 0,
        };
        let analysis = from_trace(&trace);
        assert_eq!(analysis.critical_ns, 3 * w);
        assert_eq!(analysis.critical_message_hops, 2);
        assert_eq!(analysis.max_message_depth, 2);
        assert_eq!(analysis.straggler, Some(2));
    }

    #[test]
    fn barrier_wait_is_attributed_to_the_waiting_rank() {
        // Rank 0 arrives at t=1µs, rank 1 at t=9µs; both release at 10µs.
        let trace = Trace {
            events: vec![
                ev(0, 0, 1_000, EventKind::BarrierWait),
                ev(1, 1, 9_000, EventKind::BarrierWait),
                ev(0, 2, 10_000, EventKind::BarrierRelease),
                ev(1, 3, 10_000, EventKind::BarrierRelease),
            ],
            dropped: 0,
        };
        let analysis = from_trace(&trace);
        // Rank 0's release is bound by rank 1's late arrival (span edge).
        assert!(analysis.critical_barrier_ns > 0);
        let r0 = &analysis.ranks[0];
        assert_eq!(r0.barrier_ns, 9_000);
        assert_eq!(analysis.ranks[1].barrier_ns, 1_000);
    }

    #[test]
    fn unmatched_recvs_are_counted_not_fatal() {
        let trace = Trace {
            events: vec![ev(
                1,
                0,
                5,
                EventKind::MsgRecv {
                    from: 0,
                    tag: 3,
                    bytes: 1,
                    seq: 9,
                },
            )],
            dropped: 0,
        };
        let analysis = from_trace(&trace);
        assert_eq!(analysis.unmatched_recvs, 1);
        assert!(analysis.acyclic);
    }

    #[test]
    fn chrome_round_trip_preserves_the_analysis() {
        let direct = from_trace(&bcast4());
        let json = crate::chrome::to_chrome_json(&bcast4());
        let parsed = from_chrome_json(&json).expect("own export parses");
        assert_eq!(parsed.events, direct.events);
        assert_eq!(parsed.sends, direct.sends);
        assert_eq!(parsed.recvs, direct.recvs);
        assert_eq!(parsed.max_message_depth, direct.max_message_depth);
        assert_eq!(parsed.critical_ns, direct.critical_ns);
        assert_eq!(parsed.unmatched_recvs, 0);
    }

    #[test]
    fn merged_chrome_export_analyzes_across_ranks() {
        // Two single-lane ranks exported separately, then merged: the
        // message edge must stitch across the pid boundary.
        let t0 = Tracer::new();
        t0.emit(
            0,
            EventKind::MsgSend {
                to: 1,
                tag: 4,
                bytes: 8,
                seq: 0,
            },
        );
        let mut a = t0.drain();
        a.events[0].t_ns = 1_000;
        let t1 = Tracer::new();
        t1.emit(
            1,
            EventKind::MsgRecv {
                from: 0,
                tag: 4,
                bytes: 8,
                seq: 0,
            },
        );
        let mut b = t1.drain();
        b.events[0].t_ns = 3_000;
        let json = crate::chrome::merge_chrome_json([
            (0, crate::chrome::to_chrome_json(&a).as_str()),
            (1, crate::chrome::to_chrome_json(&b).as_str()),
        ]);
        let analysis = from_chrome_json(&json).expect("merge parses");
        assert_eq!(analysis.ranks.len(), 2);
        assert_eq!(analysis.unmatched_recvs, 0);
        assert_eq!(analysis.max_message_depth, 1);
        assert_eq!(analysis.critical_message_hops, 1);
    }

    #[test]
    fn garbage_json_is_an_error_not_a_panic() {
        assert!(from_chrome_json("not json at all").is_err());
        assert!(from_chrome_json("{\"traceEvents\":").is_err());
    }

    #[test]
    fn report_renders_both_ways() {
        let analysis = from_trace(&bcast4());
        let json = analysis.to_json();
        assert!(json.contains("\"maxMessageDepth\":2"));
        assert!(json.contains("\"criticalPath\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = analysis.render_text();
        assert!(text.contains("max message depth: 2"));
        assert!(text.contains("critical path"));
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let analysis = from_trace(&Trace::default());
        assert_eq!(analysis.events, 0);
        assert_eq!(analysis.straggler, None);
        assert!(analysis.acyclic);
        assert!(analysis.to_json().contains("\"straggler\":null"));
    }
}
