//! Rendering a [`MetricsSnapshot`] for humans and for Prometheus.
//!
//! [`render_prometheus`] emits the Prometheus *text exposition format*
//! (version 0.0.4) by hand — `# HELP` / `# TYPE` headers, one series per
//! lane, cumulative `le` buckets with a closing `+Inf` — so `pmrun
//! --metrics-port` needs no client library. [`render_summary`] is the
//! end-of-run table behind `patternlets run --metrics`, and
//! [`render_counters`] the one behind `--counters`; `pmrun` renders both
//! from its ranks' merged reports.

use crate::{CounterId, GaugeId, HistData, HistId, MetricsSnapshot, COLL_OPS};

/// A Prometheus metric family backed by one or more counters that differ
/// only in a label value.
struct CounterGroup {
    metric: &'static str,
    help: &'static str,
    /// Label naming the lane dimension (`rank`, `thread`, or `peer`).
    lane_label: &'static str,
    /// `(counter, extra label pair or "")`.
    members: &'static [(CounterId, &'static str)],
}

/// `(schedule name, chunks counter, iterations counter)` — the shmem loop
/// instruments, one pair per `Schedule` kind.
const SCHEDULES: [(&str, CounterId, CounterId); 5] = [
    (
        "static-block",
        CounterId::ChunksStaticBlock,
        CounterId::ItersStaticBlock,
    ),
    (
        "static-cyclic",
        CounterId::ChunksStaticCyclic,
        CounterId::ItersStaticCyclic,
    ),
    (
        "static-chunked",
        CounterId::ChunksStaticChunked,
        CounterId::ItersStaticChunked,
    ),
    ("dynamic", CounterId::ChunksDynamic, CounterId::ItersDynamic),
    ("guided", CounterId::ChunksGuided, CounterId::ItersGuided),
];

const COUNTER_GROUPS: &[CounterGroup] = &[
    CounterGroup {
        metric: "patternlets_msgs_sent_total",
        help: "Messages sent, by payload representation",
        lane_label: "rank",
        members: &[
            (CounterId::MsgsSentInproc, "repr=\"inproc\""),
            (CounterId::MsgsSentEncoded, "repr=\"encoded\""),
            (CounterId::MsgsSentInline, "repr=\"inline\""),
        ],
    },
    CounterGroup {
        metric: "patternlets_bytes_sent_total",
        help: "Payload bytes sent",
        lane_label: "rank",
        members: &[(CounterId::BytesSent, "")],
    },
    CounterGroup {
        metric: "patternlets_msgs_recv_total",
        help: "Messages matched by a receive (each logical message once)",
        lane_label: "rank",
        members: &[(CounterId::MsgsRecv, "")],
    },
    CounterGroup {
        metric: "patternlets_bytes_recv_total",
        help: "Payload bytes received",
        lane_label: "rank",
        members: &[(CounterId::BytesRecv, "")],
    },
    CounterGroup {
        metric: "patternlets_recv_waits_total",
        help: "Blocking receives, by how the wait resolved",
        lane_label: "rank",
        members: &[
            (CounterId::RecvSpin, "resolved=\"spin\""),
            (CounterId::RecvPark, "resolved=\"park\""),
        ],
    },
    CounterGroup {
        metric: "patternlets_retransmits_total",
        help: "Chaos-transport retransmissions (extra transmissions)",
        lane_label: "rank",
        members: &[(CounterId::Retransmits, "")],
    },
    CounterGroup {
        metric: "patternlets_dup_drops_total",
        help: "Duplicate envelopes swallowed by mailbox dedup",
        lane_label: "rank",
        members: &[(CounterId::DupDrops, "")],
    },
    CounterGroup {
        metric: "patternlets_loop_chunks_total",
        help: "Loop chunks claimed, by schedule",
        lane_label: "thread",
        members: &[
            (CounterId::ChunksStaticBlock, "schedule=\"static-block\""),
            (CounterId::ChunksStaticCyclic, "schedule=\"static-cyclic\""),
            (
                CounterId::ChunksStaticChunked,
                "schedule=\"static-chunked\"",
            ),
            (CounterId::ChunksDynamic, "schedule=\"dynamic\""),
            (CounterId::ChunksGuided, "schedule=\"guided\""),
        ],
    },
    CounterGroup {
        metric: "patternlets_loop_iterations_total",
        help: "Loop iterations executed, by schedule",
        lane_label: "thread",
        members: &[
            (CounterId::ItersStaticBlock, "schedule=\"static-block\""),
            (CounterId::ItersStaticCyclic, "schedule=\"static-cyclic\""),
            (CounterId::ItersStaticChunked, "schedule=\"static-chunked\""),
            (CounterId::ItersDynamic, "schedule=\"dynamic\""),
            (CounterId::ItersGuided, "schedule=\"guided\""),
        ],
    },
    CounterGroup {
        metric: "patternlets_net_frames_sent_total",
        help: "Wire frames written by the TCP fabric",
        lane_label: "rank",
        members: &[(CounterId::NetFramesSent, "")],
    },
    CounterGroup {
        metric: "patternlets_net_bytes_to_peer_total",
        help: "Wire bytes sent, attributed to the destination peer",
        lane_label: "peer",
        members: &[(CounterId::NetBytesToPeer, "")],
    },
    CounterGroup {
        metric: "patternlets_net_reconnects_total",
        help: "Peer connections re-established after the initial mesh",
        lane_label: "rank",
        members: &[(CounterId::NetReconnects, "")],
    },
    CounterGroup {
        metric: "patternlets_net_rank_failures_total",
        help: "Ranks declared failed by the liveness layer",
        lane_label: "rank",
        members: &[(CounterId::NetRankFailures, "")],
    },
    CounterGroup {
        metric: "patternlets_net_heartbeats_total",
        help: "Heartbeat pings sent",
        lane_label: "rank",
        members: &[(CounterId::NetHeartbeats, "")],
    },
    CounterGroup {
        metric: "patternlets_net_frames_replayed_total",
        help: "Wire frames replayed from a send ring after a reconnect",
        lane_label: "rank",
        members: &[(CounterId::NetFramesReplayed, "")],
    },
    CounterGroup {
        metric: "patternlets_net_crc_rejects_total",
        help: "Wire frames rejected for a CRC mismatch",
        lane_label: "rank",
        members: &[(CounterId::NetCrcRejects, "")],
    },
    CounterGroup {
        metric: "patternlets_checkpoints_total",
        help: "Checkpoints written",
        lane_label: "rank",
        members: &[(CounterId::CheckpointsTaken, "")],
    },
    CounterGroup {
        metric: "patternlets_checkpoint_bytes_total",
        help: "Bytes written to checkpoint files",
        lane_label: "rank",
        members: &[(CounterId::CheckpointBytes, "")],
    },
    CounterGroup {
        metric: "patternlets_stream_items_total",
        help: "Items through a stream channel, by direction",
        lane_label: "queue",
        members: &[
            (CounterId::StreamItemsIn, "dir=\"in\""),
            (CounterId::StreamItemsOut, "dir=\"out\""),
        ],
    },
    CounterGroup {
        metric: "patternlets_shm_sends_total",
        help: "Frames pushed into shared-memory rings, by destination peer",
        lane_label: "peer",
        members: &[(CounterId::ShmSends, "")],
    },
    CounterGroup {
        metric: "patternlets_shm_full_spins_total",
        help: "Spin iterations waiting on a full or empty shm ring",
        lane_label: "rank",
        members: &[(CounterId::ShmFullSpins, "")],
    },
    CounterGroup {
        metric: "patternlets_shm_doorbell_parks_total",
        help: "Doorbell parks (futex sleeps) on a full or empty shm ring",
        lane_label: "rank",
        members: &[(CounterId::ShmDoorbellParks, "")],
    },
    CounterGroup {
        metric: "patternlets_spsc_waits_total",
        help: "SPSC ring waits (shm byte ring / stream edge), by how the wait resolved",
        lane_label: "lane",
        members: &[
            (CounterId::SpscSpinWaits, "resolved=\"spin\""),
            (CounterId::SpscParkWaits, "resolved=\"park\""),
        ],
    },
];

/// `(metric name, help)` for each fixed histogram.
const FIXED_HIST_META: [(HistId, &str, &str); 5] = [
    (
        HistId::BARRIER_WAIT_NS,
        "patternlets_barrier_wait_ns",
        "Nanoseconds a thread waited inside a team barrier",
    ),
    (
        HistId::WRITEV_BATCH_FRAMES,
        "patternlets_writev_batch_frames",
        "Frames coalesced into one vectored write",
    ),
    (
        HistId::HEARTBEAT_RTT_NS,
        "patternlets_heartbeat_rtt_ns",
        "Heartbeat round-trip nanoseconds",
    ),
    (
        HistId::SEND_BYTES,
        "patternlets_send_bytes",
        "Per-message payload bytes at the sender",
    ),
    (
        HistId::CHECKPOINT_NS,
        "patternlets_checkpoint_ns",
        "Nanoseconds spent writing one checkpoint",
    ),
];

// ---------------------------------------------------------------------------
// Prometheus
// ---------------------------------------------------------------------------

/// Render the snapshot in Prometheus text exposition format. Metric
/// families with no activity are omitted; within an active family every
/// present lane gets a series (zeros included, so sums are auditable).
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for group in COUNTER_GROUPS {
        let active: Vec<_> = group
            .members
            .iter()
            .filter(|(id, _)| snap.total(*id) > 0)
            .collect();
        if active.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {} {}\n", group.metric, group.help));
        out.push_str(&format!("# TYPE {} counter\n", group.metric));
        for (id, extra) in active {
            for lane in &snap.lanes {
                out.push_str(&format!(
                    "{}{{{}}} {}\n",
                    group.metric,
                    labels(group.lane_label, lane.lane, extra),
                    lane.counter(*id)
                ));
            }
        }
    }

    if snap.total_max(GaugeId::MailboxDepth) > 0 {
        out.push_str(
            "# HELP patternlets_mailbox_depth_high_water Deepest a rank's mailbox ever got\n",
        );
        out.push_str("# TYPE patternlets_mailbox_depth_high_water gauge\n");
        for lane in &snap.lanes {
            out.push_str(&format!(
                "patternlets_mailbox_depth_high_water{{rank=\"{}\"}} {}\n",
                lane.lane,
                lane.max(GaugeId::MailboxDepth)
            ));
        }
    }

    if snap.total_max(GaugeId::StreamQueueDepth) > 0 {
        out.push_str(
            "# HELP patternlets_stream_queue_depth_high_water Deepest a stream queue ever got\n",
        );
        out.push_str("# TYPE patternlets_stream_queue_depth_high_water gauge\n");
        for lane in &snap.lanes {
            out.push_str(&format!(
                "patternlets_stream_queue_depth_high_water{{queue=\"{}\"}} {}\n",
                lane.lane,
                lane.max(GaugeId::StreamQueueDepth)
            ));
        }
    }

    for (id, metric, help) in FIXED_HIST_META {
        render_hist(&mut out, metric, help, "", &snap.hist_total(id));
    }
    let coll_active: Vec<_> = COLL_OPS
        .iter()
        .filter(|op| snap.hist_total(HistId::coll(op)).count() > 0)
        .collect();
    if !coll_active.is_empty() {
        out.push_str("# HELP patternlets_coll_latency_ns Per-collective phase latency\n");
        out.push_str("# TYPE patternlets_coll_latency_ns histogram\n");
        for op in coll_active {
            render_hist_series(
                &mut out,
                "patternlets_coll_latency_ns",
                &format!("op=\"{op}\""),
                &snap.hist_total(HistId::coll(op)),
            );
        }
    }
    out
}

fn labels(lane_label: &str, lane: usize, extra: &str) -> String {
    if extra.is_empty() {
        format!("{lane_label}=\"{lane}\"")
    } else {
        format!("{lane_label}=\"{lane}\",{extra}")
    }
}

fn render_hist(out: &mut String, metric: &str, help: &str, extra: &str, h: &HistData) {
    if h.count() == 0 {
        return;
    }
    out.push_str(&format!("# HELP {metric} {help}\n"));
    out.push_str(&format!("# TYPE {metric} histogram\n"));
    render_hist_series(out, metric, extra, h);
}

fn render_hist_series(out: &mut String, metric: &str, extra: &str, h: &HistData) {
    let sep = if extra.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        cum += b;
        let bound = crate::bucket_bound(i);
        if bound == u64::MAX {
            break; // the +Inf line below covers the overflow bucket
        }
        out.push_str(&format!(
            "{metric}_bucket{{{extra}{sep}le=\"{bound}\"}} {cum}\n"
        ));
    }
    out.push_str(&format!(
        "{metric}_bucket{{{extra}{sep}le=\"+Inf\"}} {}\n",
        h.count()
    ));
    let plain = if extra.is_empty() {
        String::new()
    } else {
        format!("{{{extra}}}")
    };
    out.push_str(&format!("{metric}_sum{plain} {}\n", h.sum));
    out.push_str(&format!("{metric}_count{plain} {}\n", h.count()));
}

// ---------------------------------------------------------------------------
// Summary table
// ---------------------------------------------------------------------------

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render the end-of-run summary table (`patternlets run --metrics`).
pub fn render_summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if snap.is_empty() {
        out.push_str("== metrics: nothing recorded ==\n");
        return out;
    }
    out.push_str("== metrics summary ==\n");

    if snap.msgs_sent() + snap.total(CounterId::MsgsRecv) > 0 {
        out.push_str(&format!(
            "{:>5} {:>7} {:>10} {:>7} {:>10} {:>7} {:>6} {:>6} {:>5} {:>4} {:>7}\n",
            "rank",
            "sent",
            "sentB",
            "recv",
            "recvB",
            "0copy%",
            "spin",
            "park",
            "retx",
            "dup",
            "mbox-hw"
        ));
        for lane in &snap.lanes {
            let no_alloc =
                lane.counter(CounterId::MsgsSentInproc) + lane.counter(CounterId::MsgsSentInline);
            let sent = no_alloc + lane.counter(CounterId::MsgsSentEncoded);
            if sent == 0 && lane.counter(CounterId::MsgsRecv) == 0 {
                continue;
            }
            let hit = if sent > 0 {
                format!("{:.1}", 100.0 * no_alloc as f64 / sent as f64)
            } else {
                "-".into()
            };
            out.push_str(&format!(
                "{:>5} {:>7} {:>10} {:>7} {:>10} {:>7} {:>6} {:>6} {:>5} {:>4} {:>7}\n",
                lane.lane,
                sent,
                lane.counter(CounterId::BytesSent),
                lane.counter(CounterId::MsgsRecv),
                lane.counter(CounterId::BytesRecv),
                hit,
                lane.counter(CounterId::RecvSpin),
                lane.counter(CounterId::RecvPark),
                lane.counter(CounterId::Retransmits),
                lane.counter(CounterId::DupDrops),
                lane.max(GaugeId::MailboxDepth),
            ));
        }
        let hit = snap
            .zerocopy_hit_rate()
            .map(|r| format!("{:.1}", 100.0 * r))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:>5} {:>7} {:>10} {:>7} {:>10} {:>7} {:>6} {:>6} {:>5} {:>4} {:>7}\n",
            "all",
            snap.msgs_sent(),
            snap.total(CounterId::BytesSent),
            snap.total(CounterId::MsgsRecv),
            snap.total(CounterId::BytesRecv),
            hit,
            snap.total(CounterId::RecvSpin),
            snap.total(CounterId::RecvPark),
            snap.total(CounterId::Retransmits),
            snap.total(CounterId::DupDrops),
            snap.total_max(GaugeId::MailboxDepth),
        ));
    }

    let mut coll_lines = String::new();
    for op in COLL_OPS {
        let h = snap.hist_total(HistId::coll(op));
        if h.count() == 0 {
            continue;
        }
        coll_lines.push_str(&format!(
            "{:>12} {:>7} {:>9} {:>9} {:>9}\n",
            op,
            h.count(),
            fmt_ns(h.mean() as u64),
            fmt_ns(h.quantile_bound(0.5)),
            fmt_ns(h.quantile_bound(0.95)),
        ));
    }
    if !coll_lines.is_empty() {
        out.push_str(&format!(
            "collective latency:\n{:>12} {:>7} {:>9} {:>9} {:>9}\n{coll_lines}",
            "op", "count", "mean", "p50<=", "p95<="
        ));
    }

    let bw = snap.hist_total(HistId::BARRIER_WAIT_NS);
    if bw.count() > 0 {
        out.push_str(&format!(
            "barrier wait: count={} mean={} p50<={} p95<={}\n",
            bw.count(),
            fmt_ns(bw.mean() as u64),
            fmt_ns(bw.quantile_bound(0.5)),
            fmt_ns(bw.quantile_bound(0.95)),
        ));
    }

    for (name, chunks, iters) in SCHEDULES {
        if let Some(r) = snap.load_imbalance(iters) {
            out.push_str(&format!(
                "loop[{name}]: chunks={} iters={} imbalance={r:.2}\n",
                snap.total(chunks),
                snap.total(iters),
            ));
        }
    }

    let wb = snap.hist_total(HistId::WRITEV_BATCH_FRAMES);
    let rtt = snap.hist_total(HistId::HEARTBEAT_RTT_NS);
    if snap.total(CounterId::NetFramesSent) > 0 {
        out.push_str(&format!(
            "net: frames={} bytes={} heartbeats={} reconnects={} replayed={} crc-rejects={} \
             failures={}",
            snap.total(CounterId::NetFramesSent),
            snap.total(CounterId::NetBytesToPeer),
            snap.total(CounterId::NetHeartbeats),
            snap.total(CounterId::NetReconnects),
            snap.total(CounterId::NetFramesReplayed),
            snap.total(CounterId::NetCrcRejects),
            snap.total(CounterId::NetRankFailures),
        ));
        if wb.count() > 0 {
            out.push_str(&format!(" writev-batch p50<={}", wb.quantile_bound(0.5)));
        }
        if rtt.count() > 0 {
            out.push_str(&format!(" rtt p50<={}", fmt_ns(rtt.quantile_bound(0.5))));
        }
        out.push('\n');
    }

    if snap.total(CounterId::StreamItemsIn) + snap.total(CounterId::StreamItemsOut) > 0 {
        out.push_str(&format!(
            "stream queues (lane = queue id):\n{:>6} {:>9} {:>9} {:>8}\n",
            "queue", "in", "out", "depth-hw"
        ));
        for lane in &snap.lanes {
            let pushed = lane.counter(CounterId::StreamItemsIn);
            let popped = lane.counter(CounterId::StreamItemsOut);
            if pushed + popped == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:>6} {:>9} {:>9} {:>8}\n",
                lane.lane,
                pushed,
                popped,
                lane.max(GaugeId::StreamQueueDepth),
            ));
        }
        out.push_str(&format!(
            "{:>6} {:>9} {:>9} {:>8}\n",
            "all",
            snap.total(CounterId::StreamItemsIn),
            snap.total(CounterId::StreamItemsOut),
            snap.total_max(GaugeId::StreamQueueDepth),
        ));
    }

    let spsc_spin = snap.total(CounterId::SpscSpinWaits);
    let spsc_park = snap.total(CounterId::SpscParkWaits);
    if spsc_spin + spsc_park > 0 {
        out.push_str(&format!(
            "spsc waits: spin-resolved={spsc_spin} parked={spsc_park}\n"
        ));
    }

    if snap.total(CounterId::CheckpointsTaken) > 0 {
        let ck = snap.hist_total(HistId::CHECKPOINT_NS);
        out.push_str(&format!(
            "checkpoints: taken={} bytes={} write p50<={}\n",
            snap.total(CounterId::CheckpointsTaken),
            snap.total(CounterId::CheckpointBytes),
            fmt_ns(ck.quantile_bound(0.5)),
        ));
    }
    out
}

/// Render the `--counters` table: per-lane sends, receives, bytes each
/// way, collective phases, barrier episodes, loop chunks and iterations,
/// then an `all` row. Lanes with none of these are left out.
pub fn render_counters(snap: &MetricsSnapshot) -> String {
    use CounterId::*;
    let mut out =
        String::from("rank   sends   recvs  bytes→  bytes←   colls   barrs  chunks   iters\n");
    let mut push_row = |label: &str, row: &[u64; 8]| {
        let cells: String = row.iter().map(|n| format!("  {n:>6}")).collect();
        out.push_str(&format!("{label:>4}{cells}\n"));
    };
    let mut total = [0; 8];
    for l in &snap.lanes {
        let sum = |ns: &[u64]| ns.iter().sum();
        let row = [
            sum(&[MsgsSentInproc, MsgsSentEncoded, MsgsSentInline].map(|id| l.counter(id))),
            l.counter(MsgsRecv),
            l.counter(BytesSent),
            l.counter(BytesRecv),
            sum(&COLL_OPS.map(|op| l.hist(HistId::coll(op)).count())),
            l.hist(HistId::BARRIER_WAIT_NS).count(),
            sum(&SCHEDULES.map(|(_, chunks, _)| l.counter(chunks))),
            sum(&SCHEDULES.map(|(_, _, iters)| l.counter(iters))),
        ];
        if row.iter().any(|&n| n > 0) {
            push_row(&l.lane.to_string(), &row);
            total.iter_mut().zip(row).for_each(|(t, n)| *t += n);
        }
    }
    push_row("all", &total);
    let (retransmits, dup_drops) = (snap.total(Retransmits), snap.total(DupDrops));
    if retransmits > 0 || dup_drops > 0 {
        out.push_str(&format!(
            "chaos: {retransmits} retransmissions, {dup_drops} duplicates dropped\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsHub;

    fn mp_snapshot() -> MetricsSnapshot {
        let hub = MetricsHub::with_lanes(4);
        for lane in 0..4 {
            hub.incr(lane, CounterId::MsgsSentInproc);
            hub.add(lane, CounterId::BytesSent, 64);
            hub.incr(lane, CounterId::MsgsRecv);
            hub.add(lane, CounterId::BytesRecv, 64);
        }
        hub.incr(2, CounterId::MsgsSentEncoded);
        hub.observe(0, HistId::coll("bcast"), 2_000);
        hub.observe(1, HistId::coll("bcast"), 9_000);
        hub.snapshot()
    }

    #[test]
    fn prometheus_counters_carry_per_rank_series() {
        let text = render_prometheus(&mp_snapshot());
        assert!(text.contains("# TYPE patternlets_msgs_sent_total counter"));
        assert!(text.contains("patternlets_msgs_sent_total{rank=\"2\",repr=\"inproc\"} 1"));
        assert!(text.contains("patternlets_msgs_sent_total{rank=\"2\",repr=\"encoded\"} 1"));
        assert!(text.contains("patternlets_msgs_recv_total{rank=\"3\"} 1"));
        // Untouched families are omitted entirely.
        assert!(!text.contains("patternlets_net_frames_sent_total"));
    }

    #[test]
    fn prometheus_histograms_are_cumulative_and_closed() {
        let text = render_prometheus(&mp_snapshot());
        assert!(text.contains("# TYPE patternlets_coll_latency_ns histogram"));
        assert!(text.contains("patternlets_coll_latency_ns_bucket{op=\"bcast\",le=\"+Inf\"} 2"));
        assert!(text.contains("patternlets_coll_latency_ns_sum{op=\"bcast\"} 11000"));
        assert!(text.contains("patternlets_coll_latency_ns_count{op=\"bcast\"} 2"));
        // Cumulative: every bucket count ≤ the +Inf count, non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("op=\"bcast\",le=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets are cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn summary_has_per_rank_rows_and_totals() {
        let text = render_summary(&mp_snapshot());
        assert!(text.contains("== metrics summary =="));
        assert!(text.lines().any(|l| l.trim_start().starts_with("0 ")));
        assert!(text.lines().any(|l| l.trim_start().starts_with("all ")));
        assert!(text.contains("bcast"));
    }

    #[test]
    fn summary_reports_load_imbalance_per_schedule() {
        let hub = MetricsHub::with_lanes(4);
        for lane in 0..4u64 {
            hub.add(lane as usize, CounterId::ChunksDynamic, 2);
            hub.add(lane as usize, CounterId::ItersDynamic, 10 + lane * 10);
        }
        let text = render_summary(&hub.snapshot());
        assert!(text.contains("loop[dynamic]"), "{text}");
        assert!(text.contains("imbalance="));
    }

    #[test]
    fn counters_table_has_active_rows_and_an_all_row() {
        let text = render_counters(&mp_snapshot());
        let all = text.lines().last().unwrap();
        let cells: Vec<&str> = all.split_whitespace().collect();
        // 5 sends (one encoded on lane 2), 4 recvs, 256 B each way, 2 bcasts.
        assert_eq!(cells[..6], ["all", "5", "4", "256", "256", "2"], "{text}");
        assert_eq!(text.lines().count(), 6, "header, 4 lanes, all: {text}");
        let empty = render_counters(&MetricsSnapshot::default());
        assert_eq!(empty.lines().count(), 2, "{empty}");
    }

    #[test]
    fn empty_snapshot_renders_without_panicking() {
        assert!(render_prometheus(&MetricsSnapshot::default()).is_empty());
        assert!(render_summary(&MetricsSnapshot::default()).contains("nothing recorded"));
    }
}
