//! Chrome-trace (Trace Event Format) JSON export.
//!
//! The emitted file loads directly into `chrome://tracing` or
//! <https://ui.perfetto.dev>: each lane becomes a named track, phase
//! events (collectives, regions, barrier waits) render as duration slices
//! (`ph: "B"`/`"E"`), and point events (sends, receives, chunk claims,
//! chaos retransmissions) render as thread-scoped instants (`ph: "i"`).
//! Every message additionally emits a Perfetto flow pair — `ph:"s"` at the
//! send, `ph:"f"` at the matching receive, bound by the sender's
//! `(rank, seq)` — so send→recv causality renders as arrows.
//! Timestamps are microseconds from the tracer's origin, as the format
//! requires; exports carry a `traceBaseNs` wall-clock anchor so
//! [`merge_chrome_json`] can align independently started processes onto
//! one timebase.

use std::fmt::Write as _;

use crate::collector::Trace;
use crate::event::{EventKind, TraceEvent};

/// Render `trace` as a Chrome-trace JSON object (`{"traceEvents": [...]}`).
pub fn to_chrome_json(trace: &Trace) -> String {
    export(trace, None)
}

/// Like [`to_chrome_json`], but stamp `base_unix_ns` — the tracer origin
/// expressed as wall-clock nanoseconds, already corrected by the rank's
/// estimated clock offset to rank 0 — into `otherData.traceBaseNs`.
/// [`merge_chrome_json`] uses the anchors to shift each rank's relative
/// timestamps onto a shared timebase.
pub fn to_chrome_json_with_base(trace: &Trace, base_unix_ns: u64) -> String {
    export(trace, Some(base_unix_ns))
}

fn export(trace: &Trace, base_unix_ns: Option<u64>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for lane in 0..trace.lane_count() {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
                 \"args\":{{\"name\":\"lane {lane}\"}}}}"
            ),
        );
    }
    for event in &trace.events {
        push_event(&mut out, &mut first, &render(event));
        if let Some(f) = flow(event) {
            push_event(&mut out, &mut first, &f);
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":{}",
        trace.dropped
    );
    if let Some(base) = base_unix_ns {
        let _ = write!(out, ",\"traceBaseNs\":{base}");
    }
    out.push_str("}}");
    out
}

/// The flow record paired with a message event, if any: `ph:"s"` leaves
/// the send instant, `ph:"f"` (binding-point `"e"`, i.e. to the enclosing
/// slice/instant) lands on the receive. The id is the globally unique
/// `(sender world rank, per-sender seq)` pair, so merged multi-process
/// traces stitch arrows across pid lanes.
fn flow(event: &TraceEvent) -> Option<String> {
    let ts = ts(event.t_ns);
    match &event.kind {
        EventKind::MsgSend { seq, .. } => Some(format!(
            "{{\"name\":\"flow\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":\"{}.{seq}\",\
             \"pid\":0,\"tid\":{},\"ts\":{ts}}}",
            event.lane, event.lane
        )),
        EventKind::MsgRecv { from, seq, .. } => Some(format!(
            "{{\"name\":\"flow\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":\"{from}.{seq}\",\"pid\":0,\"tid\":{},\"ts\":{ts}}}",
            event.lane
        )),
        _ => None,
    }
}

/// Merge per-rank Chrome-trace exports (each produced by
/// [`to_chrome_json`]) into one trace with a process lane per rank: every
/// event's `pid` is rewritten from 0 to the rank, a `process_name`
/// metadata record labels each lane, and dropped-event counts are summed.
/// `pmrun --trace` uses this to fold `rank-N.json` files into a single
/// timeline that `chrome://tracing`/Perfetto renders as one process per
/// rank with that rank's thread lanes nested underneath.
///
/// Inputs that don't look like [`to_chrome_json`] output contribute no
/// events (their rank still gets a named, empty lane) — a worker that
/// died mid-write must not poison the survivors' merged trace.
///
/// When exports carry a `traceBaseNs` anchor (see
/// [`to_chrome_json_with_base`]), every rank's timestamps are shifted by
/// its anchor's distance from the earliest anchor, so independently
/// started processes land on one shared timebase instead of all starting
/// at t=0. Anchor-less exports are merged unshifted.
pub fn merge_chrome_json<'a>(ranks: impl IntoIterator<Item = (usize, &'a str)>) -> String {
    let ranks: Vec<(usize, &str)> = ranks.into_iter().collect();
    let min_base = ranks
        .iter()
        .filter_map(|(_, json)| base_ns(json))
        .min()
        .unwrap_or(0);
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut dropped: u64 = 0;
    for (rank, json) in ranks {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}"
            ),
        );
        if let Some(events) = events_slice(json) {
            if !events.is_empty() {
                let shift = base_ns(json).map_or(0, |b| b.saturating_sub(min_base));
                let rewritten =
                    shift_ts(events, shift).replace("\"pid\":0,", &format!("\"pid\":{rank},"));
                push_event(&mut out, &mut first, &rewritten);
            }
        }
        dropped += dropped_count(json);
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":{dropped}"
    );
    if min_base > 0 {
        let _ = write!(out, ",\"traceBaseNs\":{min_base}");
    }
    out.push_str("}}");
    out
}

/// The `traceBaseNs` wall-clock anchor of one export, if present.
fn base_ns(json: &str) -> Option<u64> {
    let start = json.find("\"traceBaseNs\":")? + "\"traceBaseNs\":".len();
    let digits: String = json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Shift every `"ts":` value in a self-produced event list forward by
/// `delta_ns`. The exporter's timestamp shape is fixed (`{µs}.{3 digits}`
/// via [`ts`]), so a string-level rewrite is exact.
fn shift_ts(events: &str, delta_ns: u64) -> String {
    if delta_ns == 0 {
        return events.to_string();
    }
    let mut out = String::with_capacity(events.len() + 64);
    let mut rest = events;
    while let Some(pos) = rest.find("\"ts\":") {
        let after = pos + "\"ts\":".len();
        out.push_str(&rest[..after]);
        rest = &rest[after..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(rest.len());
        out.push_str(&ts(parse_ts_ns(&rest[..end]) + delta_ns));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Parse one [`ts`]-formatted timestamp (`{µs}.{3-digit ns}`) back to
/// nanoseconds. Tolerates a missing or short fraction.
fn parse_ts_ns(num: &str) -> u64 {
    let (us, frac) = num.split_once('.').unwrap_or((num, ""));
    let us: u64 = us.parse().unwrap_or(0);
    let mut frac_ns = 0u64;
    let mut scale = 100;
    for c in frac.bytes().take_while(u8::is_ascii_digit).take(3) {
        frac_ns += u64::from(c - b'0') * scale;
        scale /= 10;
    }
    us * 1_000 + frac_ns
}

/// The comma-joined event list inside a [`to_chrome_json`] export. The
/// exporter's shape is fixed — events never contain `]` — so the span
/// between the array open and the `"displayTimeUnit"` tail is exact.
pub(crate) fn events_slice(json: &str) -> Option<&str> {
    let start = json.find("\"traceEvents\":[")? + "\"traceEvents\":[".len();
    let end = start + json[start..].find("],\"displayTimeUnit\"")?;
    Some(&json[start..end])
}

/// The `droppedEvents` count of one export (0 when absent/unparseable).
fn dropped_count(json: &str) -> u64 {
    let Some(start) = json.find("\"droppedEvents\":") else {
        return 0;
    };
    json[start + "\"droppedEvents\":".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

fn push_event(out: &mut String, first: &mut bool, rendered: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(rendered);
}

/// Microsecond timestamp with sub-microsecond precision kept.
fn ts(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn render(event: &TraceEvent) -> String {
    let lane = event.lane;
    let ts = ts(event.t_ns);
    match &event.kind {
        EventKind::MsgSend {
            to,
            tag,
            bytes,
            seq,
        } => instant(
            "send",
            "msg",
            lane,
            &ts,
            &format!("\"to\":{to},\"tag\":{tag},\"bytes\":{bytes},\"seq\":{seq}"),
        ),
        EventKind::MsgRecv {
            from,
            tag,
            bytes,
            seq,
        } => instant(
            "recv",
            "msg",
            lane,
            &ts,
            &format!("\"from\":{from},\"tag\":{tag},\"bytes\":{bytes},\"seq\":{seq}"),
        ),
        EventKind::Retransmit { attempt } => instant(
            "retransmit",
            "chaos",
            lane,
            &ts,
            &format!("\"attempt\":{attempt}"),
        ),
        EventKind::DupDropped => instant("dup-dropped", "chaos", lane, &ts, ""),
        EventKind::ChunkClaim { start, len } => instant(
            "chunk-claim",
            "sched",
            lane,
            &ts,
            &format!("\"start\":{start},\"len\":{len}"),
        ),
        EventKind::CollBegin { op } => phase("B", op, "collective", lane, &ts),
        EventKind::CollEnd { op } => phase("E", op, "collective", lane, &ts),
        EventKind::RegionBegin { team } => format!(
            "{{\"name\":\"parallel region\",\"cat\":\"region\",\"ph\":\"B\",\"pid\":0,\
             \"tid\":{lane},\"ts\":{ts},\"args\":{{\"team\":{team}}}}}"
        ),
        EventKind::RegionEnd => phase("E", "parallel region", "region", lane, &ts),
        EventKind::BarrierWait => phase("B", "barrier", "sync", lane, &ts),
        EventKind::BarrierRelease => phase("E", "barrier", "sync", lane, &ts),
        EventKind::StagePush { queue, depth } => instant(
            "stage-push",
            "stream",
            lane,
            &ts,
            &format!("\"queue\":{queue},\"depth\":{depth}"),
        ),
        EventKind::StagePop { queue, depth } => instant(
            "stage-pop",
            "stream",
            lane,
            &ts,
            &format!("\"queue\":{queue},\"depth\":{depth}"),
        ),
        EventKind::StageEos { queue } => instant(
            "stage-eos",
            "stream",
            lane,
            &ts,
            &format!("\"queue\":{queue}"),
        ),
    }
}

fn instant(name: &str, cat: &str, lane: usize, ts: &str, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
         \"tid\":{lane},\"ts\":{ts},\"args\":{{{args}}}}}"
    )
}

fn phase(ph: &str, name: &str, cat: &str, lane: usize, ts: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"pid\":0,\
         \"tid\":{lane},\"ts\":{ts}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Tracer;

    fn sample() -> Trace {
        let tracer = Tracer::new();
        let span = tracer.coll_span(0, "bcast");
        tracer.emit(
            0,
            EventKind::MsgSend {
                to: 1,
                tag: -3,
                bytes: 16,
                seq: 0,
            },
        );
        tracer.emit(
            1,
            EventKind::MsgRecv {
                from: 0,
                tag: -3,
                bytes: 16,
                seq: 0,
            },
        );
        drop(span);
        tracer.emit(2, EventKind::RegionBegin { team: 3 });
        tracer.emit(2, EventKind::BarrierWait);
        tracer.emit(2, EventKind::BarrierRelease);
        tracer.emit(2, EventKind::ChunkClaim { start: 0, len: 4 });
        tracer.emit(2, EventKind::RegionEnd);
        tracer.emit(0, EventKind::Retransmit { attempt: 0 });
        tracer.emit(1, EventKind::DupDropped);
        tracer.drain()
    }

    #[test]
    fn envelope_has_the_required_shape() {
        let json = to_chrome_json(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"droppedEvents\":0"));
    }

    #[test]
    fn phases_pair_and_instants_are_thread_scoped() {
        let json = to_chrome_json(&sample());
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 3); // bcast, region, barrier
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 5);
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"name\":\"bcast\""));
        assert!(json.contains("\"attempt\":0"));
    }

    #[test]
    fn messages_emit_a_bound_flow_pair() {
        let json = to_chrome_json(&sample());
        // One flow start at the send, one flow finish at the recv, bound
        // by the sender's (rank, seq) id.
        assert_eq!(json.matches("\"ph\":\"s\",\"id\":\"0.0\"").count(), 1);
        assert_eq!(
            json.matches("\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0.0\"")
                .count(),
            1
        );
        assert_eq!(json.matches("\"name\":\"flow\"").count(), 2);
    }

    #[test]
    fn base_anchor_round_trips_through_otherdata() {
        let json = to_chrome_json_with_base(&sample(), 1_234_567_890);
        assert!(json.contains("\"traceBaseNs\":1234567890"));
        assert_eq!(base_ns(&json), Some(1_234_567_890));
        assert_eq!(base_ns(&to_chrome_json(&sample())), None);
    }

    #[test]
    fn ts_shift_round_trips_exactly() {
        assert_eq!(parse_ts_ns("1234.567"), 1_234_567);
        assert_eq!(parse_ts_ns("0.999"), 999);
        assert_eq!(parse_ts_ns("7"), 7_000);
        let events = "{\"ts\":1.500,\"x\":1},{\"ts\":0.001}";
        assert_eq!(
            shift_ts(events, 2_500),
            "{\"ts\":4.000,\"x\":1},{\"ts\":2.501}"
        );
        assert_eq!(shift_ts(events, 0), events);
    }

    #[test]
    fn merge_aligns_ranks_onto_the_earliest_anchor() {
        // Rank 0's clock origin is 1µs earlier than rank 1's: rank 1's
        // events must shift forward by 1µs; rank 0's stay put.
        let a = to_chrome_json_with_base(&Trace::default(), 1_000_000);
        let tracer = Tracer::new();
        tracer.emit(0, EventKind::BarrierWait);
        let mut trace = tracer.drain();
        trace.events[0].t_ns = 250; // deterministic timestamp
        let b = to_chrome_json_with_base(&trace, 1_001_000);
        let merged = merge_chrome_json([(0, a.as_str()), (1, b.as_str())]);
        assert!(merged.contains("\"ts\":1.250"), "{merged}");
        assert!(merged.contains("\"traceBaseNs\":1000000"));
    }

    #[test]
    fn lanes_get_metadata_names() {
        let json = to_chrome_json(&sample());
        assert!(json.contains("\"name\":\"lane 0\""));
        assert!(json.contains("\"name\":\"lane 2\""));
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = to_chrome_json(&sample());
        // Every brace/bracket closes; all strings in this format are
        // quote-free literals, so raw counting is sound.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = to_chrome_json(&Trace::default());
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_precision() {
        assert_eq!(ts(1_234_567), "1234.567");
        assert_eq!(ts(999), "0.999");
        assert_eq!(ts(1_000), "1.000");
    }

    #[test]
    fn merge_rewrites_pids_and_labels_each_rank() {
        let a = to_chrome_json(&sample());
        let b = to_chrome_json(&sample());
        let merged = merge_chrome_json([(2, a.as_str()), (3, b.as_str())]);
        assert!(!merged.contains("\"pid\":0,"), "all pids rewritten");
        assert!(merged.contains("\"pid\":2,"));
        assert!(merged.contains("\"pid\":3,"));
        assert!(merged.contains("\"name\":\"rank 2\""));
        assert!(merged.contains("\"name\":\"rank 3\""));
        assert_eq!(merged.matches("\"process_name\"").count(), 2);
        // Both ranks' events survive: twice the sends, recvs, spans.
        assert_eq!(merged.matches("\"name\":\"send\"").count(), 2);
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        assert_eq!(merged.matches('[').count(), merged.matches(']').count());
    }

    #[test]
    fn merge_sums_dropped_counts_and_survives_garbage() {
        let good = to_chrome_json(&sample()).replace("\"droppedEvents\":0", "\"droppedEvents\":7");
        let merged = merge_chrome_json([(0, good.as_str()), (1, "partial garbage from a ki")]);
        assert!(merged.contains("\"droppedEvents\":7"));
        assert!(
            merged.contains("\"name\":\"rank 1\""),
            "dead rank still named"
        );
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }

    #[test]
    fn merge_of_empty_traces_is_valid() {
        let empty = to_chrome_json(&Trace::default());
        let merged = merge_chrome_json([(0, empty.as_str()), (1, empty.as_str())]);
        assert!(merged.starts_with("{\"traceEvents\":["));
        assert_eq!(merged.matches("\"process_name\"").count(), 2);
        assert!(merged.contains("\"droppedEvents\":0"));
    }
}
