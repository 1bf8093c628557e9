//! Parallel performance metrics: speedup, efficiency, Karp–Flatt — and
//! per-rank communication counters aggregated from an execution trace.

use patternlets_trace::{EventKind, Trace};

/// Speedup `S(p) = T₁ / Tₚ`.
pub fn speedup(t1: f64, tp: f64) -> f64 {
    assert!(t1 > 0.0 && tp > 0.0, "times must be positive");
    t1 / tp
}

/// Efficiency `E(p) = S(p) / p`.
pub fn efficiency(t1: f64, tp: f64, p: usize) -> f64 {
    assert!(p > 0);
    speedup(t1, tp) / p as f64
}

/// Karp–Flatt experimentally determined serial fraction:
/// `e = (1/S − 1/p) / (1 − 1/p)`. Undefined for `p == 1`.
pub fn karp_flatt(t1: f64, tp: f64, p: usize) -> f64 {
    assert!(p > 1, "Karp–Flatt needs p > 1");
    let s = speedup(t1, tp);
    let p = p as f64;
    (1.0 / s - 1.0 / p) / (1.0 - 1.0 / p)
}

/// A row of a speedup table: the CS2 lab's spreadsheet chart (paper
/// §IV.A step d) in data form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Thread/processor count.
    pub p: usize,
    /// Measured or simulated time.
    pub time: f64,
    /// Speedup relative to the 1-processor time.
    pub speedup: f64,
    /// Efficiency.
    pub efficiency: f64,
}

/// Build a scaling table from `(p, time)` measurements. The `p == 1` entry
/// is the baseline and must be present.
pub fn scaling_table(measurements: &[(usize, f64)]) -> Vec<ScalingPoint> {
    let t1 = measurements
        .iter()
        .find(|&&(p, _)| p == 1)
        .map(|&(_, t)| t)
        .expect("scaling table needs a p=1 baseline");
    measurements
        .iter()
        .map(|&(p, time)| ScalingPoint {
            p,
            time,
            speedup: speedup(t1, time),
            efficiency: efficiency(t1, time, p),
        })
        .collect()
}

/// Communication/worksharing counters for one rank (or thread), aggregated
/// from a [`Trace`]. The trace-layer analogue of the paper's "count the
/// messages" exercises: closed-form predictions from DESIGN.md §3 can be
/// checked against these totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankCounters {
    /// The rank / thread id (trace lane).
    pub rank: usize,
    /// Point-to-point envelopes sent (user + runtime).
    pub sends: u64,
    /// Point-to-point envelopes received.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Collective operations entered (`CollBegin` events).
    pub collectives: u64,
    /// Barrier episodes (`BarrierWait` events).
    pub barriers: u64,
    /// Parallel regions entered (`RegionBegin` events).
    pub regions: u64,
    /// Loop chunks claimed from a worksharing schedule.
    pub chunks: u64,
    /// Loop iterations executed (sum of claimed chunk lengths).
    pub iterations: u64,
    /// Chaos-layer retransmission attempts.
    pub retransmits: u64,
    /// Duplicate deliveries swallowed by the exactly-once filter.
    pub dup_drops: u64,
    /// Stream-channel pushes issued by this lane's stage.
    pub stream_pushes: u64,
    /// Stream-channel pops issued by this lane's stage.
    pub stream_pops: u64,
}

/// Aggregate a drained [`Trace`] into one [`RankCounters`] row per active
/// lane, sorted by rank. Lanes with no events are omitted.
pub fn rank_counters(trace: &Trace) -> Vec<RankCounters> {
    let mut by_rank: std::collections::BTreeMap<usize, RankCounters> =
        std::collections::BTreeMap::new();
    for ev in &trace.events {
        let c = by_rank.entry(ev.lane).or_insert_with(|| RankCounters {
            rank: ev.lane,
            ..RankCounters::default()
        });
        match ev.kind {
            EventKind::MsgSend { bytes, .. } => {
                c.sends += 1;
                c.bytes_sent += bytes as u64;
            }
            EventKind::MsgRecv { bytes, .. } => {
                c.recvs += 1;
                c.bytes_recv += bytes as u64;
            }
            EventKind::CollBegin { .. } => c.collectives += 1,
            EventKind::CollEnd { .. } => {}
            EventKind::Retransmit { .. } => c.retransmits += 1,
            EventKind::DupDropped => c.dup_drops += 1,
            EventKind::RegionBegin { .. } => c.regions += 1,
            EventKind::RegionEnd => {}
            EventKind::BarrierWait => c.barriers += 1,
            EventKind::BarrierRelease => {}
            EventKind::ChunkClaim { len, .. } => {
                c.chunks += 1;
                c.iterations += len as u64;
            }
            EventKind::StagePush { .. } => c.stream_pushes += 1,
            EventKind::StagePop { .. } => c.stream_pops += 1,
            EventKind::StageEos { .. } => {}
        }
    }
    by_rank.into_values().collect()
}

/// Sum a set of per-rank counter rows into one global row (`rank` is the
/// number of rows summed, i.e. the active lane count).
pub fn total_counters(rows: &[RankCounters]) -> RankCounters {
    let mut total = RankCounters {
        rank: rows.len(),
        ..RankCounters::default()
    };
    for r in rows {
        total.sends += r.sends;
        total.recvs += r.recvs;
        total.bytes_sent += r.bytes_sent;
        total.bytes_recv += r.bytes_recv;
        total.collectives += r.collectives;
        total.barriers += r.barriers;
        total.regions += r.regions;
        total.chunks += r.chunks;
        total.iterations += r.iterations;
        total.retransmits += r.retransmits;
        total.dup_drops += r.dup_drops;
        total.stream_pushes += r.stream_pushes;
        total.stream_pops += r.stream_pops;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternlets_trace::Tracer;

    #[test]
    fn rank_counters_aggregate_by_lane() {
        let t = Tracer::new();
        t.emit(
            0,
            EventKind::MsgSend {
                to: 1,
                tag: 0,
                bytes: 8,
                seq: 0,
            },
        );
        t.emit(
            0,
            EventKind::MsgSend {
                to: 1,
                tag: 0,
                bytes: 4,
                seq: 1,
            },
        );
        t.emit(
            1,
            EventKind::MsgRecv {
                from: 0,
                tag: 0,
                bytes: 8,
                seq: 0,
            },
        );
        t.emit(1, EventKind::BarrierWait);
        t.emit(1, EventKind::BarrierRelease);
        t.emit(2, EventKind::ChunkClaim { start: 0, len: 5 });
        t.emit(2, EventKind::ChunkClaim { start: 5, len: 3 });
        let trace = t.drain();
        let rows = rank_counters(&trace);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].rank, 0);
        assert_eq!(rows[0].sends, 2);
        assert_eq!(rows[0].bytes_sent, 12);
        assert_eq!(rows[1].recvs, 1);
        assert_eq!(rows[1].bytes_recv, 8);
        assert_eq!(rows[1].barriers, 1);
        assert_eq!(rows[2].chunks, 2);
        assert_eq!(rows[2].iterations, 8);

        let total = total_counters(&rows);
        assert_eq!(total.rank, 3);
        assert_eq!(total.sends, 2);
        assert_eq!(total.iterations, 8);
    }

    #[test]
    fn the_total_row_sums_stream_counts() {
        let rows = [
            RankCounters {
                rank: 0,
                stream_pushes: 5,
                stream_pops: 2,
                ..RankCounters::default()
            },
            RankCounters {
                rank: 1,
                stream_pushes: 1,
                stream_pops: 4,
                ..RankCounters::default()
            },
        ];
        let total = total_counters(&rows);
        assert_eq!((total.stream_pushes, total.stream_pops), (6, 6));
    }

    #[test]
    fn empty_trace_yields_no_rows() {
        let trace = Tracer::new().drain();
        assert!(rank_counters(&trace).is_empty());
        assert_eq!(total_counters(&[]).rank, 0);
    }

    #[test]
    fn ideal_scaling() {
        assert!((speedup(8.0, 2.0) - 4.0).abs() < 1e-12);
        assert!((efficiency(8.0, 2.0, 4) - 1.0).abs() < 1e-12);
        // Perfect scaling → zero experimental serial fraction.
        assert!(karp_flatt(8.0, 2.0, 4).abs() < 1e-12);
    }

    #[test]
    fn no_scaling_karp_flatt_is_one() {
        // Tp == T1 → serial fraction 1.
        assert!((karp_flatt(5.0, 5.0, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_table_builds_from_measurements() {
        let table = scaling_table(&[(1, 10.0), (2, 6.0), (4, 4.0)]);
        assert_eq!(table.len(), 3);
        assert!((table[1].speedup - 10.0 / 6.0).abs() < 1e-12);
        assert!((table[2].efficiency - (10.0 / 4.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p=1 baseline")]
    fn scaling_table_requires_baseline() {
        scaling_table(&[(2, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_time_rejected() {
        speedup(1.0, 0.0);
    }
}
