//! The counts behind `patternlets run --counters`, read from a metrics hub
//! with no tracer attached, checked against DESIGN.md §3's closed forms.

use patternlets::harness::{Mode, RunConfig};
use patternlets::registry::find;
use patternlets_metrics::{CounterId, HistId, MetricsHub};

#[test]
fn broadcast_patternlet_counts_come_from_the_hub_alone() {
    // Binomial bcast moves the payload once per non-root rank, and every
    // rank enters the collective once.
    let p = find("mpi/broadcast").expect("registered");
    for np in [2usize, 4, 7] {
        let hub = MetricsHub::new();
        let cfg = RunConfig::new(np, Mode::On).with_metrics(hub.clone());
        (p.run)(&cfg);
        assert!(cfg.tracer.is_none());
        let snap = hub.snapshot();
        assert_eq!(snap.msgs_sent(), np as u64 - 1, "sends, np={np}");
        assert_eq!(
            snap.total(CounterId::MsgsRecv),
            np as u64 - 1,
            "recvs, np={np}"
        );
        assert_eq!(
            snap.hist_total(HistId::coll("bcast")).count(),
            np as u64,
            "bcast phases, np={np}"
        );
    }
}
