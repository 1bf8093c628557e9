//! Failure injection: the runtimes must *diagnose* misuse, not hang or
//! corrupt — the property that makes them safe to hand to students.

use std::time::Duration;

use patternlets_core::reduce::ops;
use patternlets_core::Error;
use patternlets_mp::{FaultPlan, World, WorldBuilder};

#[test]
fn recv_with_no_sender_reports_deadlock_not_hang() {
    let out = World::run(3, |comm| {
        if comm.rank() == 2 {
            comm.recv::<i64>(0, 7).map(|_| ())
        } else {
            Ok(())
        }
    });
    assert!(matches!(out[2], Err(Error::Deadlock(_))));
}

#[test]
fn mutual_recv_cycle_reports_deadlock() {
    // Rank 0 waits on 1 and vice versa; nobody ever sends.
    let out = World::run(2, |comm| {
        let peer = 1 - comm.rank();
        comm.recv::<i64>(peer, 0).map(|_| ())
    });
    assert!(out.iter().all(|r| matches!(r, Err(Error::Deadlock(_)))));
}

#[test]
fn three_rank_wait_cycle_is_detected() {
    // 0 waits on 1, 1 waits on 2, 2 waits on 0 — a cycle no finished-rank
    // heuristic can see; the waits-for detector must break it.
    let out = World::run(3, |comm| {
        let next = (comm.rank() + 1) % 3;
        comm.recv::<i64>(next, 0).map(|_| ())
    });
    assert!(
        out.iter().all(|r| matches!(r, Err(Error::Deadlock(_)))),
        "{out:?}"
    );
}

#[test]
fn waiting_on_a_computing_rank_is_not_a_deadlock() {
    // Rank 1 computes for a while before sending; rank 0's blocked recv
    // must NOT be misdiagnosed while a live sender exists.
    let out = World::run(2, |comm| {
        if comm.rank() == 0 {
            comm.recv_one::<i64>(1, 0).map(|(v, _)| v)
        } else {
            std::thread::sleep(std::time::Duration::from_millis(300));
            comm.send_one(99i64, 0, 0).map(|_| 0)
        }
    });
    assert_eq!(out[0].as_ref().unwrap(), &99);
}

#[test]
fn chain_through_a_computing_rank_is_not_a_deadlock() {
    // 0 waits on 1 (blocked), 1 waits on 2 (computing): both waits are
    // transitively satisfiable; only a too-eager detector would fire.
    let out = World::run(3, |comm| match comm.rank() {
        0 => comm.recv_one::<i64>(1, 0).map(|(v, _)| v),
        1 => {
            let (v, _) = comm.recv_one::<i64>(2, 0)?;
            comm.send_one(v + 1, 0, 0)?;
            Ok(v)
        }
        _ => {
            std::thread::sleep(std::time::Duration::from_millis(250));
            comm.send_one(40i64, 1, 0).map(|_| 0)
        }
    });
    assert_eq!(out[0].as_ref().unwrap(), &41);
    assert_eq!(out[1].as_ref().unwrap(), &40);
}

#[test]
fn any_source_wait_survives_while_any_member_lives() {
    // Master waits with ANY_SOURCE; the last worker sends after a delay.
    use patternlets_mp::ANY_SOURCE;
    let out = World::run(4, |comm| {
        if comm.is_master() {
            comm.recv_one::<i64>(ANY_SOURCE, 0).map(|(v, _)| v)
        } else if comm.rank() == 3 {
            std::thread::sleep(std::time::Duration::from_millis(250));
            comm.send_one(7i64, 0, 0).map(|_| 0)
        } else {
            Ok(0) // exits immediately
        }
    });
    assert_eq!(out[0].as_ref().unwrap(), &7);
}

#[test]
fn barrier_abandoned_by_one_rank_is_detected() {
    // Rank 2 skips the barrier and exits; the dissemination waits of the
    // others must resolve to deadlock errors, not hangs.
    let out = World::run(3, |comm| {
        if comm.rank() == 2 {
            Ok(())
        } else {
            comm.barrier()
        }
    });
    assert!(out[2].is_ok());
    assert!(
        out[..2]
            .iter()
            .any(|r| matches!(r, Err(Error::Deadlock(_)))),
        "{out:?}"
    );
}

#[test]
fn self_recv_without_self_send_deadlocks() {
    let out = World::run(1, |comm| comm.recv::<i64>(0, 0).map(|_| ()));
    assert!(matches!(out[0], Err(Error::Deadlock(_))));
}

#[test]
fn wrong_type_is_rejected_with_both_names() {
    let out = World::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[1.5f64], 1, 0).map(|_| String::new())
        } else {
            match comm.recv::<i32>(0, 0) {
                Err(e) => Err(e),
                Ok(_) => Ok("wrongly accepted".into()),
            }
        }
    });
    match &out[1] {
        Err(Error::TypeMismatch { expected, found }) => {
            assert_eq!(*expected, "i32");
            assert_eq!(found, "f64");
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
}

#[test]
fn rank_out_of_range_on_send_recv_and_roots() {
    let out = World::run(2, |comm| {
        let send = comm.send(&[1i32], 7, 0);
        let recv = comm.recv::<i32>(9, 0).map(|_| ());
        let root = comm
            .reduce_one(5, 1i64, &patternlets_core::reduce::ops::Sum)
            .map(|_| ());
        (send, recv, root)
    });
    for (send, recv, root) in out {
        assert!(matches!(
            send,
            Err(Error::RankOutOfRange { rank: 7, size: 2 })
        ));
        assert!(matches!(
            recv,
            Err(Error::RankOutOfRange { rank: 9, size: 2 })
        ));
        assert!(matches!(
            root,
            Err(Error::RankOutOfRange { rank: 5, size: 2 })
        ));
    }
}

#[test]
fn one_rank_panicking_does_not_hang_its_peers() {
    // Rank 1 dies before sending. A panicked rank counts as *failed*, so
    // rank 0's recv must resolve to RankFailed (not Deadlock, and not a
    // hang), and the panic must still propagate out of the world.
    let result = std::panic::catch_unwind(|| {
        World::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("student bug");
            }
            // This would hang forever without the finish-guard + liveness
            // machinery.
            let r = comm.recv::<i64>(1, 0);
            assert!(matches!(r, Err(Error::RankFailed { rank: 1, .. })), "{r:?}");
        });
    });
    assert!(result.is_err(), "the rank's panic propagates");
}

#[test]
fn empty_world_is_a_config_error() {
    let err = WorldBuilder::new(0).run(|_| ()).unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)));
}

#[test]
fn collective_count_mismatches_are_reported() {
    use patternlets_core::reduce::ops;
    let out = World::run(2, |comm| {
        let gather = comm.gather(0, &vec![0i64; comm.rank() + 1]).map(|_| ());
        // Re-sync before the next collective so the mismatch errors don't
        // desynchronize the collective sequence numbers.
        comm.barrier().unwrap();
        let reduce = comm
            .reduce(0, &vec![0i64; comm.rank() + 1], &ops::Sum)
            .map(|_| ());
        (gather, reduce)
    });
    // The root observes both mismatches.
    assert!(matches!(out[0].0, Err(Error::CountMismatch { .. })));
    assert!(matches!(out[0].1, Err(Error::CountMismatch { .. })));
}

#[test]
fn shmem_team_of_zero_is_rejected() {
    let r = std::panic::catch_unwind(|| patternlets_shmem::Team::new(0));
    assert!(r.is_err());
}

#[test]
fn scheduler_rejects_zero_chunk() {
    let r = std::panic::catch_unwind(|| {
        patternlets_shmem::sched::LoopScheduler::new(patternlets_shmem::Schedule::Guided(0), 10, 2)
    });
    assert!(r.is_err());
}

// -- injected faults (FaultPlan) -----------------------------------------
//
// Everything below runs under a seeded fault plan, so each failure story
// replays identically: kills fire at fixed operation counts and chaos
// decisions come from a per-rank deterministic stream.

#[test]
fn killed_rank_surfaces_rank_failed_not_deadlock_at_the_receiver() {
    // Rank 1 is killed before it can send; rank 0's recv must name the
    // dead rank instead of misreporting the wait as a deadlock cycle.
    let out = WorldBuilder::new(2)
        .fault_plan(FaultPlan::seeded(11).kill_rank_after(1, 0))
        .poll_interval(Duration::from_millis(2))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.recv_one::<i64>(1, 0).map(|_| ())
            } else {
                comm.send_one(1i64, 0, 0)
            }
        })
        .unwrap();
    assert!(
        matches!(out[0], Err(Error::RankFailed { rank: 1, .. })),
        "{out:?}"
    );
    assert!(
        matches!(out[1], Err(Error::RankFailed { rank: 1, .. })),
        "{out:?}"
    );
}

#[test]
fn collective_with_a_dead_participant_errors_on_every_survivor() {
    let np = 5;
    let victim = 2;
    let out = WorldBuilder::new(np)
        .fault_plan(FaultPlan::seeded(12).kill_rank_after(victim, 0))
        .poll_interval(Duration::from_millis(2))
        .run(|comm| comm.allreduce(&[comm.rank() as i64], &ops::Sum).map(|_| ()))
        .unwrap();
    for (r, result) in out.iter().enumerate() {
        assert!(
            matches!(result, Err(Error::RankFailed { rank, .. }) if *rank == victim),
            "rank {r}: {result:?}"
        );
    }
}

#[test]
fn shrink_yields_a_working_survivor_communicator() {
    // After the failure, survivors agree() on the outcome, shrink(), and
    // both a barrier and an allreduce succeed on the new communicator.
    let np = 5;
    let victim = 3;
    let out = WorldBuilder::new(np)
        .fault_plan(FaultPlan::seeded(13).kill_rank_after(victim, 0))
        .poll_interval(Duration::from_millis(2))
        .run(|comm| {
            let step = comm.allreduce(&[1i64], &ops::Sum);
            if comm.rank() == victim {
                assert!(step.is_err());
                return None; // the dead rank is out of the protocol
            }
            let consensus = comm.agree(step.is_ok()).unwrap();
            assert!(!consensus, "some rank saw the failure");
            let sub = comm.shrink().unwrap();
            sub.barrier().unwrap();
            let survivors = sub.allreduce(&[1i64], &ops::Sum).unwrap()[0];
            Some((sub.size(), survivors))
        })
        .unwrap();
    for (r, result) in out.iter().enumerate() {
        if r == victim {
            assert_eq!(*result, None);
        } else {
            assert_eq!(*result, Some((np - 1, (np - 1) as i64)), "rank {r}");
        }
    }
}

#[test]
fn dropped_transmissions_are_retransmitted_and_delivered_exactly_once() {
    // A 50%-lossy link: every message is retried until it lands, and the
    // receiver's dedup guarantees no message is counted twice. The tracer
    // and the metrics hub must agree on one definition of "delivered":
    // a logical message is sent once and received once, no matter how
    // many extra transmissions (retransmits, chaos duplicates) its
    // envelope needed on the way — those are counted separately and must
    // never inflate the send/recv totals.
    use patternlets_metrics::{CounterId, MetricsHub};
    use patternlets_trace::{EventKind, Tracer};

    const MSGS: u64 = 20;
    let tracer = Tracer::new();
    let hub = MetricsHub::new();
    let out = WorldBuilder::new(2)
        .tracer(tracer.clone())
        .metrics(hub.clone())
        .fault_plan(FaultPlan::seeded(14).drop(0.5).duplicate(0.3))
        .run(|comm| {
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..MSGS {
                    seen.push(comm.recv_one::<u64>(1, 0).unwrap().0);
                }
                seen
            } else {
                for i in 0..MSGS {
                    comm.send_one(i, 0, 0).unwrap();
                }
                Vec::new()
            }
        })
        .unwrap();
    assert_eq!(out[0], (0..MSGS).collect::<Vec<_>>());

    // Trace counts: one MsgSend and one MsgRecv per logical message.
    let trace = tracer.drain();
    let retransmits = trace.count(|e| matches!(e.kind, EventKind::Retransmit { .. })) as u64;
    let dup_drops = trace.count(|e| matches!(e.kind, EventKind::DupDropped)) as u64;
    assert_eq!(trace.sends() as u64, MSGS, "trace sends inflated by chaos");
    assert_eq!(trace.recvs() as u64, MSGS, "trace recvs inflated by chaos");
    assert!(retransmits > 0, "a 50% drop rate must retransmit");

    // Metrics counters: same definition, same numbers.
    let snap = hub.snapshot();
    let sent = snap.msgs_sent();
    let delivered = snap.total(CounterId::MsgsRecv);
    assert_eq!(sent, MSGS, "metrics sends inflated by chaos");
    assert_eq!(delivered, MSGS, "metrics recvs inflated by chaos");
    assert_eq!(
        snap.total(CounterId::Retransmits),
        retransmits,
        "tracer and metrics disagree on retransmissions"
    );
    assert_eq!(
        snap.total(CounterId::DupDrops),
        dup_drops,
        "tracer and metrics disagree on duplicates dropped"
    );
}

#[test]
fn shmem_barrier_abandoned_by_a_panicking_member_surfaces_task_panicked() {
    use patternlets_shmem::Team;
    let team = Team::new(4);
    let verdicts = team.try_parallel_map(|ctx| {
        if ctx.thread_num() == 2 {
            panic!("injected shmem fault");
        }
        ctx.try_barrier()?;
        Ok(ctx.thread_num())
    });
    assert!(
        matches!(&verdicts[2], Err(Error::TaskPanicked { task: 2, .. })),
        "{verdicts:?}"
    );
    for (t, v) in verdicts.iter().enumerate() {
        if t != 2 {
            assert!(
                matches!(v, Err(Error::TaskPanicked { task: 2, .. })),
                "survivor {t} must see the panic, got {v:?}"
            );
        }
    }
}

#[test]
fn resilience_master_worker_completes_all_work_despite_a_kill() {
    use patternlets::harness::{Mode, RunConfig};
    use patternlets::registry::find;
    let p = find("resilience/master_worker").unwrap();
    for victim in [1, 2, 3] {
        let cfg = RunConfig::new(4, Mode::On).with_kill(Some(victim));
        (p.run)(&cfg);
        let texts = cfg.output.texts();
        let mut squares: Vec<u64> = texts
            .iter()
            .filter(|t| t.contains("returned"))
            .map(|t| t.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        squares.sort_unstable();
        let mut expected: Vec<u64> = (0..12u64).map(|i| i * i).collect();
        expected.sort_unstable();
        assert_eq!(squares, expected, "victim={victim}: {texts:?}");
        assert!(
            texts
                .iter()
                .any(|t| t.contains("3 of 4 ranks survive and confirm 12/12 results")),
            "victim={victim}: {texts:?}"
        );
    }
}

#[test]
fn codec_rejects_corrupt_payloads() {
    use bytes_shim::corrupt_roundtrip;
    corrupt_roundtrip();
}

/// Exercise decode paths against malformed byte streams without making the
/// test depend on `bytes` directly.
mod bytes_shim {
    use patternlets_mp::Datatype;

    pub fn corrupt_roundtrip() {
        // A 3-byte payload can never be a whole number of i32s.
        let bogus = bytes::Bytes::from_static(&[1, 2, 3]);
        assert!(i32::decode_slice(&bogus, 1).is_err());
        // Strings with a length prefix pointing past the end.
        let mut long = Vec::new();
        long.extend_from_slice(&u64::MAX.to_le_bytes());
        let bogus = bytes::Bytes::from(long);
        assert!(String::decode_slice(&bogus, 1).is_err());
    }
}

// ---------------------------------------------------------------------------
// The same failure semantics over the TCP transport: a dead *process* must
// surface exactly like a fault-plan kill, and a clean exit must not. These
// build a real socket mesh inside one test process — each fabric plays one
// world rank, exactly as `pmrun`'s workers do (the full process-level story,
// SIGKILL included, runs in `crates/collection/tests/pmrun.rs`).
// ---------------------------------------------------------------------------

mod tcp_failures {
    use std::time::{Duration, Instant};

    use patternlets_mp::{Envelope, Fabric, WorldBuilder, WorldSpec};
    use patternlets_net::{rendezvous, TcpFabric};

    fn mesh(np: usize, epoch: u64) -> Vec<TcpFabric> {
        let server = rendezvous::serve().unwrap().to_string();
        let spec = WorldSpec {
            np,
            ranks_per_node: 1,
            fault: None,
            poll_interval: Duration::from_millis(2),
            tracer: None,
            metrics: None,
            epoch,
        };
        let handles: Vec<_> = (0..np)
            .map(|me| {
                let server = server.clone();
                let spec = spec.clone();
                std::thread::spawn(move || TcpFabric::establish(&server, me, &spec).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn severed_peer_is_failed_but_finished_peer_is_not() {
        let fabrics = mesh(3, 100);
        fabrics[0].finish(0); // clean exit
        fabrics[1].sever(); // the moral equivalent of SIGKILL
        let survivor = &fabrics[2];
        wait_until("finish frame", || !survivor.rank_alive(0));
        wait_until("failure verdict", || survivor.rank_failed(1));
        assert!(
            !survivor.rank_failed(0),
            "a clean exit must never read as a failure"
        );
        fabrics[2].finish(2);
    }

    #[test]
    fn agreement_shrinks_around_a_dead_process() {
        // The ULFM building block: agree() completes among survivors with
        // the dead rank absent from the final map, so shrink() can form
        // the survivor communicator.
        let fabrics = mesh(3, 101);
        fabrics[2].sever();
        wait_until("failure verdict", || fabrics[0].rank_failed(2));
        let slots = std::thread::scope(|scope| {
            let handles: Vec<_> = [0usize, 1]
                .into_iter()
                .map(|me| {
                    let fabric = &fabrics[me];
                    scope.spawn(move || fabric.agreement((7, 1, 0), me, me as u64, &[0, 1, 2]))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (me, slot) in slots.iter().enumerate() {
            assert!(slot.contains_key(&0) && slot.contains_key(&1), "rank {me}");
            assert!(
                !slot.contains_key(&2),
                "the dead rank contributed nothing: {slot:?}"
            );
        }
        fabrics[0].finish(0);
        fabrics[1].finish(1);
    }

    #[test]
    fn per_comm_dedup_state_is_pruned_on_teardown() {
        // The seen-map leak fix, observed through the real transport:
        // duplicate deliveries accumulate per-(comm, sender) dedup marks;
        // pruning a communicator releases exactly its share.
        let fabrics = mesh(2, 102);
        for comm_id in 0..8u64 {
            for seq in 0..4u64 {
                let env = Envelope {
                    comm_id,
                    src: 0,
                    tag: 1,
                    type_name: "u8",
                    count: 1,
                    payload: patternlets_mp::Payload::Bytes(bytes::Bytes::from(vec![9])),
                    seq,
                    needs_ack: false,
                };
                // duplicate=true: the receiver's mailbox must dedup, which
                // is precisely what populates the seen map.
                fabrics[0].deliver(0, 1, env, 0, true);
            }
        }
        let mailbox = fabrics[1].mailbox(1);
        wait_until("all envelopes", || {
            mailbox
                .probe(
                    7,
                    patternlets_mp::SourceSel::Any,
                    patternlets_mp::TagSel::Any,
                )
                .is_some()
        });
        assert_eq!(mailbox.seen_entries(), 8, "one dedup mark per communicator");
        for comm_id in 0..7u64 {
            fabrics[1].prune_comm(1, comm_id);
        }
        assert_eq!(
            mailbox.seen_entries(),
            1,
            "only the live comm's mark remains"
        );
        fabrics[0].finish(0);
        fabrics[1].finish(1);
    }

    #[test]
    fn duplicates_over_a_tcp_mesh_are_traced_where_they_are_counted() {
        // A duplicate-heavy fault plan over real sockets: each duplicate
        // crosses the wire and the receiving process's mailbox swallows
        // it. The trace must show exactly the drops the hub counts.
        use patternlets_metrics::{CounterId, MetricsHub};
        use patternlets_mp::FaultPlan;
        use patternlets_net::{install_job_fabric, with_job_ctx, JobCtx};
        use patternlets_trace::{EventKind, Tracer};

        const MSGS: u64 = 40;
        assert!(install_job_fabric(), "no other provider in this binary");
        let server = rendezvous::serve().unwrap().to_string();
        let tracer = Tracer::new();
        let hub = MetricsHub::new();
        std::thread::scope(|scope| {
            for me in 0..2 {
                let (server, tracer, hub) = (server.clone(), tracer.clone(), hub.clone());
                scope.spawn(move || {
                    let job = JobCtx::new(me, 2, server, 200, None);
                    with_job_ctx(job, || {
                        WorldBuilder::new(2)
                            .tracer(tracer)
                            .metrics(hub)
                            .fault_plan(FaultPlan::seeded(21).duplicate(0.5))
                            .run(|comm| {
                                for i in 0..MSGS {
                                    if comm.rank() == 0 {
                                        comm.send_one(i, 1, 0).unwrap();
                                    } else {
                                        assert_eq!(comm.recv_one::<u64>(0, 0).unwrap().0, i);
                                    }
                                }
                                comm.barrier().unwrap();
                            })
                            .unwrap()
                    });
                });
            }
        });
        let traced = tracer
            .drain()
            .count(|e| matches!(e.kind, EventKind::DupDropped)) as u64;
        let counted = hub.snapshot().total(CounterId::DupDrops);
        assert!(counted > 0, "a 50% duplicate rate must drop duplicates");
        assert_eq!(traced, counted, "the trace misses duplicate drops");
    }
}
