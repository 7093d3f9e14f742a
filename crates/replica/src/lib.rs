#![warn(missing_docs)]

//! # ltpg-replica — deterministic replication and automatic failover
//!
//! LTPG's commit decision is a pure function of (snapshot, batch, TIDs):
//! the conflict-detection kernel's verdicts depend only on data that is
//! identical on every replica that has applied the same WAL prefix. That
//! is the Calvin-style determinism dividend — replicas need no
//! coordination protocol, no primary→standby state shipping, and no 2PC;
//! they just replay the batch-id-aligned commit stream and are
//! bit-identical by construction.
//!
//! This crate packages that dividend into three pieces:
//!
//! - [`ReplicaSet`] — N warm standby rows (one engine per shard) replaying
//!   the logged batch stream behind the primary, with catch-up replay from
//!   checkpoint + WAL for lagging rows and promotion of the freshest row
//!   at a batch boundary. The batch-id alignment machinery of the sharded
//!   server (every shard logs a record for every global batch id, empty
//!   sub-batches included) is exactly the cutover barrier: "promote at
//!   batch b" means the same instant on every shard.
//! - [`HealthMonitor`] — consecutive-miss heartbeat fencing with the
//!   verdict rules spelled out in [`health`]. False positives are safe:
//!   the promoted standby serves the same history the fenced primary
//!   would have.
//! - re-enlistment — a device that comes back from a timed outage
//!   ([`ltpg_gpu_sim::Device::revive`] + `reset_for_reuse`) is rebuilt
//!   into a fresh standby row over the current checkpoint instead of
//!   staying benched forever.
//!
//! The pool is driven through [`ReplicaSet::observe`] /
//! [`ReplicaSet::promote_row`] with a [`ReplayDriver`] supplied by the
//! sharded server (`ltpg_shard::ShardedServer::attach_replicas`), which
//! replays each logged batch by its own serving round, because
//! cross-shard transactions need a remote view over row peers that only
//! the shard layer can build. A one-shard server is the single-device
//! case; there is no second failover path.
//!
//! Everything publishes under the `REPLICA_*` names in
//! [`ltpg_telemetry::names`]: per-standby lag gauges, promotion /
//! demotion / re-promotion counters, and a failover-latency histogram.

pub mod health;
pub mod set;

pub use health::{HealthMonitor, Heartbeat, HealthVerdict};
pub use set::{MergedWords, ReplayDriver, ReplicaConfig, ReplicaError, ReplicaSet};

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg::{CpuTwin, DurabilityManager, LtpgConfig, LtpgEngine, LtpgServer, ServerConfig};
    use ltpg_gpu_sim::Device;
    use ltpg_storage::{Database, TableBuilder, TableId};
    use ltpg_telemetry::{names, Registry};
    use ltpg_txn::{decode_batch, Batch, BatchEngine, BatchReport, IrOp, ProcId, Src, Txn};
    use std::sync::Arc;

    fn db_and_writers(n: usize, keys: i64) -> (Database, Vec<Txn>) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..keys {
            db.table(t).insert(k, &[0, 0]).unwrap();
        }
        let txns = (0..n as i64)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update {
                        table: TableId(0),
                        key: Src::Const(i % keys),
                        col: ltpg_storage::ColId(0),
                        val: Src::Const(i + 1),
                    }],
                )
            })
            .collect();
        (db, txns)
    }

    /// A primary whose WAL the standbys replay.
    fn server(db: Database, batch: usize) -> LtpgServer {
        LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        )
    }

    fn standbys(primary: &LtpgServer, n: usize, registry: Arc<Registry>) -> ReplicaSet {
        ReplicaSet::new(
            vec![primary.durability().checkpoint_image()],
            primary.durability().checkpoint_batch(),
            LtpgConfig::default(),
            &ReplicaConfig { standbys: n, ..ReplicaConfig::default() },
            registry,
        )
    }

    /// Logged batch `batch_id`, decoded.
    fn logged_batch(dur: &DurabilityManager, batch_id: u64) -> Result<Batch, ReplicaError> {
        let rec = dur.log().fetch(batch_id).ok_or(ReplicaError::WalGap { batch_id })?;
        let txns =
            decode_batch(&rec.payload).map_err(|e| ReplicaError::Corrupt(format!("{e:?}")))?;
        Ok(Batch { txns })
    }

    /// One-shard replay: decode the logged batch and execute it on the
    /// row's lone engine.
    fn replay(
        dur: &DurabilityManager,
    ) -> impl FnMut(&mut [LtpgEngine], u64) -> Result<MergedWords, ReplicaError> + '_ {
        move |engines, batch_id| {
            let batch = logged_batch(dur, batch_id)?;
            engines[0].try_execute_batch_report(&batch).map_err(ReplicaError::Dead)?;
            Ok(MergedWords::new())
        }
    }

    fn logged(primary: &LtpgServer) -> u64 {
        primary.durability().logged_batches() as u64
    }

    /// Hand serving over to a successor executor at batch `*next`: tick
    /// the primary (the batch sequencer) up to `ticks` more times, run
    /// every newly logged batch on `exec`, and check that its verdicts
    /// are exactly the primary's.
    fn take_over(
        primary: &mut LtpgServer,
        next: &mut u64,
        ticks: usize,
        exec: &mut dyn FnMut(&Batch) -> BatchReport,
    ) {
        for _ in 0..ticks {
            let Some(summary) = primary.tick() else { break };
            let (mut committed, mut aborted) = (Vec::new(), Vec::new());
            while *next < logged(primary) {
                let report = exec(&logged_batch(primary.durability(), *next).unwrap());
                committed.extend(report.committed);
                aborted.extend(report.aborted);
                *next += 1;
            }
            let (mut want_committed, mut want_aborted) = (summary.committed, summary.aborted);
            for v in [&mut committed, &mut aborted, &mut want_committed, &mut want_aborted] {
                v.sort();
            }
            assert_eq!(committed, want_committed, "successor must commit what the primary did");
            assert_eq!(aborted, want_aborted, "successor must abort what the primary did");
        }
    }

    /// Tick the primary `ticks` times (or until idle), letting the pool
    /// observe the log after each tick.
    fn serve(primary: &mut LtpgServer, set: &mut ReplicaSet, ticks: usize) {
        for _ in 0..ticks {
            if primary.tick().is_none() {
                break;
            }
            let tail = primary.durability().logged_batches() as u64;
            set.observe(tail, &mut replay(primary.durability()));
        }
    }

    #[test]
    fn failover_preserves_history_bit_for_bit() {
        let (db, txns) = db_and_writers(120, 7);
        let mut reference = server(db.deep_clone(), 16);
        reference.submit_all(txns.clone());
        let ref_stats = reference.drain(200).clone();

        let mut primary = server(db, 16);
        let mut set = standbys(&primary, 1, Arc::clone(primary.telemetry()));
        primary.submit_all(txns);
        // Serve a few batches, then lose the primary's device at a
        // boundary: the standby row is promoted and executes every later
        // batch itself.
        serve(&mut primary, &mut set, 2);
        let mut next = logged(&primary);
        let (mut engines, _, _) =
            set.promote_row(next, &mut replay(primary.durability())).expect("promotable");
        let engine = &mut engines[0];
        take_over(&mut primary, &mut next, 200, &mut |b| {
            engine.try_execute_batch_report(b).expect("promoted device is healthy").report
        });

        assert_eq!(next, ref_stats.batches, "cutover must not change batching");
        assert_eq!(
            engine.database().state_digest(),
            reference.database().state_digest(),
            "promoted standby must serve the exact fault-free history"
        );
        let reg = primary.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        assert_eq!(
            reg.counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
            0,
            "the CPU fallback must not have been touched"
        );
        assert!(reg.histogram(names::REPLICA_FAILOVER_NS).snapshot().count >= 1);
    }

    #[test]
    fn exhausted_pool_falls_back_to_cpu() {
        let (db, txns) = db_and_writers(80, 5);
        let mut reference = server(db.deep_clone(), 16);
        reference.submit_all(txns.clone());
        reference.drain(200);

        let mut primary = server(db, 16);
        let mut set = standbys(&primary, 1, Arc::clone(primary.telemetry()));
        primary.submit_all(txns);
        serve(&mut primary, &mut set, 1);
        let mut next = logged(&primary);
        // The first loss consumes the only standby.
        let (mut engines, _, _) =
            set.promote_row(next, &mut replay(primary.durability())).expect("promotable");
        let mut gpu = Some(engines.remove(0));
        let engine = gpu.as_mut().unwrap();
        take_over(&mut primary, &mut next, 1, &mut |b| {
            engine.try_execute_batch_report(b).expect("promoted device is healthy").report
        });
        // The second loss finds the pool empty: the CPU twin takes over
        // the promoted engine's state.
        gpu.as_ref().unwrap().device().fail_now();
        assert!(set.promote_row(next, &mut replay(primary.durability())).is_none());
        let mut twin: Option<CpuTwin> = None;
        let mut fallbacks = 0;
        take_over(&mut primary, &mut next, 200, &mut |b| {
            if let Some(engine) = gpu.as_mut() {
                if let Ok(r) = engine.try_execute_batch_report(b) {
                    return r.report;
                }
                fallbacks += 1;
                let db = gpu.take().unwrap().into_database();
                twin = Some(CpuTwin::new(db, LtpgConfig::default()));
            }
            let twin = twin.as_mut().unwrap();
            let prepared = twin.prepare(b, None);
            twin.finish(b, prepared, None).0
        });

        assert_eq!(fallbacks, 1, "second loss must degrade to the CPU fallback");
        assert!(gpu.is_none());
        assert_eq!(
            twin.unwrap().into_database().state_digest(),
            reference.database().state_digest()
        );
        assert_eq!(primary.telemetry().counter_value(names::REPLICA_PROMOTIONS), 1);
    }

    #[test]
    fn recovered_device_reenlists_as_a_standby() {
        let (db, txns) = db_and_writers(120, 6);
        let mut primary = server(db, 16);
        let reg = Arc::clone(primary.telemetry());
        let mut set = standbys(&primary, 1, Arc::clone(&reg));
        primary.submit_all(txns);
        serve(&mut primary, &mut set, 1);
        // The primary's device is lost at a boundary and the only standby
        // is promoted in its place.
        let lost = Arc::new(Device::new(LtpgConfig::default().device));
        lost.fail_now();
        let mut next = logged(&primary);
        let (mut engines, _, _) =
            set.promote_row(next, &mut replay(primary.durability())).expect("promotable");
        assert_eq!(set.rows_alive(), 0);
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 0);
        let engine = &mut engines[0];
        take_over(&mut primary, &mut next, 2, &mut |b| {
            engine.try_execute_batch_report(b).expect("promoted device is healthy").report
        });
        // Two batches later the device comes back and rejoins the pool as
        // a fresh standby row over the current checkpoint.
        lost.revive();
        lost.reset_for_reuse();
        set.spawn_row_with_device(
            vec![primary.durability().checkpoint_image()],
            primary.durability().checkpoint_batch(),
            Arc::clone(&lost),
        );
        take_over(&mut primary, &mut next, 200, &mut |b| {
            engine.try_execute_batch_report(b).expect("promoted device is healthy").report
        });
        set.observe(logged(&primary), &mut replay(primary.durability()));

        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        assert_eq!(
            reg.counter_value(names::REPLICA_REPROMOTIONS),
            1,
            "the revived device must have rejoined the pool as a standby"
        );
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 1);
        assert_eq!(set.lags(logged(&primary)), vec![(1, 0)], "the new row caught up");
        let (revived, _, _) =
            set.promote_row(next, &mut replay(primary.durability())).expect("promotable");
        assert!(Arc::ptr_eq(&revived[0].device_handle(), &lost));
        assert_eq!(
            revived[0].database().state_digest(),
            engine.database().state_digest(),
            "the re-enlisted row replays to the serving state"
        );
    }

    #[test]
    fn lagging_standby_catches_up_on_promotion() {
        let (db, txns) = db_and_writers(120, 7);
        let mut primary = server(db, 16);
        let mut set = standbys(&primary, 1, Arc::clone(primary.telemetry()));
        set.inject_lag(0, 3); // chaos: hold the standby 3 batches behind
        primary.submit_all(txns);
        serve(&mut primary, &mut set, 5);
        let reg = Arc::clone(primary.telemetry());
        let lag_before = reg.gauge_value(&names::replica_standby_lag_gauge(0));
        assert!(lag_before >= 3, "injected lag must show on the gauge, got {lag_before}");
        let catchup_before = reg.counter_value(names::REPLICA_CATCHUP_BATCHES);
        let upto = primary.durability().logged_batches() as u64;
        let (engines, _, _) =
            set.promote_row(upto, &mut replay(primary.durability())).expect("promotable");
        assert_eq!(
            engines[0].database().state_digest(),
            primary.database().state_digest(),
            "catch-up replay must close the injected gap exactly"
        );
        assert_eq!(reg.counter_value(names::REPLICA_CATCHUP_BATCHES), catchup_before + 3);
    }

    #[test]
    fn standby_replay_tracks_the_log_and_lag_metrics_publish() {
        let (db, txns) = db_and_writers(64, 4);
        let mut primary = server(db, 16);
        let mut set = standbys(&primary, 2, Arc::clone(primary.telemetry()));
        primary.submit_all(txns);
        serve(&mut primary, &mut set, 100);
        let reg = primary.telemetry();
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 2);
        assert_eq!(reg.gauge_value(&names::replica_standby_lag_gauge(0)), 0);
        assert_eq!(reg.gauge_value(&names::replica_standby_lag_gauge(1)), 0);
        assert!(reg.counter_value(names::REPLICA_CATCHUP_BATCHES) > 0);
        assert!(reg.histogram(names::REPLICA_LAG_BATCHES).snapshot().count > 0);
    }

    #[test]
    fn promote_row_prefers_the_freshest_row() {
        let (db, txns) = db_and_writers(64, 4);
        let mut primary = server(db, 16);
        let mut set = standbys(&primary, 2, Registry::new_shared());
        set.inject_lag(0, 100); // row 0 pinned at the checkpoint
        primary.submit_all(txns);
        serve(&mut primary, &mut set, 3);
        let lags = set.lags(primary.durability().logged_batches() as u64);
        assert!(lags.iter().any(|&(id, lag)| id == 0 && lag >= 3));
        assert!(lags.iter().any(|&(id, lag)| id == 1 && lag == 0));
        // Promotion picks row 1 (fresh) and costs zero catch-up batches
        // beyond the already-applied tail.
        let before = set.registry().counter_value(names::REPLICA_CATCHUP_BATCHES);
        let upto = primary.durability().logged_batches() as u64;
        let (engines, words, _) =
            set.promote_row(upto, &mut replay(primary.durability())).expect("promotable");
        assert_eq!(
            engines[0].database().state_digest(),
            primary.database().state_digest(),
            "fresh standby is already bit-identical to the primary"
        );
        assert_eq!(set.registry().counter_value(names::REPLICA_CATCHUP_BATCHES), before);
        assert!(words.is_empty(), "nothing was replayed, so no words");
        assert_eq!(set.rows_alive(), 1, "the promoted row left the pool");
    }
}
