//! Crash-recovery hardening: seeded fault-injection sweeps.
//!
//! Each seed derives a complete failure schedule ([`ltpg::FaultPlan`]):
//! transient device transfer faults, a hard device loss (possibly
//! mid-batch, between phase kernels), a crashpoint at a batch boundary,
//! and WAL damage (torn tail, frame corruption) applied at crash time.
//! The sweep runs a mixed workload under every schedule, kills the server
//! at the crashpoint, damages the log, and recovers — asserting that
//!
//! - recovery reproduces the uninterrupted run's state digest for exactly
//!   the batches that survived on disk,
//! - all injected damage surfaces as typed [`ltpg::RecoveryError`]s,
//!   never a panic,
//! - device loss degrades the live server to the deterministic CPU
//!   fallback with bit-identical commit history.

use ltpg::{
    DurabilityManager, FaultHorizon, FaultInjector, FaultPlan, LtpgConfig, LtpgEngine,
    LtpgServer, RecoveryError, RecoveryOptions, ServerConfig, TailPolicy,
};
use ltpg_storage::{ColId, Database, FrameError, TableBuilder, TableId};
use ltpg_txn::{Batch, BatchEngine, IrOp, ProcId, Src, TidGen, Txn};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PLAIN_KEYS: i64 = 24;
const HOT_KEYS: i64 = 4;

/// Two tables: `plain` (updates / RMW adds / inserts / deletes / reads)
/// and `hot`, whose column 1 is commutatively maintained via delayed
/// update. Deletes and updates never touch `hot` column 1, so no
/// transaction is forced-aborted forever.
fn build_db() -> (Database, TableId, TableId) {
    let mut db = Database::new();
    let plain = db.add_table(
        TableBuilder::new("plain").columns(["a", "b"]).capacity(8_192).build(),
    );
    let hot = db.add_table(TableBuilder::new("hot").columns(["x", "y"]).capacity(64).build());
    for k in 0..PLAIN_KEYS {
        db.table(plain).insert(k, &[k, 0]).unwrap();
    }
    for k in 0..HOT_KEYS {
        db.table(hot).insert(k, &[0, 0]).unwrap();
    }
    (db, plain, hot)
}

fn engine_cfg(hot: TableId) -> LtpgConfig {
    let mut cfg = LtpgConfig::default();
    cfg.delayed_cols.insert((hot, ColId(1)));
    cfg
}

/// A deterministic mixed workload: contended updates, plain RMW adds,
/// commutative hot-column adds, inserts of fresh keys, deletes, reads.
fn mixed_txns(plain: TableId, hot: TableId, seed: u64, n: usize) -> Vec<Txn> {
    let mut s = seed ^ 0xA076_1D64_78BD_642F;
    let mut fresh_key = 1_000_000 + (seed as i64) * 10_000;
    (0..n)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..1 + splitmix64(&mut s) % 3 {
                match splitmix64(&mut s) % 6 {
                    0 => ops.push(IrOp::Update {
                        table: plain,
                        key: Src::Const((splitmix64(&mut s) % PLAIN_KEYS as u64) as i64),
                        col: ColId(0),
                        val: Src::Const((splitmix64(&mut s) % 1_000) as i64),
                    }),
                    1 => ops.push(IrOp::Add {
                        table: plain,
                        key: Src::Const((splitmix64(&mut s) % PLAIN_KEYS as u64) as i64),
                        col: ColId(1),
                        delta: Src::Const(1 + (splitmix64(&mut s) % 9) as i64),
                    }),
                    2 => ops.push(IrOp::Add {
                        table: hot,
                        key: Src::Const((splitmix64(&mut s) % HOT_KEYS as u64) as i64),
                        col: ColId(1),
                        delta: Src::Const(1 + (splitmix64(&mut s) % 5) as i64),
                    }),
                    3 => {
                        fresh_key += 1;
                        ops.push(IrOp::Insert {
                            table: plain,
                            key: Src::Const(fresh_key),
                            values: vec![Src::Const(7), Src::Const(7)],
                        });
                    }
                    4 => ops.push(IrOp::Delete {
                        table: plain,
                        key: Src::Const((splitmix64(&mut s) % PLAIN_KEYS as u64) as i64),
                    }),
                    _ => ops.push(IrOp::Read {
                        table: hot,
                        key: Src::Const((splitmix64(&mut s) % HOT_KEYS as u64) as i64),
                        col: ColId(0),
                        out: 0,
                    }),
                }
            }
            Txn::new(ProcId(0), vec![], ops)
        })
        .collect()
}

const SWEEP_SEEDS: u64 = 40;
const SWEEP_TXNS: usize = 128;
const SWEEP_BATCH: usize = 16;

/// What one seeded run observed.
#[derive(Default)]
struct SweepObservations {
    killed: bool,
    degraded: bool,
    torn_tail: bool,
    frame_error: bool,
    quiet: bool,
}

fn run_one_seed(seed: u64) -> SweepObservations {
    let (db, plain, hot) = build_db();
    let cfg = engine_cfg(hot);
    let initial_digest = db.state_digest();
    let mut server = LtpgServer::new(
        db,
        cfg.clone(),
        ServerConfig {
            batch_size: SWEEP_BATCH,
            pipelined: true,
            checkpoint_every: Some(4),
            ..ServerConfig::default()
        },
    );
    let plan = FaultPlan::from_seed(seed, FaultHorizon::for_batches(14));
    let injector = FaultInjector::new(plan.clone());
    let mut obs = SweepObservations { quiet: plan.is_quiet(), ..SweepObservations::default() };
    server.arm_faults(injector.device_plan());
    server.submit_all(mixed_txns(plain, hot, seed, SWEEP_TXNS));

    // Digest after each executed batch — the uninterrupted history the
    // recovered state must land on.
    let mut digests: Vec<u64> = Vec::new();
    for _ in 0..400 {
        let before = server.stats().batches;
        match server.try_tick().expect("live log is undamaged; ticking cannot fail") {
            None => break,
            Some(_) => {
                if server.stats().batches > before {
                    digests.push(server.database().state_digest());
                    if injector.should_kill_after_batch(server.stats().batches - 1) {
                        obs.killed = true;
                        break; // the process dies here
                    }
                }
            }
        }
    }
    obs.degraded = server.is_degraded();

    // Crash aftermath: damage the on-disk log the way a dying process
    // would, then recover.
    let damage = injector.damage_wal(server.durability().log());
    let outcome =
        server.durability().recover_with(cfg, &RecoveryOptions { tail_policy: TailPolicy::Truncate });
    match outcome {
        Ok(o) => {
            assert_eq!(
                damage.frames_corrupted, 0,
                "seed {seed}: corrupted frames must surface as typed errors"
            );
            obs.torn_tail = o.stats.torn_tail;
            let total = server.durability().checkpoint_batch() + o.stats.frames_replayed;
            let expect = if total == 0 {
                initial_digest
            } else {
                digests[total as usize - 1]
            };
            assert_eq!(
                o.db.state_digest(),
                expect,
                "seed {seed}: recovered state must equal the uninterrupted run \
                 after {total} batches"
            );
        }
        Err(RecoveryError::Frame(_)) => {
            assert!(
                damage.frames_corrupted > 0,
                "seed {seed}: a frame error requires injected frame corruption"
            );
            obs.frame_error = true;
        }
        Err(other) => panic!("seed {seed}: unexpected recovery error {other}"),
    }
    obs
}

#[test]
fn crash_recovery_seed_sweep() {
    let mut seen = SweepObservations::default();
    for seed in 0..SWEEP_SEEDS {
        let obs = run_one_seed(seed);
        seen.killed |= obs.killed;
        seen.degraded |= obs.degraded;
        seen.torn_tail |= obs.torn_tail;
        seen.frame_error |= obs.frame_error;
        seen.quiet |= obs.quiet;
    }
    // The sweep is only meaningful if it actually exercised every failure
    // class at least once.
    assert!(seen.killed, "no seed hit a crashpoint");
    assert!(seen.degraded, "no seed lost the device");
    assert!(seen.torn_tail, "no seed tore the WAL tail");
    assert!(seen.frame_error, "no seed corrupted a frame");
    assert!(seen.quiet, "no fault-free control seed");
}

#[test]
fn forced_device_loss_drains_remaining_workload_on_cpu_identically() {
    let (db, plain, hot) = build_db();
    let cfg = engine_cfg(hot);
    let txns = mixed_txns(plain, hot, 99, 200);

    let mut reference = LtpgServer::new(
        db.deep_clone(),
        cfg.clone(),
        ServerConfig { batch_size: 20, ..ServerConfig::default() },
    );
    reference.submit_all(txns.clone());
    let ref_stats = reference.drain(400).clone();
    assert!(!reference.is_degraded());

    let mut server =
        LtpgServer::new(db, cfg, ServerConfig { batch_size: 20, ..ServerConfig::default() });
    server.submit_all(txns);
    server.tick().unwrap();
    server.tick().unwrap();
    server.force_device_failure(); // hard crashpoint at a batch boundary
    let stats = server.drain(400).clone();

    assert!(server.is_degraded());
    assert_eq!(server.executor_name(), "LTPG-CPU-fallback");
    assert_eq!(stats.faults.fallback_activations, 1);
    assert_eq!(stats.committed, ref_stats.committed);
    assert_eq!(stats.batches, ref_stats.batches);
    assert_eq!(
        server.database().state_digest(),
        reference.database().state_digest(),
        "the degraded run's commit decisions must be bit-identical to all-GPU"
    );
}

/// Crashes *inside the promotion window*, at 1 and 4 shards. Seeds whose
/// [`FaultPlan`] drew a [`PromotionCrashpoint`] run a [`ShardedServer`]
/// with a warm standby row attached; a shard's device is lost at a batch
/// boundary, the heartbeat fences it, and the injected crash kills the
/// "process" either before the standby replays anything or after the
/// catch-up replay but before the cutover completes. Both must surface as
/// [`ServerError::InjectedCrash`] (never a panic), and recovery from every
/// shard's checkpoint + WAL must converge to the exact per-slice digests
/// of an un-crashed run — the promotion window adds no new durability
/// states.
#[test]
fn promotion_crashpoint_sweep_recovers_to_the_uncrashed_digest() {
    use ltpg::{PromotionCrashpoint, ReplicaChaos, ServerError};
    use ltpg_replica::ReplicaConfig;
    use ltpg_shard::{Partitioner, ShardedServer, TableRule};

    for shards in [1u32, 4] {
        let (mut saw_before, mut saw_after) = (false, false);
        for seed in 0..SWEEP_SEEDS {
            let plan = FaultPlan::from_seed(seed, FaultHorizon::for_batches(14));
            let Some(crash) = plan.replica.promotion_crash else { continue };

            let (db, plain, hot) = build_db();
            let cfg = engine_cfg(hot);
            let txns = mixed_txns(plain, hot, seed, SWEEP_TXNS);
            let part = Partitioner::new(shards, TableRule::Hash);
            let scfg = ServerConfig {
                batch_size: SWEEP_BATCH,
                pipelined: true,
                checkpoint_every: Some(4),
                ..ServerConfig::default()
            };
            let slice_digests =
                |srv: &ShardedServer| (0..shards).map(|s| srv.database(s).state_digest()).collect();

            // Un-crashed reference: every slice's digest after every
            // executed batch.
            let mut reference =
                ShardedServer::new(db.deep_clone(), part.clone(), cfg.clone(), scfg.clone());
            reference.submit_all(txns.clone());
            let mut digests: Vec<Vec<u64>> = Vec::new();
            for _ in 0..400 {
                let before = reference.stats().batches;
                if reference.tick().is_none() {
                    break;
                }
                if reference.stats().batches > before {
                    digests.push(slice_digests(&reference));
                }
            }

            // Crashing run: a standby row attached, the last shard's device
            // lost at a batch boundary, and the promotion window armed to
            // die.
            let mut server = ShardedServer::new(db, part, cfg, scfg);
            server.attach_replicas(&ReplicaConfig::default());
            server.arm_replica_chaos(ReplicaChaos {
                promotion_crash: Some(crash),
                ..ReplicaChaos::none()
            });
            server.submit_all(txns);
            server.tick().unwrap();
            server.tick().unwrap();
            server.force_shard_failure(shards - 1);
            let mut crash_err = None;
            for _ in 0..400 {
                match server.try_tick() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        crash_err = Some(e);
                        break;
                    }
                }
            }
            let site = match crash_err {
                Some(ServerError::InjectedCrash(site)) => site,
                other => panic!("{shards} shards, seed {seed}: expected a crash, got {other:?}"),
            };
            match crash {
                PromotionCrashpoint::BeforeCatchup => {
                    assert_eq!(site, "promotion:before-catchup", "{shards} shards, seed {seed}");
                    saw_before = true;
                }
                PromotionCrashpoint::AfterCatchup => {
                    assert_eq!(site, "promotion:after-catchup", "{shards} shards, seed {seed}");
                    saw_after = true;
                }
            }

            // The "process" died mid-cutover. Recovery replays every
            // shard's checkpoint + WAL and must land exactly on the
            // un-crashed history.
            let slices = server
                .simulate_recovery()
                .unwrap_or_else(|e| panic!("{shards} shards, seed {seed}: {e}"));
            let total = server.stats().batches as usize;
            assert!(total > 0, "{shards} shards, seed {seed}: the crashed run logged nothing");
            let recovered: Vec<u64> = slices.iter().map(Database::state_digest).collect();
            assert_eq!(
                recovered,
                digests[total - 1],
                "{shards} shards, seed {seed}: recovery after a `{site}` crash must converge \
                 to the un-crashed slice digests at batch {total}"
            );
        }
        assert!(saw_before, "{shards} shards: no sweep seed crashed before catch-up");
        assert!(saw_after, "{shards} shards: no sweep seed crashed after catch-up");
    }
}

/// Build a logged history of `rounds` batches and return the manager plus
/// the live engine (for digests).
fn logged_history(rounds: usize, seed: u64) -> (DurabilityManager, LtpgEngine, LtpgConfig) {
    let (db, plain, hot) = build_db();
    let cfg = engine_cfg(hot);
    let mut dur = DurabilityManager::new(&db);
    let mut engine = LtpgEngine::new(db, cfg.clone());
    let mut tids = TidGen::new();
    for round in 0..rounds {
        let fresh = mixed_txns(plain, hot, seed.wrapping_add(round as u64), 12);
        let batch = Batch::assemble(vec![], fresh, &mut tids);
        dur.log_batch(&batch);
        engine.execute_batch(&batch);
    }
    (dur, engine, cfg)
}

// ---- One test per RecoveryError variant. ----

#[test]
fn recovery_error_frame_checksum() {
    let (dur, _engine, cfg) = logged_history(3, 1);
    assert!(dur.log().corrupt_frame(1, 0x10));
    match dur.recover(cfg) {
        Err(RecoveryError::Frame(FrameError::ChecksumMismatch { frame_index, .. })) => {
            assert_eq!(frame_index, 1)
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn recovery_error_frame_bad_magic() {
    let (dur, _engine, cfg) = logged_history(2, 2);
    // Flip a byte of frame 1's magic (first byte of the frame).
    let spans = dur.log().frame_spans();
    dur.log().corrupt_byte(spans[1].0, 0xFF);
    match dur.recover(cfg) {
        Err(RecoveryError::Frame(FrameError::BadMagic { frame_index, .. })) => {
            assert_eq!(frame_index, 1)
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn recovery_error_torn_tail_strict() {
    let (dur, _engine, cfg) = logged_history(3, 3);
    dur.log().tear_tail(7);
    match dur.recover_with(cfg, &RecoveryOptions { tail_policy: TailPolicy::Strict }) {
        Err(RecoveryError::TornTail { bytes, .. }) => assert!(bytes > 0),
        other => panic!("expected TornTail, got {other:?}"),
    }
}

#[test]
fn recovery_error_missing_batch() {
    let (dur, _engine, cfg) = logged_history(2, 4);
    let mut replayer = LtpgEngine::new(dur.checkpoint_image(), cfg);
    let beyond = dur.logged_batches() as u64 + 1;
    match dur.replay_onto(&mut replayer, &RecoveryOptions::default(), Some(beyond)) {
        Err(RecoveryError::MissingBatch(id)) => assert_eq!(id, beyond - 1),
        other => panic!("expected MissingBatch, got {other:?}"),
    }
}

#[test]
fn recovery_error_corrupt_payload() {
    let (db, _plain, hot) = build_db();
    let dur = DurabilityManager::new(&db);
    // A frame whose CRC is fine but whose payload is not a batch encoding:
    // codec-level corruption, distinct from disk damage.
    dur.log().append(vec![1], bytes::Bytes::copy_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]));
    match dur.recover(engine_cfg(hot)) {
        Err(RecoveryError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

// ---- Recovery idempotence. ----

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Recovering twice from the same (possibly damaged) log yields the
    /// same database, and repairing the WAL first changes nothing about
    /// the recovered state.
    #[test]
    fn recovery_is_idempotent(seed in 0u64..1_000, rounds in 1usize..4, tear in 0usize..64) {
        let (dur, _engine, cfg) = logged_history(rounds, seed);
        dur.log().tear_tail(tear);
        let opts = RecoveryOptions { tail_policy: TailPolicy::Truncate };
        let once = dur.recover_with(cfg.clone(), &opts).unwrap();
        let twice = dur.recover_with(cfg.clone(), &opts).unwrap();
        prop_assert_eq!(once.db.state_digest(), twice.db.state_digest());
        prop_assert_eq!(once.stats, twice.stats);

        // Physical repair: drops the torn tail, keeps the replayable set.
        let dropped = dur.repair_wal().unwrap();
        prop_assert_eq!(dur.repair_wal().unwrap(), 0, "repair is idempotent");
        let repaired = dur.recover_with(cfg, &opts).unwrap();
        prop_assert_eq!(once.db.state_digest(), repaired.db.state_digest());
        prop_assert!(!repaired.stats.torn_tail);
        if once.stats.torn_tail {
            prop_assert!(dropped > 0);
        }
    }
}
