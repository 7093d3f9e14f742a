//! Replication & failover acceptance suite.
//!
//! The headline claim of `ltpg-replica` (ISSUE 6): a 4-shard server with
//! a warm standby pool that loses a primary device mid-run must fail over
//! to a standby **within one batch boundary**, and the post-failover
//! commit stream, per-transaction conflict-flag words, and final state
//! digests must be bit-identical to a fault-free run — because standbys
//! replay the same deterministic commit stream the primaries executed,
//! promotion is just a pointer swap at an aligned batch id.
//!
//! The suite drives a partitioned YCSB stream through three topologies in
//! lockstep — the faulted 4-shard server, a fault-free 1-shard server
//! (the flag-word reference) and a fault-free single-device
//! [`LtpgServer`] (the history reference) — and also routes replicated
//! chaos schedules through the `ltpg-qa` differential runner.

use ltpg::{FaultHorizon, FaultPlan, LtpgConfig, LtpgServer, ReplicaChaos, ServerConfig};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, Partitioner, ShardedServer, TableRule};
use ltpg_telemetry::names;
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

const BATCH: usize = 128;
const BATCHES: usize = 5;

/// A 4-shard-partitionable YCSB stream plus the three servers: the
/// sharded system under test, the fault-free 1-shard word reference, and
/// the fault-free single-device history reference.
fn topologies(shards: u32) -> (ShardedServer, ShardedServer, LtpgServer) {
    let cfg = YcsbConfig::new(YcsbWorkload::A, 2_048)
        .with_seed(0xfa11)
        .with_alpha(0.4)
        .with_partitions(shards, 20);
    let (db, table, mut gen) = YcsbGenerator::new(cfg.clone());
    let part = ycsb_partitioner(shards, table, &cfg);
    // One shard owns everything, so any rule routes the whole stream there.
    let one = Partitioner::new(1, TableRule::Hash);
    let scfg = ServerConfig { batch_size: BATCH, pipelined: false, ..ServerConfig::default() };
    let mut sharded =
        ShardedServer::new(db.deep_clone(), part, LtpgConfig::default(), scfg.clone());
    let mut word_ref =
        ShardedServer::new(db.deep_clone(), one, LtpgConfig::default(), scfg.clone());
    let mut single = LtpgServer::new(db, LtpgConfig::default(), scfg);
    let stream = gen.gen_batch(BATCH * BATCHES);
    sharded.submit_all(stream.iter().cloned());
    word_ref.submit_all(stream.iter().cloned());
    single.submit_all(stream);
    (sharded, word_ref, single)
}

fn assert_slices_match(sharded: &ShardedServer, single: &LtpgServer) {
    let part = sharded.partitioner().clone();
    for s in 0..sharded.shard_count() {
        let reference = single.database().partition_clone(part.slice_pred(s));
        assert_eq!(
            sharded.database(s).state_digest(),
            reference.state_digest(),
            "shard {s} state diverged from the single-device slice"
        );
    }
}

/// The acceptance test: 4 shards, one warm standby row, shard 1's device
/// killed after two batches. Commit stream, conflict-flag words and
/// final state must all be bit-identical to the fault-free references,
/// the failover must complete within one batch boundary, and the
/// `REPLICA_*` telemetry must capture it.
#[test]
fn four_shard_failover_is_bit_identical_to_fault_free_run() {
    let (mut sharded, mut word_ref, mut single) = topologies(4);
    sharded.attach_replicas(&ReplicaConfig::default());

    let mut ticks = 0usize;
    let mut failed_at: Option<usize> = None;
    for tick in 0..60 * BATCHES {
        if tick == 2 {
            sharded.force_shard_failure(1);
            failed_at = Some(tick);
        }
        let a = sharded.tick();
        let w = word_ref.tick();
        let b = single.tick();
        match (&a, &w, &b) {
            (Some(sa), Some(sw), Some(sb)) => {
                assert_eq!(sa.committed, sb.committed, "commit stream diverged at tick {tick}");
                assert_eq!(sa.aborted, sb.aborted, "abort stream diverged at tick {tick}");
                assert_eq!(
                    sa.flag_words, sw.flag_words,
                    "merged conflict-flag words diverged at tick {tick}"
                );
            }
            (None, None, None) => {}
            _ => panic!("topologies went idle at different ticks (tick {tick})"),
        }
        if let Some(f) = failed_at {
            if tick == f {
                // Within one batch boundary: the Dead heartbeat fences the
                // primary at the very next boundary, so by the end of the
                // tick after the loss the promotion has already happened.
                assert_eq!(
                    sharded.stats().failovers,
                    1,
                    "failover must complete within one batch boundary"
                );
            }
        }
        ticks = tick + 1;
        if a.is_none() && b.is_none() && sharded.pending() == 0 && single.pending() == 0 {
            break;
        }
    }
    assert!(ticks < 60 * BATCHES, "servers did not drain");
    assert!(sharded.stats().committed > 0);

    assert_slices_match(&sharded, &single);
    assert_eq!(sharded.stats().failovers, 1);
    assert_eq!(sharded.stats().degraded_shards, 0, "failover must not touch the CPU twin");
    for s in 0..4 {
        assert!(!sharded.is_degraded(s));
    }

    let reg = sharded.telemetry();
    assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
    assert_eq!(reg.counter_value(names::REPLICA_DEMOTIONS), 0);
    assert!(reg.counter_value(names::REPLICA_CATCHUP_BATCHES) > 0);
    assert!(
        reg.histogram(names::REPLICA_FAILOVER_NS).snapshot().count >= 1,
        "failover latency must be recorded"
    );
    assert!(reg.histogram(names::REPLICA_LAG_BATCHES).snapshot().count > 0);
    assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 0, "the only row was promoted");
}

/// Replica chaos derived from sweep seeds (heartbeat drops, standby lag,
/// timed recovery) must never change the served history: every knob is
/// either absorbed or triggers a failover that replays the same stream.
#[test]
fn seeded_replica_chaos_is_invisible_to_the_history() {
    let mut exercised = 0u32;
    for seed in 0..40u64 {
        let plan = FaultPlan::from_seed(seed, FaultHorizon::for_batches(BATCHES as u64));
        let chaos = plan.replica;
        if chaos.is_quiet() {
            continue;
        }
        // Promotion crashpoints model process death; the sharded
        // promotion-crashpoint sweep in tests/crash_recovery.rs covers
        // them at 1 and 4 shards. Here we keep the server alive.
        let chaos = ReplicaChaos { promotion_crash: None, ..chaos };
        let (mut sharded, _, mut single) = topologies(2);
        sharded.attach_replicas(&ReplicaConfig { standbys: 2, heartbeat_miss_threshold: 2 });
        sharded.arm_replica_chaos(chaos);
        for tick in 0..60 * BATCHES {
            let a = sharded.tick();
            let b = single.tick();
            match (&a, &b) {
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.committed, sb.committed, "seed {seed}: diverged at {tick}");
                    assert_eq!(sa.aborted, sb.aborted, "seed {seed}: diverged at {tick}");
                }
                (None, None) => {}
                _ => panic!("seed {seed}: idle skew at tick {tick}"),
            }
            if a.is_none() && b.is_none() && sharded.pending() == 0 && single.pending() == 0 {
                break;
            }
        }
        assert_slices_match(&sharded, &single);
        exercised += 1;
    }
    assert!(exercised >= 3, "the sweep must exercise several chaotic seeds, got {exercised}");
}

/// Replicated chaos schedules route through the QA differential runner:
/// a standby pool plus a mid-run shard kill must pass every differential
/// assertion (engine vs CPU twin, lockstep, slice digests, WAL replay).
#[test]
fn qa_runner_accepts_replicated_chaos_schedules() {
    let mut with_failover = 0u32;
    for seed in 100..112u64 {
        let mut case = ltpg_qa::gen::generate(seed);
        case.shards = 4;
        case.standbys = 1;
        case.fail_shard = Some((1, 1));
        if let Err(d) = ltpg_qa::run_case(&case) {
            panic!("seed {seed}: replicated chaos schedule diverged: {d}");
        }
        with_failover += 1;
    }
    assert!(with_failover > 0);
}
