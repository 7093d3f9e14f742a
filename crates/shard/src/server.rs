//! The multi-device server: N engines, one deterministic history.
//!
//! [`ShardedServer`] wraps N per-shard [`LtpgEngine`]s (each modelling one
//! GPU with its own WAL + checkpoints) behind the same submit/tick/drain
//! API as `ltpg::LtpgServer`. Each tick assembles one global batch,
//! [routes](crate::Router) every transaction to its participant shards,
//! and runs the **deterministic cross-shard protocol**:
//!
//! 1. every participant logs its sub-batch (empty sub-batches included, so
//!    batch ids stay aligned across shards — the per-shard WALs always cut
//!    at the same global batch boundary);
//! 2. every participant runs the split *prepare* phase (execute, register,
//!    detect) over its slice, resolving remote reads through a
//!    [`RemoteView`] of the other shards' snapshots;
//! 3. the server OR-merges the per-shard conflict-flag words of each
//!    transaction — ownership partitions the cell space, so the merged
//!    word equals the word a single device over the whole database would
//!    derive — and hands the merged words back;
//! 4. every participant finishes (write-back of owned mutations) and the
//!    shared [`commit_decision`] over the merged word yields the same
//!    verdict on every shard. **No second round trip, no 2PC**: the fixed
//!    TID order is the tie-break, as in Calvin-style deterministic
//!    databases — but without pre-declared read/write sets.
//!
//! Steps 2–4 are one function, `run_round`, over the shards' [`Executor`]s.
//! Live serving, CPU degradation replay and standby replay all run it, so
//! the three can never decide differently.
//!
//! ## Degradation and failover
//!
//! Device loss on any shard first tries to promote a warm standby row
//! ([`attach_replicas`](ShardedServer::attach_replicas)): the row catches
//! up by replaying the logged batches, the in-flight one included, and
//! replaces every shard's engine at the batch boundary. Without a standby,
//! only the lost shard degrades to the scoped CPU twin ([`CpuTwin`]): the
//! server rebuilds every shard's state from its own checkpoint + WAL by
//! replaying rounds on CPU twins (the sub-batches were logged before
//! execution, so the in-flight batch is replayed too), installs the twin
//! on the lost shard and fresh engines (replacement devices) on the
//! healthy ones, and keeps serving. The in-flight batch is charged the
//! replayed round's cost. Determinism makes the hand-off invisible: the
//! twin votes bit-identical flag words, so the merged history never
//! changes — only that shard's simulated latency. A one-shard server runs
//! unscoped and is the single-device server with standbys.

use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::sync::Arc;

use ltpg::{
    commit_decision, AdmissionQueue, CpuTwin, DurabilityManager, ExecScope, Executor, LtpgConfig,
    LtpgEngine, PromotionCrashpoint, RecoveryError, ReplicaChaos, ServerConfig, ServerError,
};
use ltpg_gpu_sim::{Device, DeviceError, DeviceFaultPlan};
use ltpg_replica::{HealthMonitor, HealthVerdict, Heartbeat, MergedWords, ReplicaConfig, ReplicaError, ReplicaSet};
use ltpg_storage::{Database, TableId};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{decode_batch, Batch, CellStore, Tid, Txn};

use crate::partition::Partitioner;
use crate::rebalance::{plan_split, PlannerConfig, RebalanceError, RebalancePlan, RebalancePlanner};
use crate::remote::RemoteView;
use crate::router::{Route, Router};

/// Outcome of one [`ShardedServer::tick`].
#[derive(Debug, Clone, Default)]
pub struct ShardedBatchSummary {
    /// TIDs committed by this batch (ascending).
    pub committed: Vec<Tid>,
    /// TIDs aborted (scheduled for re-execution).
    pub aborted: Vec<Tid>,
    /// Simulated batch latency, ns: slowest shard's prepare + merge +
    /// slowest shard's finish, plus any retry backoff.
    pub sim_ns: f64,
    /// OR-merged conflict-flag word per transaction (by TID). Bit-equal
    /// to the words a single device over the whole database derives, so
    /// differential harnesses can compare them across topologies.
    pub flag_words: BTreeMap<u64, u32>,
}

/// Cumulative sharded-server statistics.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Global batches executed.
    pub batches: u64,
    /// Transactions admitted via [`ShardedServer::submit`].
    pub admitted: u64,
    /// Transactions committed (each counted once, at commit).
    pub committed: u64,
    /// Abort events (one transaction may abort repeatedly).
    pub abort_events: u64,
    /// Total simulated time, ns (critical path across shards, per tick).
    pub sim_ns: f64,
    /// Transactions routed to exactly one shard.
    pub single_shard_txns: u64,
    /// Transactions routed to more than one (but not all) shards.
    pub cross_shard_txns: u64,
    /// Transactions broadcast to every shard.
    pub broadcast_txns: u64,
    /// Total merge-barrier stall, ns: per tick, each participant's
    /// `max(prepare) - own prepare` (time spent waiting for the slowest
    /// shard before verdicts could merge).
    pub merge_stall_ns: f64,
    /// Shards currently degraded to the CPU twin.
    pub degraded_shards: u32,
    /// Standby-row promotions (full-topology failovers).
    pub failovers: u64,
    /// Rebalance plans applied at cutover boundaries.
    pub rebalances: u64,
    /// Rows copied between shard slices by rebalance cutovers.
    pub rows_migrated: u64,
}

impl ShardedStats {
    /// Fraction of routed transactions that needed more than one shard.
    pub fn cross_shard_fraction(&self) -> f64 {
        let total = self.single_shard_txns + self.cross_shard_txns + self.broadcast_txns;
        if total == 0 {
            return 0.0;
        }
        (self.cross_shard_txns + self.broadcast_txns) as f64 / total as f64
    }
}

/// One shard's durability domain and metrics registry (its executor is
/// `ShardedServer::execs[s]`, so a round can borrow every executor at
/// once).
struct Shard {
    durability: DurabilityManager,
    telemetry: Arc<Registry>,
}

/// A batching OLTP server over N sharded [`LtpgEngine`]s with the
/// deterministic no-2PC cross-shard commit protocol.
pub struct ShardedServer {
    /// Shard `s`'s executor: its GPU engine, or its CPU twin once degraded.
    execs: Vec<Executor>,
    shards: Vec<Shard>,
    router: Router,
    cfg: ServerConfig,
    engine_cfg: LtpgConfig,
    queue: AdmissionQueue,
    stats: ShardedStats,
    /// Server-level registry (`shard.*` metrics). Each shard additionally
    /// owns a private registry for its device/engine metrics.
    telemetry: Arc<Registry>,
    /// Warm standby rows replaying the commit stream; `None` until
    /// [`attach_replicas`](Self::attach_replicas).
    replicas: Option<ReplicaSet>,
    /// One heartbeat monitor per shard (empty until replicas attach).
    monitors: Vec<HealthMonitor>,
    /// Deterministic replication-layer chaos knobs.
    replica_chaos: ReplicaChaos,
    /// Heartbeat probe counter (drives `heartbeat_drop_ticks`).
    tick_no: u64,
    /// The most recently lost shard's physical device, kept for timed
    /// recovery re-enlistment, with the shard it served and the batch
    /// count at loss.
    lost_device: Option<(usize, Arc<Device>, u64)>,
    /// A validated topology change waiting for its cutover batch id,
    /// with the pre-built post-cutover partitioner.
    pending_rebalance: Option<(RebalancePlan, Partitioner)>,
    /// Load-driven rebalance planner; `None` until
    /// [`set_auto_rebalance`](Self::set_auto_rebalance).
    planner: Option<RebalancePlanner>,
    /// The replica policy from [`attach_replicas`](Self::attach_replicas),
    /// kept so the pool can be rebuilt over post-cutover checkpoints.
    replica_cfg: Option<ReplicaConfig>,
}

impl ShardedServer {
    /// Create a sharded server: `db` is partitioned into per-shard slices
    /// by `part` (replicated tables are copied to every shard).
    pub fn new(db: Database, part: Partitioner, engine_cfg: LtpgConfig, cfg: ServerConfig) -> Self {
        assert!(cfg.batch_size > 0, "batch size must be positive");
        let n = part.shards();
        let telemetry = Registry::new_shared();
        telemetry.counter(names::SHARD_TICKS);
        telemetry.counter(names::SHARD_SINGLE_TXNS);
        telemetry.counter(names::SHARD_CROSS_TXNS);
        telemetry.counter(names::SHARD_BROADCAST_TXNS);
        telemetry.gauge(names::SHARD_DEGRADED);
        let (execs, shards) = (0..n)
            .map(|s| {
                let slice = db.partition_clone(part.slice_pred(s));
                let durability = DurabilityManager::new(&slice);
                let shard_reg = Registry::new_shared();
                for name in names::FAULT_COUNTERS {
                    shard_reg.counter(name);
                }
                let engine =
                    LtpgEngine::with_telemetry(slice, engine_cfg.clone(), Arc::clone(&shard_reg));
                (Executor::gpu(Box::new(engine)), Shard { durability, telemetry: shard_reg })
            })
            .unzip();
        ShardedServer {
            execs,
            shards,
            router: Router::new(part),
            cfg,
            engine_cfg,
            queue: AdmissionQueue::default(),
            stats: ShardedStats::default(),
            telemetry,
            replicas: None,
            monitors: Vec::new(),
            replica_chaos: ReplicaChaos::none(),
            tick_no: 0,
            lost_device: None,
            pending_rebalance: None,
            planner: None,
            replica_cfg: None,
        }
    }

    /// Attach a warm standby pool: `cfg.standbys` full rows (one engine
    /// per shard) built from the shards' current checkpoint images, plus
    /// one heartbeat monitor per shard. Standbys replay every logged
    /// batch in lockstep behind the primaries; on device loss (or a
    /// fenced heartbeat) the freshest row is promoted wholesale at the
    /// batch boundary. `REPLICA_*` metrics publish on
    /// [`telemetry`](Self::telemetry).
    pub fn attach_replicas(&mut self, cfg: &ReplicaConfig) {
        let images: Vec<Database> =
            self.shards.iter().map(|sh| sh.durability.checkpoint_image()).collect();
        let base = self.shards[0].durability.checkpoint_batch();
        self.replicas = Some(ReplicaSet::new(
            images,
            base,
            self.engine_cfg.clone(),
            cfg,
            Arc::clone(&self.telemetry),
        ));
        self.monitors = (0..self.shards.len())
            .map(|_| HealthMonitor::new(cfg.heartbeat_miss_threshold, &self.telemetry))
            .collect();
        self.replica_cfg = Some(cfg.clone());
    }

    /// Whether a standby pool is attached.
    pub fn has_replicas(&self) -> bool {
        self.replicas.is_some()
    }

    /// Alive standby rows (0 when no pool is attached).
    pub fn standbys_alive(&self) -> usize {
        self.replicas.as_ref().map_or(0, ReplicaSet::rows_alive)
    }

    /// Arm deterministic replication-layer chaos (timed device recovery,
    /// heartbeat drops, standby lag, promotion crashpoints).
    pub fn arm_replica_chaos(&mut self, chaos: ReplicaChaos) {
        if let (Some(set), Some((row, lag))) = (&mut self.replicas, chaos.standby_lag) {
            set.inject_lag(row as usize, lag);
        }
        self.replica_chaos = chaos;
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The partitioner the server routes by.
    pub fn partitioner(&self) -> &Partitioner {
        self.router.partitioner()
    }

    /// Shard `s`'s live database slice.
    pub fn database(&self, s: u32) -> &Database {
        self.execs[s as usize].database()
    }

    /// Whether shard `s` has degraded to its CPU twin.
    pub fn is_degraded(&self, s: u32) -> bool {
        self.execs[s as usize].is_cpu()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ShardedStats {
        &self.stats
    }

    /// The server-level metrics registry (`shard.*` family).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Shard `s`'s private metrics registry (device/engine/fault family).
    pub fn shard_telemetry(&self, s: u32) -> &Arc<Registry> {
        &self.shards[s as usize].telemetry
    }

    /// Arm a deterministic fault schedule on shard `s`'s device. No-op if
    /// that shard is already degraded.
    pub fn arm_shard_faults(&self, s: u32, plan: DeviceFaultPlan) {
        if let Some(engine) = self.execs[s as usize].engine() {
            engine.device().arm_faults(plan);
        }
    }

    /// Force shard `s`'s device into its failed state at the next batch
    /// boundary.
    pub fn force_shard_failure(&self, s: u32) {
        if let Some(engine) = self.execs[s as usize].engine() {
            engine.device().fail_now();
        }
    }

    /// Enqueue one transaction.
    pub fn submit(&mut self, txn: Txn) {
        self.stats.admitted += 1;
        self.queue.submit(txn);
    }

    /// Enqueue many transactions.
    pub fn submit_all<I: IntoIterator<Item = Txn>>(&mut self, txns: I) {
        for t in txns {
            self.submit(t);
        }
    }

    /// Transactions waiting (fresh + re-queued).
    pub fn pending(&self) -> usize {
        self.queue.pending()
    }

    /// Fresh submissions waiting in the inbox; see
    /// [`AdmissionQueue::inbox_len`].
    pub fn inbox_len(&self) -> usize {
        self.queue.inbox_len()
    }

    /// The TID the next fresh admission will receive; see
    /// [`AdmissionQueue::next_tid`].
    pub fn next_tid(&self) -> u64 {
        self.queue.next_tid()
    }

    /// Human-readable end-of-run summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.stats;
        let mut out = String::new();
        let _ = writeln!(out, "shards                {}", self.shards.len());
        let _ = writeln!(out, "batches executed      {}", s.batches);
        let _ = writeln!(out, "txns admitted         {}", s.admitted);
        let _ = writeln!(out, "txns committed        {}", s.committed);
        let _ = writeln!(out, "abort events          {}", s.abort_events);
        let _ = writeln!(out, "simulated time        {:.1} us", s.sim_ns / 1e3);
        let _ = writeln!(
            out,
            "routing               {} single / {} multi / {} broadcast ({:.1}% cross)",
            s.single_shard_txns,
            s.cross_shard_txns,
            s.broadcast_txns,
            s.cross_shard_fraction() * 100.0,
        );
        let _ = writeln!(out, "merge stall           {:.1} us", s.merge_stall_ns / 1e3);
        let _ = writeln!(out, "degraded shards       {}", s.degraded_shards);
        let _ = writeln!(out, "failovers             {}", s.failovers);
        let _ = writeln!(out, "rebalances            {}", s.rebalances);
        let _ = writeln!(out, "rows migrated         {}", s.rows_migrated);
        let _ = writeln!(out, "standbys alive        {}", self.standbys_alive());
        out
    }

    /// Recompute the degraded-shard count from the live topology and
    /// publish it to both the stats and the `SHARD_DEGRADED` gauge. The
    /// single authority for that number — degradation, re-promotion and
    /// failover all route through here so the two views cannot drift.
    fn refresh_degraded(&mut self) {
        self.stats.degraded_shards = self.execs.iter().filter(|x| x.is_cpu()).count() as u32;
        self.telemetry.gauge(names::SHARD_DEGRADED).set(self.stats.degraded_shards as i64);
    }

    /// Schedule an online topology change. The plan is validated against
    /// the live partitioner *now* (a malformed plan never waits at the
    /// barrier) and applied atomically when the next batch id reaches
    /// `plan.cutover`: batches before the cutover route under the old
    /// rules, batches from it under the new ones, with rows migrated
    /// between slices at the boundary. One plan may be in flight at a
    /// time.
    pub fn schedule_rebalance(&mut self, plan: RebalancePlan) -> Result<(), RebalanceError> {
        if self.pending_rebalance.is_some() {
            return Err(RebalanceError::AlreadyScheduled);
        }
        let next = self.shards[0].durability.logged_batches() as u64;
        if plan.cutover < next {
            return Err(RebalanceError::CutoverInPast { cutover: plan.cutover, next });
        }
        let new_part = plan.apply_to(self.router.partitioner())?;
        self.telemetry.gauge(names::REBALANCE_PENDING).set(1);
        self.pending_rebalance = Some((plan, new_part));
        Ok(())
    }

    /// Whether a scheduled plan is still waiting for its cutover batch.
    pub fn rebalance_pending(&self) -> bool {
        self.pending_rebalance.is_some()
    }

    /// Enable the load-driven planner: per-shard engine load (the
    /// `ltpg.batch.total_ns` histograms) is observed every tick, and once
    /// imbalance persists past the hysteresis window a median split of
    /// the hottest shard's range is scheduled automatically.
    pub fn set_auto_rebalance(&mut self, cfg: PlannerConfig) {
        self.planner = Some(RebalancePlanner::new(cfg));
    }

    /// Serve a consistent snapshot read from the standby pool: route
    /// `(table, key)` by the current partitioner and look the row up in
    /// the owning shard's slice of the freshest standby row — a
    /// consistent cut a few batches behind the tail, costing the serving
    /// engines nothing. Returns the row values and the cut's batch id;
    /// `None` without an attached pool or when the key is absent at the
    /// cut.
    pub fn snapshot_read(&self, table: TableId, key: i64) -> Option<(Vec<i64>, u64)> {
        let set = self.replicas.as_ref()?;
        let home = self.router.partitioner().home(table, key) as usize;
        set.snapshot_read(home, table, key)
    }

    /// Feed the planner one observation and schedule the split it asks
    /// for. Skipped while a plan is pending or the topology is degraded
    /// (migration wants every slice healthy).
    fn maybe_plan_rebalance(&mut self) {
        let Some(planner) = &mut self.planner else { return };
        if self.pending_rebalance.is_some() || self.stats.degraded_shards > 0 {
            return;
        }
        let loads: Vec<f64> = self
            .shards
            .iter()
            .map(|sh| sh.telemetry.histogram(names::LTPG_BATCH_TOTAL_NS).snapshot().sum as f64)
            .collect();
        let Some(imb) = planner.observe(&loads) else { return };
        let cutover = self.shards[0].durability.logged_batches() as u64 + 1;
        let part = self.router.partitioner();
        let db = self.execs[imb.hot as usize].database();
        let Some(plan) = plan_split(part, db, imb.hot, imb.cold, cutover) else { return };
        if self.schedule_rebalance(plan).is_ok() {
            self.telemetry.counter(names::REBALANCE_PLANNER_EMITTED).inc();
        }
    }

    /// Apply the pending plan once the next batch id reaches its cutover:
    /// re-slice every shard's live database under the new rules (keeping
    /// surviving rows, absorbing the rows migrating in), install fresh
    /// executors over the new slices, take a joint checkpoint at the
    /// cutover id (so WAL replay never crosses a rule change), swap the
    /// router, and rebuild the standby pool over the new checkpoints.
    fn maybe_apply_rebalance(&mut self) {
        let due = match &self.pending_rebalance {
            Some((plan, _)) => self.shards[0].durability.logged_batches() as u64 >= plan.cutover,
            None => return,
        };
        if !due {
            return;
        }
        let (plan, new_part) = self.pending_rebalance.take().expect("pending plan checked");
        let started = std::time::Instant::now();
        let n = self.shards.len();
        let mut migrated = 0u64;
        let new_slices: Vec<Database> = (0..n)
            .map(|s| {
                let shard_id = s as u32;
                let base =
                    self.execs[s].database().partition_clone(new_part.slice_pred(shard_id));
                for (r, exec) in self.execs.iter().enumerate() {
                    if r != s {
                        migrated +=
                            base.absorb_rows(exec.database(), new_part.slice_pred(shard_id));
                    }
                }
                base
            })
            .collect();
        for (s, slice) in new_slices.into_iter().enumerate() {
            // Joint checkpoint at the cutover id: degradation replay and
            // failover catch-up start from post-cutover images and never
            // span the rule change.
            self.shards[s].durability.checkpoint(&slice);
            self.execs[s] = if self.execs[s].is_cpu() {
                Executor::cpu(CpuTwin::new(slice, self.engine_cfg.clone()))
            } else {
                // Fresh engines over the new slices (fault plans armed on
                // the old devices are not carried over, as in degradation).
                Executor::gpu(Box::new(LtpgEngine::with_telemetry(
                    slice,
                    self.engine_cfg.clone(),
                    Arc::clone(&self.shards[s].telemetry),
                )))
            };
        }
        self.router = Router::new(new_part);
        // Standby rows hold pre-cutover slices; rebuild the pool from the
        // cutover checkpoints, one fresh row per row still alive.
        if let Some(old) = self.replicas.take() {
            let alive = old.rows_alive();
            let images: Vec<Database> =
                self.shards.iter().map(|sh| sh.durability.checkpoint_image()).collect();
            let base = self.shards[0].durability.checkpoint_batch();
            let cfg = ReplicaConfig {
                standbys: alive,
                ..self.replica_cfg.clone().unwrap_or_default()
            };
            self.replicas = Some(ReplicaSet::new(
                images,
                base,
                self.engine_cfg.clone(),
                &cfg,
                Arc::clone(&self.telemetry),
            ));
        }
        let (splits, merges, moves, set_rules) = plan.op_counts();
        self.telemetry.counter(names::REBALANCE_PLANS_APPLIED).inc();
        self.telemetry.counter(names::REBALANCE_SPLITS).add(splits);
        self.telemetry.counter(names::REBALANCE_MERGES).add(merges);
        self.telemetry.counter(names::REBALANCE_MOVES).add(moves);
        self.telemetry.counter(names::REBALANCE_SET_RULES).add(set_rules);
        self.telemetry.counter(names::REBALANCE_ROWS_MIGRATED).add(migrated);
        self.telemetry
            .histogram(names::REBALANCE_CUTOVER_NS)
            .record_ns(started.elapsed().as_nanos() as f64);
        self.telemetry.gauge(names::REBALANCE_PENDING).set(0);
        self.stats.rebalances += 1;
        self.stats.rows_migrated += migrated;
    }

    /// Split the global batch into per-shard sub-batches (global TID order
    /// preserved), the per-shard global-index mapping, and route counts
    /// `(single, multi, broadcast)`.
    fn split_batch(&self, batch: &Batch) -> (Vec<Batch>, (u64, u64, u64)) {
        let n = self.shards.len();
        // Size each sub-batch for the expected uniform share up front; a
        // balanced split then routes with zero mid-loop `Vec` regrowth
        // (skewed routes still regrow, but only past the hint).
        let hint = batch.txns.len().div_ceil(n.max(1)) + batch.txns.len() / (4 * n.max(1));
        let mut subs: Vec<Vec<Txn>> = (0..n).map(|_| Vec::with_capacity(hint)).collect();
        let (mut single, mut multi, mut broadcast) = (0u64, 0u64, 0u64);
        for txn in &batch.txns {
            let route = self.router.route(txn);
            match &route {
                Route::Single(_) => single += 1,
                Route::Multi(_) => multi += 1,
                Route::Broadcast => broadcast += 1,
            }
            for (s, sub) in subs.iter_mut().enumerate() {
                if route.includes(s as u32) {
                    sub.push(txn.clone());
                }
            }
        }
        (subs.into_iter().map(|txns| Batch { txns }).collect(), (single, multi, broadcast))
    }

    /// Rebuild every shard's slice on a CPU twin from its checkpoint + WAL,
    /// one [`run_round`] per logged batch (checkpoints are joint, so every
    /// shard replays the same id range, the in-flight batch included: it
    /// was logged before execution). Returns the twins and the last
    /// replayed round (empty when nothing was logged since the checkpoint).
    fn replay_on_twins(&self) -> Result<(Vec<Executor>, Round), RecoveryError> {
        let cfg = &self.engine_cfg;
        let mut twins: Vec<Executor> = self
            .shards
            .iter()
            .map(|sh| Executor::cpu(CpuTwin::new(sh.durability.checkpoint_image(), cfg.clone())))
            .collect();
        let start = self.shards[0].durability.checkpoint_batch();
        let end = self.shards[0].durability.logged_batches() as u64;
        let mut last = Round::default();
        for b in start..end {
            let subs = logged_subs(&self.shards, b)?;
            // Invariant: a CPU twin has no device to lose.
            last = run_round(&mut twins, &subs, self.router.partitioner(), &self.cfg, &mut 0.0)
                .unwrap_or_else(|(s, e)| unreachable!("CPU twin {s} reported {e}"));
        }
        Ok((twins, last))
    }

    /// Rebuild every shard's slice from its checkpoint + WAL (what a
    /// restarted cluster would do), one slice per shard. The server keeps
    /// running; this is a read-only operation on the durability state —
    /// the sharded counterpart of `LtpgServer::simulate_recovery`.
    pub fn simulate_recovery(&self) -> Result<Vec<Database>, RecoveryError> {
        let (twins, _) = self.replay_on_twins()?;
        Ok(twins.into_iter().map(Executor::into_database).collect())
    }

    /// Degrade after shard `failed` lost its device: rebuild every shard
    /// on CPU twins ([`replay_on_twins`](Self::replay_on_twins)), install
    /// the twin on the failed shard and fresh engines (replacement devices)
    /// on the healthy ones, and return the last replayed round — the
    /// in-flight batch's verdicts and cost.
    fn degrade_and_replay(&mut self, failed: usize) -> Result<Round, ServerError> {
        let (twins, last) = self.replay_on_twins().map_err(ServerError::DegradationFailed)?;
        for (s, twin) in twins.into_iter().enumerate() {
            let shard = &self.shards[s];
            if s == failed {
                shard.telemetry.counter(names::FAULT_FALLBACK_ACTIVATIONS).inc();
                self.execs[s] = twin;
            } else if self.execs[s].is_cpu() {
                // Already on the CPU twin before this fault; stay there.
                self.execs[s] = twin;
            } else {
                // A healthy shard gets a replacement device over the
                // replayed state (fault plans armed on the old device are
                // not carried over).
                self.execs[s] = Executor::gpu(Box::new(LtpgEngine::with_telemetry(
                    twin.into_database(),
                    self.engine_cfg.clone(),
                    Arc::clone(&shard.telemetry),
                )));
            }
        }
        self.refresh_degraded();
        Ok(last)
    }

    /// Shard `failed` lost its device mid-batch. The failed prepare mutated
    /// nothing, and a mid-finish loss is rebuilt from the WAL anyway:
    /// either promote a standby row, whose catch-up replays the in-flight
    /// batch (failover latency is charged by
    /// [`try_promote_row`](Self::try_promote_row)), or, with the pool
    /// exhausted, degrade onto the CPU twins. Either way the verdicts come
    /// from a replayed round of the same WAL.
    fn recover_in_flight(&mut self, failed: usize) -> Result<Round, ServerError> {
        self.note_device_loss(failed);
        let upto = self.shards[0].durability.logged_batches() as u64;
        match self.try_promote_row(upto)? {
            Some(merged) => Ok(Round { merged, ..Round::default() }),
            None => self.degrade_and_replay(failed),
        }
    }

    /// Remember shard `failed`'s physical device so a later timed
    /// recovery ([`ReplicaChaos::device_recovers_after_batches`]) can
    /// revive and re-enlist it.
    fn note_device_loss(&mut self, failed: usize) {
        if let Some(e) = self.execs[failed].engine() {
            self.lost_device = Some((failed, e.device_handle(), self.stats.batches));
        }
    }

    /// Promote the freshest standby row onto every shard, catching it up
    /// through batches `< upto`. Returns the merged conflict words of the
    /// last replayed batch (`upto - 1`; empty when the row was already
    /// there) on success, or `None` when no pool is attached / the pool
    /// is exhausted — the caller then falls back to CPU degradation.
    /// Promotion crashpoints surface as [`ServerError::InjectedCrash`]
    /// ("process death" mid-cutover); the WAL already holds everything
    /// needed to recover.
    fn try_promote_row(&mut self, upto: u64) -> Result<Option<MergedWords>, ServerError> {
        let Some(mut set) = self.replicas.take() else { return Ok(None) };
        if set.rows_alive() == 0 {
            self.replicas = Some(set);
            return Ok(None);
        }
        match self.replica_chaos.promotion_crash.take() {
            Some(PromotionCrashpoint::BeforeCatchup) => {
                self.replicas = Some(set);
                return Err(ServerError::InjectedCrash("promotion:before-catchup"));
            }
            Some(PromotionCrashpoint::AfterCatchup) => {
                // Let the standby do its catch-up replay, then die before
                // it serves a single batch: all that work must be
                // recoverable from the WAL alone.
                let mut driver = joint_replay_driver(&self.shards, &self.router, &self.cfg);
                let _ = set.promote_row(upto, &mut driver);
                self.replicas = Some(set);
                return Err(ServerError::InjectedCrash("promotion:after-catchup"));
            }
            None => {}
        }
        let result = {
            let mut driver = joint_replay_driver(&self.shards, &self.router, &self.cfg);
            set.promote_row(upto, &mut driver)
        };
        self.replicas = Some(set);
        let Some((engines, last_words, ns)) = result else { return Ok(None) };
        for (s, mut engine) in engines.into_iter().enumerate() {
            engine.rebind_telemetry(Arc::clone(&self.shards[s].telemetry));
            self.execs[s] = Executor::gpu(Box::new(engine));
        }
        // The promoted row replaces the whole topology with healthy GPU
        // engines, so any CPU-degraded shard is healed by the cutover.
        self.refresh_degraded();
        self.stats.failovers += 1;
        self.stats.sim_ns += ns;
        for m in &mut self.monitors {
            m.reset();
        }
        Ok(Some(last_words))
    }

    /// Probe every primary's health once per tick (chaos may drop the
    /// probes) and fail over when a monitor fences its shard. Runs only
    /// when a standby pool is attached.
    fn probe_heartbeats(&mut self) -> Result<(), ServerError> {
        if self.monitors.is_empty() {
            return Ok(());
        }
        let tick = self.tick_no;
        self.tick_no += 1;
        let dropped = self.replica_chaos.heartbeat_drop_ticks.contains(&tick);
        let mut fenced = None;
        for (s, exec) in self.execs.iter().enumerate() {
            let beat = match exec.engine() {
                Some(e) if e.device().is_failed() => Heartbeat::Dead,
                Some(_) if dropped => Heartbeat::Dropped,
                Some(_) => Heartbeat::Alive,
                None => continue,
            };
            if self.monitors[s].observe(beat) == HealthVerdict::Failed && fenced.is_none() {
                fenced = Some(s);
            }
        }
        let Some(s) = fenced else { return Ok(()) };
        // A Dead fence means the device is really gone: stash it for
        // timed-recovery re-enlistment. A Dropped fence is a (safe) false
        // positive — the healthy device is discarded, not stashed.
        if self.execs[s].engine().is_some_and(|e| e.device().is_failed()) {
            self.note_device_loss(s);
        }
        let upto = self.shards[0].durability.logged_batches() as u64;
        if self.try_promote_row(upto)?.is_none() {
            self.degrade_and_replay(s)?;
            self.monitors[s].reset();
        }
        Ok(())
    }

    /// Timed-recovery re-promotion: once the chaos plan says the lost
    /// device has recovered, revive + reset it and bring it back — as the
    /// serving engine of its shard if that shard is still limping on the
    /// CPU twin (clearing the degraded gauge), or as a fresh standby row
    /// if a failover already healed the topology.
    fn maybe_rejoin_recovered_device(&mut self) {
        let Some(after) = self.replica_chaos.device_recovers_after_batches else { return };
        let batches = self.stats.batches;
        let recovered = self.lost_device.take_if(|(_, _, at)| batches >= at.saturating_add(after));
        let Some((s, device, _)) = recovered else { return };
        device.revive();
        device.reset_for_reuse();
        let telemetry = &self.shards[s].telemetry;
        let Some(device) = self.execs[s].repromote(device, &self.engine_cfg, telemetry) else {
            self.refresh_degraded();
            self.telemetry.counter(names::REPLICA_REPROMOTIONS).inc();
            if let Some(m) = self.monitors.get_mut(s) {
                m.reset();
            }
            return;
        };
        if let Some(set) = &mut self.replicas {
            let images: Vec<Database> =
                self.shards.iter().map(|sh| sh.durability.checkpoint_image()).collect();
            let base = self.shards[0].durability.checkpoint_batch();
            set.spawn_row_with_device(images, base, device);
        }
    }

    /// Advance every standby row through the logged tail (one joint
    /// lockstep replay per row per batch).
    fn replicate_tail(&mut self) {
        let Some(mut set) = self.replicas.take() else { return };
        let tail = self.shards[0].durability.logged_batches() as u64;
        {
            let mut driver = joint_replay_driver(&self.shards, &self.router, &self.cfg);
            set.observe(tail, &mut driver);
        }
        self.replicas = Some(set);
    }

    /// Form, route and execute one global batch. Returns `None` when the
    /// server is fully idle; an empty summary when aborted transactions
    /// are still waiting out their re-entry delay.
    ///
    /// # Panics
    ///
    /// If degradation after device loss fails because a shard's log is
    /// damaged beyond the torn-tail case; fault-injecting callers use
    /// [`try_tick`](Self::try_tick).
    pub fn tick(&mut self) -> Option<ShardedBatchSummary> {
        self.try_tick().expect("shard WAL damaged while serving: use try_tick")
    }

    /// [`tick`](Self::tick), surfacing unabsorbable faults as errors.
    pub fn try_tick(&mut self) -> Result<Option<ShardedBatchSummary>, ServerError> {
        self.telemetry.counter(names::SHARD_TICKS).inc();
        // Batch boundary: recovered devices rejoin, heartbeats are
        // probed, and a fenced primary triggers failover *before* the
        // next batch forms — promotion never interleaves with execution.
        self.maybe_rejoin_recovered_device();
        self.probe_heartbeats()?;
        // The cutover barrier: a scheduled plan whose batch id has
        // arrived re-slices the topology before the next batch forms.
        self.maybe_apply_rebalance();
        let Some(batch) = self.queue.next_batch(self.cfg.batch_size) else {
            return Ok((self.queue.pending() > 0).then(ShardedBatchSummary::default));
        };
        let (subs, (single, multi, broadcast)) = self.split_batch(&batch);
        self.telemetry.counter(names::SHARD_SINGLE_TXNS).add(single);
        self.telemetry.counter(names::SHARD_CROSS_TXNS).add(multi);
        self.telemetry.counter(names::SHARD_BROADCAST_TXNS).add(broadcast);
        self.stats.single_shard_txns += single;
        self.stats.cross_shard_txns += multi;
        self.stats.broadcast_txns += broadcast;
        // Log before execution, on every shard (empty sub-batches too):
        // aligned batch ids give a consistent cross-shard recovery cut.
        for (s, sub) in subs.iter().enumerate() {
            self.shards[s].durability.log_batch(sub);
        }

        let mut backoff_ns = 0.0;
        let part = self.router.partitioner();
        let round = match run_round(&mut self.execs, &subs, part, &self.cfg, &mut backoff_ns) {
            Ok(round) => {
                // Merge barrier: every participant waits for the slowest
                // prepare before its verdicts are complete.
                let max_prep = round.max_prep_ns();
                for &ns in &round.prep_ns {
                    let stall = max_prep - ns;
                    self.stats.merge_stall_ns += stall;
                    self.telemetry.histogram(names::SHARD_MERGE_STALL_NS).record_ns(stall);
                }
                round
            }
            Err((failed, _)) => self.recover_in_flight(failed)?,
        };
        let sim_ns = round.sim_ns() + backoff_ns;
        let merged = round.merged;

        // ---- Global commit decisions from the merged words. ----
        let reordering = self.engine_cfg.opts.logical_reordering;
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        for txn in &batch.txns {
            if commit_decision(reordering, merged[&txn.tid.0]) {
                committed.push(txn.tid);
            } else {
                aborted.push(txn.tid);
            }
        }

        self.stats.batches += 1;
        self.stats.committed += committed.len() as u64;
        self.stats.abort_events += aborted.len() as u64;
        self.stats.sim_ns += sim_ns;
        self.telemetry.histogram(names::SHARD_TICK_NS).record_ns(sim_ns);
        self.maybe_plan_rebalance();
        // Steady-state replication: every standby row replays the batch
        // just executed (and closes any residual lag) at the boundary.
        self.replicate_tail();
        if let Some(every) = self.cfg.checkpoint_every {
            if self.stats.batches.is_multiple_of(every as u64) {
                for (sh, exec) in self.shards.iter_mut().zip(&self.execs) {
                    sh.durability.checkpoint(exec.database());
                }
            }
        }
        self.queue.requeue(&batch, &aborted, self.cfg.pipelined);
        Ok(Some(ShardedBatchSummary { committed, aborted, sim_ns, flag_words: merged }))
    }

    /// Run batches until every admitted transaction has committed (or
    /// `max_batches` ticks elapse). Returns the final stats.
    pub fn drain(&mut self, max_batches: usize) -> &ShardedStats {
        for _ in 0..max_batches {
            if self.tick().is_none() {
                break;
            }
        }
        &self.stats
    }
}

/// The outcome of one [`run_round`].
#[derive(Default)]
struct Round {
    /// OR-merged conflict-flag word per transaction, by TID.
    merged: MergedWords,
    /// Simulated prepare ns of every participant shard.
    prep_ns: Vec<f64>,
    /// The slowest participant's simulated finish ns.
    max_finish_ns: f64,
}

impl Round {
    fn max_prep_ns(&self) -> f64 {
        self.prep_ns.iter().copied().fold(0.0f64, f64::max)
    }

    /// The round's critical path: slowest prepare (the merge barrier) plus
    /// slowest finish.
    fn sim_ns(&self) -> f64 {
        self.max_prep_ns() + self.max_finish_ns
    }
}

/// One deterministic round of the cross-shard protocol over a topology's
/// executors (`subs[s]` is shard `s`'s sub-batch): prepare every
/// participant against a remote view of its peers' snapshots, OR-merge
/// the per-shard conflict-flag words, hand the merged words back, and
/// finish. Live serving, CPU degradation replay and standby replay all
/// run this one function. `Err((s, e))` names the shard whose device
/// failed; earlier shards may already have finished.
fn run_round<G: BorrowMut<LtpgEngine>>(
    execs: &mut [Executor<G>],
    subs: &[Batch],
    part: &Partitioner,
    cfg: &ServerConfig,
    backoff_ns: &mut f64,
) -> Result<Round, (usize, DeviceError)> {
    let mut round = Round::default();
    for (s, sub) in subs.iter().enumerate() {
        if sub.txns.is_empty() {
            continue;
        }
        let (exec, peers) = split_peers(execs, s, |x| Some(x.database()));
        let ns = with_scope(part, s, Some(peers), |scope| exec.prepare(sub, scope, cfg, backoff_ns))
            .map_err(|e| (s, e))?;
        round.prep_ns.push(ns);
    }
    for (exec, sub) in execs.iter().zip(subs) {
        for (j, txn) in sub.txns.iter().enumerate() {
            *round.merged.entry(txn.tid.0).or_insert(0) |= exec.flag_word(j);
        }
    }
    for (s, (exec, sub)) in execs.iter_mut().zip(subs).enumerate() {
        if sub.txns.is_empty() {
            continue;
        }
        for (j, txn) in sub.txns.iter().enumerate() {
            exec.set_flag_word(j, round.merged[&txn.tid.0]);
        }
        // Finish never reads remote rows (write-back applies only owned
        // mutations), so the scope carries no remote view.
        let (_, ns) =
            with_scope(part, s, None, |scope| exec.finish(sub, scope)).map_err(|e| (s, e))?;
        round.max_finish_ns = round.max_finish_ns.max(ns);
    }
    Ok(round)
}

/// Every shard's logged sub-batch of global batch `b`.
fn logged_subs(shards: &[Shard], b: u64) -> Result<Vec<Batch>, RecoveryError> {
    shards
        .iter()
        .map(|sh| {
            let rec = sh.durability.log().fetch(b).ok_or(RecoveryError::MissingBatch(b))?;
            let txns = decode_batch(&rec.payload).map_err(RecoveryError::Corrupt)?;
            Ok(Batch { txns })
        })
        .collect()
}

/// The sharded [`ltpg_replica::ReplayDriver`]: apply logged batch
/// `batch_id` to one standby row by the exact primary protocol — one
/// [`run_round`] over the row's engines. Determinism makes the row
/// bit-identical to the primaries after every batch.
fn joint_replay_driver<'a>(
    shards: &'a [Shard],
    router: &'a Router,
    cfg: &'a ServerConfig,
) -> impl FnMut(&mut [LtpgEngine], u64) -> Result<MergedWords, ReplicaError> + 'a {
    move |engines, batch_id| {
        let subs = logged_subs(shards, batch_id).map_err(|e| match e {
            RecoveryError::MissingBatch(batch_id) => ReplicaError::WalGap { batch_id },
            e => ReplicaError::Corrupt(e.to_string()),
        })?;
        let mut row: Vec<Executor<&mut LtpgEngine>> =
            engines.iter_mut().map(Executor::gpu).collect();
        run_round(&mut row, &subs, router.partitioner(), cfg, &mut 0.0)
            .map(|round| round.merged)
            .map_err(|(_, e)| ReplicaError::Dead(e))
    }
}

/// Run `f` under shard `s`'s ownership scope: registration, detection and
/// write-back cover only the cells `part` assigns to `s`, and with `peers`
/// (the other shards' databases, `None` at `s`) reads of rows held
/// elsewhere resolve through a [`RemoteView`]. A one-shard topology runs
/// unscoped (`None`): its slice is the whole database.
fn with_scope<R>(
    part: &Partitioner,
    s: usize,
    peers: Option<Vec<Option<&Database>>>,
    f: impl FnOnce(Option<&ExecScope<'_>>) -> R,
) -> R {
    if part.shards() <= 1 {
        return f(None);
    }
    let shard_id = s as u32;
    let owns_row = move |t, k| part.owns_row(shard_id, t, k);
    let owns_mem = move |t, p| part.owns_membership(shard_id, t, p);
    let view = peers.map(|dbs| RemoteView::new(part, dbs));
    let scope = ExecScope {
        remote: view.as_ref().map(|v| v as &(dyn CellStore + Sync)),
        owns_row: &owns_row,
        owns_membership: &owns_mem,
    };
    f(Some(&scope))
}

/// Borrow shard `s`'s entry of `items` mutably alongside its peers'
/// databases, laid out for [`RemoteView`] (`None` at `s`).
fn split_peers<'a, T>(
    items: &'a mut [T],
    s: usize,
    db: impl Fn(&'a T) -> Option<&'a Database>,
) -> (&'a mut T, Vec<Option<&'a Database>>) {
    let (before, rest) = items.split_at_mut(s);
    let (own, after) = rest.split_first_mut().expect("shard index in range");
    let (before, after): (&'a [T], &'a [T]) = (before, after);
    let peers =
        before.iter().map(&db).chain(std::iter::once(None)).chain(after.iter().map(&db)).collect();
    (own, peers)
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("shards", &self.shards.len())
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TableRule;
    use ltpg::LtpgServer;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::{IrOp, ProcId, Src};

    const T: TableId = TableId(0);

    /// A table of `keys` rows and a deterministic mixed read/write stream
    /// with both single-shard and cross-shard transactions (under a
    /// 4-shard stride-1 partitioner, key k lives on shard k % 4).
    fn db_and_txns(n: usize, keys: i64) -> (Database, Vec<Txn>) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
        assert_eq!(t, T);
        for k in 0..keys {
            db.table(T).insert(k, &[k, 0]).unwrap();
        }
        let txns = (0..n as i64)
            .map(|i| {
                let k1 = i % keys;
                let k2 = (i * 7 + 3) % keys;
                if i % 3 == 0 {
                    // Cross-shard read + write pair.
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![
                            IrOp::Read { table: T, key: Src::Const(k1), col: ColId(0), out: 0 },
                            IrOp::Update {
                                table: T,
                                key: Src::Const(k2),
                                col: ColId(0),
                                val: Src::Const(i + 1),
                            },
                        ],
                    )
                } else {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::Update {
                            table: T,
                            key: Src::Const(k1),
                            col: ColId(0),
                            val: Src::Const(i + 1),
                        }],
                    )
                }
            })
            .collect();
        (db, txns)
    }

    fn sharded(db: &Database, shards: u32, batch: usize) -> ShardedServer {
        let part = Partitioner::new(shards, TableRule::Stride { stride: 1 });
        ShardedServer::new(
            db.deep_clone(),
            part,
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        )
    }

    /// The plain single-device server the sharded runs are checked against.
    fn plain(db: &Database, batch: usize) -> LtpgServer {
        LtpgServer::new(
            db.deep_clone(),
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        )
    }

    /// Tick both servers in lockstep and assert per-batch decisions match.
    fn assert_lockstep_identical(server: &mut ShardedServer, reference: &mut LtpgServer) {
        loop {
            let a = server.tick();
            let b = reference.tick();
            match (&a, &b) {
                (None, None) => break,
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.committed, sb.committed, "commit sets must match");
                    assert_eq!(sa.aborted, sb.aborted, "abort sets must match");
                }
                _ => panic!("servers went idle at different ticks: {a:?} vs {b:?}"),
            }
        }
    }

    fn assert_slices_match_reference(server: &ShardedServer, reference: &LtpgServer) {
        let part = server.partitioner().clone();
        for s in 0..server.shard_count() {
            let expect = reference.database().partition_clone(part.slice_pred(s)).state_digest();
            assert_eq!(
                server.database(s).state_digest(),
                expect,
                "shard {s} slice must equal the single-device slice"
            );
        }
    }

    #[test]
    fn four_shards_decide_bit_identically_to_one_engine() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = plain(&db, 48);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 4, 48);
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        let stats = server.stats();
        assert!(stats.cross_shard_txns + stats.broadcast_txns > 0, "stream must cross shards");
        assert!(stats.single_shard_txns > 0);
        assert_eq!(stats.committed, 240);
    }

    #[test]
    fn one_shard_degenerates_to_the_plain_server() {
        let (db, txns) = db_and_txns(100, 16);
        let mut reference = plain(&db, 32);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 1, 32);
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_eq!(server.database(0).state_digest(), reference.database().state_digest());
        assert_eq!(server.stats().cross_shard_txns, 0, "one shard: nothing can cross");
    }

    #[test]
    fn broadcast_scans_agree_with_the_single_engine() {
        // Ordered scans are undeclarable → broadcast; they must still
        // decide identically (the scan merges every shard's slice).
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(TableBuilder::new("T").column("v").capacity(256).build())
                .with_ordered(),
        );
        assert_eq!(t, T);
        for k in 0..24 {
            db.table(T).insert(k, &[k]).unwrap();
        }
        let txns: Vec<Txn> = (0..40i64)
            .map(|i| {
                if i % 4 == 0 {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::RangeSum {
                            table: T,
                            lo: Src::Const(0),
                            hi: Src::Const(24),
                            col: ColId(0),
                            out: 0,
                        }],
                    )
                } else {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::Update {
                            table: T,
                            key: Src::Const(i % 24),
                            col: ColId(0),
                            val: Src::Const(100 + i),
                        }],
                    )
                }
            })
            .collect();
        let mut reference = plain(&db, 10);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 4, 10);
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert!(server.stats().broadcast_txns > 0, "scans must broadcast");
    }

    #[test]
    fn transient_shard_faults_retry_without_degrading() {
        let (db, txns) = db_and_txns(120, 32);
        let mut reference = plain(&db, 40);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 4, 40);
        // First upload of shard 2 fails transiently; the retry succeeds.
        server.arm_shard_faults(
            2,
            DeviceFaultPlan {
                transient_ops: [0u64].into_iter().collect(),
                lost_at_op: None,
                recover_at_op: None,
            },
        );
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert!(!server.is_degraded(2));
        assert_eq!(
            server.shard_telemetry(2).counter_value(names::FAULT_TRANSIENT_RETRIES),
            1,
            "the transient fault must be retried exactly once"
        );
    }

    #[test]
    fn losing_one_shard_degrades_it_and_keeps_history_identical() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = plain(&db, 48);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 4, 48);
        server.submit_all(txns);
        // Let one global batch run, then kill shard 1's device at the next
        // batch boundary.
        let s = server.tick().unwrap();
        let r = reference.tick().unwrap();
        assert_eq!(s.committed, r.committed);
        server.force_shard_failure(1);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert!(server.is_degraded(1), "the lost shard must run on its CPU twin");
        for s in [0u32, 2, 3] {
            assert!(!server.is_degraded(s), "healthy shards keep their devices");
        }
        assert_eq!(server.stats().degraded_shards, 1);
        assert_eq!(
            server.shard_telemetry(1).counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
            1
        );
        assert_eq!(server.telemetry().gauge_value(names::SHARD_DEGRADED), 1);
    }

    #[test]
    fn failover_replaces_the_topology_and_keeps_history_identical() {
        for shards in [1u32, 4] {
            let (db, txns) = db_and_txns(240, 32);
            let mut reference = plain(&db, 48);
            reference.submit_all(txns.clone());
            let mut server = sharded(&db, shards, 48);
            server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
            server.submit_all(txns);
            let s = server.tick().unwrap();
            let r = reference.tick().unwrap();
            assert_eq!(s.committed, r.committed);
            // Kill the last shard's device: the Dead heartbeat fences it at
            // the next batch boundary and the standby row takes over every
            // shard.
            server.force_shard_failure(shards - 1);
            assert_lockstep_identical(&mut server, &mut reference);
            assert_slices_match_reference(&server, &reference);
            assert_eq!(server.stats().batches, reference.stats().batches, "cutover keeps batching");
            assert_eq!(server.stats().failovers, 1);
            assert_eq!(server.stats().degraded_shards, 0, "failover must not degrade anything");
            for s in 0..shards {
                assert!(!server.is_degraded(s), "shard {s} must stay on a GPU engine");
                assert_eq!(
                    server.shard_telemetry(s).counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
                    0
                );
            }
            let reg = server.telemetry();
            assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
            assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 0, "the only row was promoted");
            assert!(reg.histogram(names::REPLICA_FAILOVER_NS).snapshot().count >= 1);
        }
    }

    #[test]
    fn mid_batch_device_loss_fails_over_with_replayed_verdicts() {
        for shards in [1u32, 4] {
            let (db, txns) = db_and_txns(240, 32);
            let mut reference = plain(&db, 48);
            reference.submit_all(txns.clone());
            let mut server = sharded(&db, shards, 48);
            server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
            // A device dies mid-prepare of a later batch: the probe at the
            // boundary saw it healthy, so this exercises the in-flight
            // promotion path (the batch was logged, the standby replays it
            // and its merged words decide the batch).
            server.arm_shard_faults(
                2 % shards,
                DeviceFaultPlan {
                    transient_ops: std::collections::BTreeSet::new(),
                    lost_at_op: Some(6),
                    recover_at_op: None,
                },
            );
            server.submit_all(txns);
            assert_lockstep_identical(&mut server, &mut reference);
            assert_slices_match_reference(&server, &reference);
            assert_eq!(server.stats().failovers, 1);
            assert_eq!(server.stats().degraded_shards, 0);
            assert_eq!(server.telemetry().counter_value(names::REPLICA_PROMOTIONS), 1);
        }
    }

    #[test]
    fn heartbeat_false_positive_failover_is_safe() {
        for shards in [1u32, 4] {
            let (db, txns) = db_and_txns(240, 32);
            let mut reference = plain(&db, 48);
            reference.submit_all(txns.clone());
            let mut server = sharded(&db, shards, 48);
            server.attach_replicas(&ltpg_replica::ReplicaConfig {
                standbys: 1,
                heartbeat_miss_threshold: 3,
            });
            // Drop three consecutive probe rounds: every primary is
            // healthy, but the monitors fence after the third miss and a
            // (safe) false positive failover runs — determinism makes it
            // invisible.
            server.arm_replica_chaos(ReplicaChaos {
                heartbeat_drop_ticks: [1u64, 2, 3].into_iter().collect(),
                ..ReplicaChaos::none()
            });
            server.submit_all(txns);
            assert_lockstep_identical(&mut server, &mut reference);
            assert_slices_match_reference(&server, &reference);
            assert_eq!(server.stats().failovers, 1);
            let reg = server.telemetry();
            assert!(reg.counter_value(names::REPLICA_HEARTBEAT_MISSES) >= 3);
            assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        }
    }

    #[test]
    fn recovered_device_repromotes_the_degraded_shard() {
        // Satellite regression: with no standby pool the loss degrades the
        // shard to its CPU twin, but a timed recovery must bring the
        // revived device back as the serving engine — and clear the
        // degraded gauge — rather than leaving the shard benched forever.
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = plain(&db, 24);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 4, 24);
        server.arm_replica_chaos(ReplicaChaos {
            device_recovers_after_batches: Some(2),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        let s = server.tick().unwrap();
        let r = reference.tick().unwrap();
        assert_eq!(s.committed, r.committed);
        server.force_shard_failure(1);
        let mut saw_degraded = false;
        loop {
            let a = server.tick();
            let b = reference.tick();
            saw_degraded |= server.is_degraded(1);
            match (&a, &b) {
                (None, None) => break,
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.committed, sb.committed);
                    assert_eq!(sa.aborted, sb.aborted);
                }
                _ => panic!("servers went idle at different ticks"),
            }
        }
        assert!(saw_degraded, "the loss must first degrade shard 1 to its CPU twin");
        assert!(!server.is_degraded(1), "the revived device must re-promote the shard");
        assert_eq!(server.stats().degraded_shards, 0, "stats must reflect current topology");
        assert_eq!(
            server.telemetry().gauge_value(names::SHARD_DEGRADED),
            0,
            "the degraded gauge must clear on re-promotion"
        );
        assert_eq!(server.telemetry().counter_value(names::REPLICA_REPROMOTIONS), 1);
        assert_slices_match_reference(&server, &reference);
    }

    #[test]
    fn recovered_device_reenlists_as_a_standby_after_failover() {
        // With a pool attached the failover heals the topology first; the
        // later timed recovery re-enlists the revived device as a fresh
        // standby row instead of touching the serving plane.
        for shards in [1u32, 4] {
            let (db, txns) = db_and_txns(240, 32);
            let mut server = sharded(&db, shards, 24);
            server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
            server.arm_replica_chaos(ReplicaChaos {
                device_recovers_after_batches: Some(2),
                ..ReplicaChaos::none()
            });
            server.submit_all(txns);
            server.tick().unwrap();
            server.force_shard_failure(3 % shards);
            server.drain(100);
            assert_eq!(server.stats().failovers, 1);
            assert_eq!(server.stats().degraded_shards, 0);
            assert_eq!(server.standbys_alive(), 1, "the revived device must refill the pool");
            let reg = server.telemetry();
            assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
            assert_eq!(reg.counter_value(names::REPLICA_REPROMOTIONS), 1);
            assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 1);
        }
    }

    #[test]
    fn exhausted_pool_still_degrades_to_the_cpu_twin() {
        for shards in [1u32, 4] {
            let (db, txns) = db_and_txns(240, 32);
            let mut reference = plain(&db, 24);
            reference.submit_all(txns.clone());
            let mut server = sharded(&db, shards, 24);
            server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
            server.submit_all(txns);
            server.tick().unwrap();
            reference.tick().unwrap();
            server.force_shard_failure(0); // consumes the only standby row
            server.tick().unwrap();
            reference.tick().unwrap();
            let lost = 2 % shards;
            server.force_shard_failure(lost); // pool empty: degrade the shard
            assert_lockstep_identical(&mut server, &mut reference);
            assert_slices_match_reference(&server, &reference);
            assert_eq!(server.stats().failovers, 1);
            assert!(server.is_degraded(lost));
            assert_eq!(server.stats().degraded_shards, 1);
            let reg = server.telemetry();
            assert_eq!(reg.gauge_value(names::SHARD_DEGRADED), 1);
            assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
            assert_eq!(
                server.shard_telemetry(lost).counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
                1
            );
        }
    }

    #[test]
    fn degraded_batch_is_charged_like_the_plain_server() {
        // The in-flight batch that a degradation re-executes on the CPU
        // twin costs the replayed round's prepare + finish, exactly what
        // the plain server charges for the same batch on its twin, so a
        // one-shard server and the plain server agree tick by tick.
        let (db, txns) = db_and_txns(96, 32);
        let mut reference = plain(&db, 32);
        reference.submit_all(txns.clone());
        let mut server = sharded(&db, 1, 32);
        server.submit_all(txns);
        server.tick().unwrap();
        reference.tick().unwrap();
        server.force_shard_failure(0);
        reference.force_device_failure();
        loop {
            match (server.tick(), reference.tick()) {
                (None, None) => break,
                (Some(a), Some(b)) => assert_eq!(a.sim_ns, b.sim_ns, "per-tick charge"),
                (a, b) => panic!("servers went idle at different ticks: {a:?} vs {b:?}"),
            }
        }
        assert!(server.is_degraded(0) && reference.is_degraded());
        assert_eq!(server.stats().sim_ns, reference.stats().sim_ns);
    }

    #[test]
    fn merge_stall_and_routing_telemetry_are_populated() {
        let (db, txns) = db_and_txns(120, 32);
        let mut server = sharded(&db, 4, 40);
        server.submit_all(txns);
        server.drain(100);
        let reg = server.telemetry();
        assert!(reg.counter_value(names::SHARD_TICKS) > 0);
        assert!(reg.counter_value(names::SHARD_SINGLE_TXNS) > 0);
        assert!(reg.counter_value(names::SHARD_CROSS_TXNS) > 0);
        let stall = reg.histogram(names::SHARD_MERGE_STALL_NS).snapshot();
        assert!(stall.count > 0, "every participating shard records a stall sample");
        let summary = server.summary();
        assert!(summary.contains("merge stall"), "summary:\n{summary}");
        assert!(server.stats().cross_shard_fraction() > 0.0);
    }
}
