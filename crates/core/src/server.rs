//! The client-facing system layer.
//!
//! The paper's system (Fig. 2) is more than the three kernels: clients
//! submit transactions, the CPU side assembles batches, assigns TIDs, logs
//! batches for durability, streams them to the device, and re-queues
//! aborted transactions for a later batch (two batches later under the
//! pipeline model, §V-E). [`LtpgServer`] packages that loop behind a
//! submit/tick/drain API so applications never touch batch assembly.
//!
//! ## Fault handling
//!
//! The server is the fault boundary. Each tick logs the batch *before*
//! executing it, then runs it through the active executor:
//!
//! - a **transient transfer fault** on upload aborts the attempt before
//!   the device touches anything, so the server retries the whole batch —
//!   up to [`ServerConfig::max_transient_retries`] times, charging
//!   exponential backoff to simulated time;
//! - **device loss** (or retry exhaustion) triggers graceful degradation:
//!   the server rebuilds the pre-batch state from checkpoint + log on the
//!   deterministic CPU twin ([`CpuTwin`]), replays the in-flight batch
//!   there, and keeps serving. Determinism makes the hand-off invisible:
//!   the twin derives bit-identical commit decisions, so clients see the
//!   same history, only slower.
//!
//! Counters for all of this are in [`FaultStats`] via
//! [`LtpgServer::stats`].

use std::collections::VecDeque;
use std::sync::Arc;

use ltpg_gpu_sim::{Device, DeviceError, DeviceFaultPlan};
use ltpg_storage::Database;
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{Batch, BatchEngine, BatchReport, Tid, TidGen, Txn};

use crate::config::LtpgConfig;
use crate::engine::LtpgEngine;
use crate::faults::{PromotionCrashpoint, ReplicaChaos};
use crate::recovery::{DurabilityManager, RecoveryError, RecoveryOptions};
use crate::stats::FaultStats;
use crate::twin::CpuTwin;

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Transactions per batch (smaller final batches are allowed when
    /// draining).
    pub batch_size: usize,
    /// Pipeline mode: aborted transactions re-enter two batches later
    /// (their upload slot for the next batch has already left the host);
    /// otherwise the next batch.
    pub pipelined: bool,
    /// Take a durability checkpoint every `n` batches (None = only the
    /// initial checkpoint).
    pub checkpoint_every: Option<usize>,
    /// How many times to re-issue a batch whose upload failed transiently
    /// before declaring the device unusable.
    pub max_transient_retries: u32,
    /// Simulated backoff before the first retry, ns; doubles per attempt
    /// (the doubling exponent is clamped so arbitrarily high retry limits
    /// cannot overflow).
    pub retry_backoff_ns: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_size: 1 << 12,
            pipelined: true,
            checkpoint_every: None,
            max_transient_retries: 4,
            retry_backoff_ns: 5_000.0,
        }
    }
}

/// Cumulative server statistics.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Batches executed.
    pub batches: u64,
    /// Transactions admitted via [`LtpgServer::submit`].
    pub admitted: u64,
    /// Transactions committed (each counted once, at commit).
    pub committed: u64,
    /// Abort events (one transaction may abort repeatedly before
    /// committing).
    pub abort_events: u64,
    /// Total simulated device time, ns.
    pub sim_ns: f64,
    /// Fault-handling counters (all zero in fault-free operation). A view
    /// over the server's telemetry registry, refreshed every tick.
    pub faults: FaultStats,
}

impl ServerStats {
    /// Human-readable end-of-run block. [`LtpgServer::summary`] extends
    /// this with latency percentiles and the abort-reason taxonomy from
    /// the registry.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "batches executed      {}", self.batches);
        let _ = writeln!(out, "txns admitted         {}", self.admitted);
        let _ = writeln!(out, "txns committed        {}", self.committed);
        let _ = writeln!(out, "abort events          {}", self.abort_events);
        let _ = writeln!(out, "simulated time        {:.1} us", self.sim_ns / 1e3);
        let f = &self.faults;
        let _ = writeln!(
            out,
            "faults                {} retries, {:.1} us backoff, {} fallback(s), {} frame(s) truncated",
            f.transient_retries,
            f.backoff_ns / 1e3,
            f.fallback_activations,
            f.frames_truncated,
        );
        out
    }
}

/// Outcome of one [`LtpgServer::tick`].
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// TIDs committed by this batch.
    pub committed: Vec<Tid>,
    /// TIDs aborted (scheduled for re-execution).
    pub aborted: Vec<Tid>,
    /// Simulated batch latency, ns (including any retry backoff).
    pub sim_ns: f64,
}

/// A fault the server could not absorb.
#[derive(Debug)]
pub enum ServerError {
    /// The device was lost and rebuilding state on the CPU twin also
    /// failed — the log itself is damaged beyond the torn-tail case.
    DegradationFailed(RecoveryError),
    /// A chaos-scheduled process kill fired inside the standby-promotion
    /// window (see [`crate::PromotionCrashpoint`]). The server object is
    /// dead from the caller's perspective; recovery proceeds from the WAL
    /// exactly as it would after a real crash.
    InjectedCrash(&'static str),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::DegradationFailed(e) => {
                write!(f, "device lost and CPU degradation failed: {e}")
            }
            ServerError::InjectedCrash(site) => {
                write!(f, "injected process crash at {site}")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::DegradationFailed(e) => Some(e),
            ServerError::InjectedCrash(_) => None,
        }
    }
}

/// Warm-standby supplier the server consults before abandoning the GPU.
///
/// The replication layer (`ltpg-replica`) implements this for its
/// `ReplicaSet`; the trait lives here so the core server can route device
/// loss through replicas without depending on the replica crate. The
/// contract leans entirely on determinism: a standby that replayed the
/// same WAL prefix is bit-identical to the primary, so the server may
/// swap executors at a batch boundary without any state transfer.
pub trait FailoverProvider {
    /// The durability log advanced to `dur.logged_batches()`; standbys may
    /// replay toward the new tail. Called once per executed batch.
    fn after_batch(&mut self, dur: &DurabilityManager);

    /// Standbys currently healthy enough to promote.
    fn standbys_available(&self) -> usize;

    /// Promote the best standby: catch it up through batches `< upto`
    /// (the in-flight batch `upto` is re-executed by the server on the
    /// promoted engine) and surrender the engine. `None` when the pool is
    /// exhausted or every standby is dead.
    fn promote(&mut self, dur: &DurabilityManager, upto: u64) -> Option<Box<LtpgEngine>>;

    /// A physically recovered device is offered back to the pool (already
    /// revived and reset). Returns whether it was re-enlisted as a fresh
    /// standby.
    fn reenlist(&mut self, device: Arc<Device>, dur: &DurabilityManager) -> bool;
}

/// The executor currently serving batches.
enum Executor {
    /// Normal operation: the (simulated) GPU engine.
    Gpu(Box<LtpgEngine>),
    /// Degraded operation after device loss: the serial CPU twin.
    Cpu(Box<CpuTwin>),
}

impl Executor {
    fn database(&self) -> &Database {
        match self {
            Executor::Gpu(e) => e.database(),
            Executor::Cpu(e) => e.database(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Executor::Gpu(e) => e.name(),
            Executor::Cpu(e) => e.name(),
        }
    }

    fn record_telemetry(&self, reg: &Registry, report: &BatchReport) {
        match self {
            Executor::Gpu(e) => e.record_telemetry(reg, report),
            Executor::Cpu(e) => e.record_telemetry(reg, report),
        }
    }
}

/// A batching OLTP server over one [`LtpgEngine`], degrading to a
/// [`CpuTwin`] if the device is lost.
pub struct LtpgServer {
    executor: Executor,
    durability: DurabilityManager,
    cfg: ServerConfig,
    /// Engine configuration, kept for recovery replays and the CPU-twin
    /// hand-off.
    engine_cfg: LtpgConfig,
    tids: TidGen,
    /// Fresh client submissions.
    inbox: VecDeque<Txn>,
    /// Aborted transactions waiting out their re-entry delay; slot 0
    /// re-enters on the next tick.
    requeue: VecDeque<Vec<Txn>>,
    stats: ServerStats,
    /// This server's private metrics registry: every component under the
    /// server (device, engine, fault handling) publishes here, so two
    /// servers in one process never cross-contaminate.
    telemetry: Arc<Registry>,
    /// Warm standbys to promote on device loss, if attached.
    failover: Option<Box<dyn FailoverProvider>>,
    /// Armed replication chaos (timed device recovery, promotion-window
    /// crashpoints). Inert by default.
    replica_chaos: ReplicaChaos,
    /// The physical device lost by the last degradation/failover, kept so
    /// a timed recovery can revive and re-enlist it.
    lost_device: Option<Arc<Device>>,
    /// `stats.batches` at the moment the device was lost.
    lost_at_batch: Option<u64>,
}

impl LtpgServer {
    /// Create a server over `db`.
    pub fn new(db: Database, engine_cfg: LtpgConfig, cfg: ServerConfig) -> Self {
        assert!(cfg.batch_size > 0, "batch size must be positive");
        let durability = DurabilityManager::new(&db);
        let telemetry = Registry::new_shared();
        // Pre-touch the fault counters so a fault-free export still shows
        // the whole family at zero (dashboards alert on any non-zero).
        for name in names::FAULT_COUNTERS {
            telemetry.counter(name);
        }
        LtpgServer {
            executor: Executor::Gpu(Box::new(LtpgEngine::with_telemetry(
                db,
                engine_cfg.clone(),
                Arc::clone(&telemetry),
            ))),
            durability,
            cfg,
            engine_cfg,
            tids: TidGen::new(),
            inbox: VecDeque::new(),
            requeue: VecDeque::new(),
            stats: ServerStats::default(),
            telemetry,
            failover: None,
            replica_chaos: ReplicaChaos::none(),
            lost_device: None,
            lost_at_batch: None,
        }
    }

    /// Attach a warm-standby pool. On device loss the server promotes a
    /// standby (caught up from the WAL) instead of degrading to the CPU
    /// twin; the twin remains the last resort once the pool is
    /// exhausted.
    pub fn attach_failover(&mut self, provider: Box<dyn FailoverProvider>) {
        self.failover = Some(provider);
    }

    /// Whether a failover provider is attached.
    pub fn has_failover(&self) -> bool {
        self.failover.is_some()
    }

    /// Arm replication chaos knobs (timed device recovery, promotion-window
    /// crashpoints). Heartbeat and standby-lag knobs are consumed by the
    /// replica layer itself.
    pub fn arm_replica_chaos(&mut self, chaos: ReplicaChaos) {
        self.replica_chaos = chaos;
    }

    /// Enqueue one transaction.
    pub fn submit(&mut self, txn: Txn) {
        self.stats.admitted += 1;
        self.inbox.push_back(txn);
    }

    /// Enqueue many transactions.
    pub fn submit_all<I: IntoIterator<Item = Txn>>(&mut self, txns: I) {
        for t in txns {
            self.submit(t);
        }
    }

    /// Transactions waiting (fresh + re-queued).
    pub fn pending(&self) -> usize {
        self.inbox.len() + self.requeue.iter().map(Vec::len).sum::<usize>()
    }

    /// Fresh submissions waiting in the inbox (excludes re-queued aborts
    /// sitting out their retry delay).
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// The TID the next fresh admission will receive at batch assembly.
    /// Fresh TIDs are handed out in inbox FIFO order, so an ingestion layer
    /// can mirror this counter to correlate commits with submissions.
    pub fn next_tid(&self) -> u64 {
        self.tids.peek()
    }

    /// The live database.
    pub fn database(&self) -> &Database {
        self.executor.database()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The server's metrics registry (counters, gauges, histograms, phase
    /// trace).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Export every metric and trace span as JSONL (see
    /// [`ltpg_telemetry::export`] for the line schema).
    pub fn export_telemetry_jsonl(&self) -> String {
        self.telemetry.export_jsonl()
    }

    /// Human-readable end-of-run summary: the cumulative [`ServerStats`]
    /// block plus batch-latency percentiles and the abort-reason taxonomy
    /// from the registry.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.stats.summary();
        let _ = writeln!(out, "executor              {}", self.executor.name());
        let h = self.telemetry.histogram(names::SERVER_BATCH_NS).snapshot();
        if h.count > 0 {
            let _ = writeln!(
                out,
                "batch latency         p50 {:.1} us, p95 {:.1} us, p99 {:.1} us (n={})",
                h.p50 as f64 / 1e3,
                h.p95 as f64 / 1e3,
                h.p99 as f64 / 1e3,
                h.count,
            );
        }
        let _ = writeln!(out, "abort reasons:");
        for name in names::ABORT_REASONS {
            let _ = writeln!(out, "  {name:<32} {}", self.telemetry.counter_value(name));
        }
        out
    }

    /// Name of the executor currently serving batches (`"LTPG"` normally,
    /// `"LTPG-CPU-fallback"` after degradation).
    pub fn executor_name(&self) -> &'static str {
        self.executor.name()
    }

    /// Whether the server has degraded to the CPU twin.
    pub fn is_degraded(&self) -> bool {
        matches!(self.executor, Executor::Cpu(_))
    }

    /// The durability manager (checkpoint/log inspection, recovery).
    pub fn durability(&self) -> &DurabilityManager {
        &self.durability
    }

    /// Arm a deterministic device-fault schedule (testing / chaos drills).
    /// No-op when already degraded to the CPU executor.
    pub fn arm_faults(&self, plan: DeviceFaultPlan) {
        if let Executor::Gpu(engine) = &self.executor {
            engine.device().arm_faults(plan);
        }
    }

    /// Force the device into its failed state at the next batch boundary
    /// (the hard-crashpoint drill).
    pub fn force_device_failure(&self) {
        if let Executor::Gpu(engine) = &self.executor {
            engine.device().fail_now();
        }
    }

    /// Rebuild a database from the last checkpoint + log (what a restarted
    /// node would do). The server keeps running; this is a read-only
    /// operation on the durability state.
    pub fn simulate_recovery(&self, cfg: LtpgConfig) -> Result<Database, RecoveryError> {
        self.durability.recover(cfg)
    }

    /// Abandon the device: rebuild the pre-batch state on the CPU twin by
    /// replaying checkpoint + log up to (excluding) `batch_id`, then
    /// install it as the executor.
    fn degrade_to_cpu(&mut self, batch_id: u64) -> Result<&mut CpuTwin, ServerError> {
        let mut cpu = CpuTwin::new(self.durability.checkpoint_image(), self.engine_cfg.clone());
        let replay = self
            .durability
            .replay_onto(&mut cpu, &RecoveryOptions::default(), Some(batch_id))
            .map_err(ServerError::DegradationFailed)?;
        self.telemetry.counter(names::FAULT_FALLBACK_ACTIVATIONS).inc();
        if replay.torn_tail {
            self.telemetry.counter(names::FAULT_FRAMES_TRUNCATED).inc();
            self.telemetry
                .counter(names::FAULT_BYTES_TRUNCATED)
                .add(replay.bytes_truncated);
        }
        self.stats.faults = FaultStats::from_registry(&self.telemetry);
        self.executor = Executor::Cpu(Box::new(cpu));
        match &mut self.executor {
            Executor::Cpu(e) => Ok(e),
            // Invariant: assigned one line above.
            Executor::Gpu(_) => unreachable!("executor was just set to Cpu"),
        }
    }

    /// Try to promote a warm standby after the primary device was lost
    /// mid-batch `batch_id`. Returns `Ok(true)` when a caught-up standby
    /// engine was installed as the executor; `Ok(false)` sends the caller
    /// down the CPU-degradation path. Promotion-window crashpoints fire
    /// here — the one moment where in-flight state exists only in the WAL.
    fn try_failover(&mut self, batch_id: u64) -> Result<bool, ServerError> {
        let Some(provider) = self.failover.as_mut() else {
            return Ok(false);
        };
        if provider.standbys_available() == 0 {
            return Ok(false);
        }
        match self.replica_chaos.promotion_crash.take() {
            Some(PromotionCrashpoint::BeforeCatchup) => {
                return Err(ServerError::InjectedCrash("promotion:before-catchup"));
            }
            Some(PromotionCrashpoint::AfterCatchup) => {
                // Let the standby do its catch-up replay, then die before it
                // serves a single batch: all that work must be recoverable
                // from the WAL alone.
                let _ = provider.promote(&self.durability, batch_id);
                return Err(ServerError::InjectedCrash("promotion:after-catchup"));
            }
            None => {}
        }
        let Some(engine) = provider.promote(&self.durability, batch_id) else {
            return Ok(false);
        };
        self.executor = Executor::Gpu(engine);
        self.stats.faults = FaultStats::from_registry(&self.telemetry);
        Ok(true)
    }

    /// Execute `batch` (already logged as `batch_id`) on the active
    /// executor, absorbing transient faults, failing over to a warm
    /// standby on device loss, and degrading to the CPU twin as the
    /// last resort.
    fn execute_resilient(
        &mut self,
        batch: &Batch,
        batch_id: u64,
    ) -> Result<(ltpg_txn::BatchReport, f64), ServerError> {
        let mut backoff_ns = 0.0;
        while let Executor::Gpu(engine) = &mut self.executor {
            let mut attempt = 0u32;
            loop {
                match engine.try_execute_batch_report(batch) {
                    // Download (D2H) retries were already counted on the
                    // shared registry by the engine's retry loop — even for
                    // attempts that later died — so nothing to fold here.
                    Ok(r) => return Ok((r.report, backoff_ns)),
                    // Upload failed before the device touched anything:
                    // the batch never ran, so re-issuing it is safe.
                    Err(DeviceError::TransientTransfer { .. })
                        if attempt < self.cfg.max_transient_retries =>
                    {
                        attempt += 1;
                        self.telemetry.counter(names::FAULT_TRANSIENT_RETRIES).inc();
                        // Exponent clamped: retry limits ≥ 32 used to
                        // overflow the u32 shift here.
                        let pause = self.cfg.retry_backoff_ns
                            * 2f64.powi((attempt - 1).min(30) as i32);
                        backoff_ns += pause;
                        self.telemetry
                            .counter(names::FAULT_BACKOFF_NS)
                            .add(pause.round() as u64);
                    }
                    // Device loss, or a device so flaky retries ran out.
                    // The batch is already logged, so whichever successor
                    // executor takes over rebuilds exactly the pre-batch
                    // state regardless of where mid-batch the device died.
                    Err(_) => break,
                }
            }
            // Fence the failed primary but keep the handle: a timed
            // recovery may revive it later.
            self.lost_device = Some(engine.device_handle());
            self.lost_at_batch = Some(self.stats.batches);
            if !self.try_failover(batch_id)? {
                break;
            }
            // A promoted standby is serving now; re-issue the in-flight
            // batch on it (its catch-up replay stopped just short).
        }
        let cpu = match &mut self.executor {
            Executor::Cpu(e) => e,
            Executor::Gpu(_) => self.degrade_to_cpu(batch_id)?,
        };
        Ok((cpu.execute_batch(batch), backoff_ns))
    }

    /// If the chaos schedule says the lost device's outage has ended,
    /// revive it and bring it back: a CPU-degraded server re-promotes to a
    /// GPU engine over the twin's live database (determinism makes the
    /// swap invisible); a server that already failed over offers the device
    /// to the standby pool instead. Runs at batch boundaries only — the
    /// cutover barrier.
    fn maybe_rejoin_recovered_device(&mut self) {
        let Some(k) = self.replica_chaos.device_recovers_after_batches else {
            return;
        };
        let Some(lost_at) = self.lost_at_batch else {
            return;
        };
        if self.stats.batches < lost_at.saturating_add(k) {
            return;
        }
        let Some(device) = self.lost_device.take() else {
            return;
        };
        self.lost_at_batch = None;
        device.revive();
        device.reset_for_reuse();
        if let Executor::Cpu(twin) = &mut self.executor {
            // Re-promotion from the CPU twin: its database IS the current
            // state, so the recovered device just adopts it.
            let db = twin.take_database();
            self.executor = Executor::Gpu(Box::new(LtpgEngine::with_device(
                db,
                self.engine_cfg.clone(),
                Arc::clone(&self.telemetry),
                device,
            )));
            self.telemetry.counter(names::REPLICA_REPROMOTIONS).inc();
        } else if let Some(provider) = self.failover.as_mut() {
            provider.reenlist(device, &self.durability);
        }
    }

    /// Form and execute one batch. Returns `None` when the server is
    /// fully idle. An empty summary is returned when nothing is due *yet*
    /// but aborted transactions are waiting out their re-entry delay (the
    /// tick advances the delay clock).
    ///
    /// # Panics
    ///
    /// If degradation after device loss fails because the log is damaged
    /// beyond the torn-tail case. Fault-injecting callers use
    /// [`try_tick`](Self::try_tick).
    pub fn tick(&mut self) -> Option<BatchSummary> {
        // Invariant: with an undamaged log (nothing corrupts it but
        // injection), degradation replay cannot fail.
        self.try_tick().expect("WAL damaged while serving: use try_tick")
    }

    /// [`tick`](Self::tick), surfacing unabsorbable faults as typed
    /// errors instead of panicking.
    pub fn try_tick(&mut self) -> Result<Option<BatchSummary>, ServerError> {
        self.telemetry.counter(names::SERVER_TICKS).inc();
        self.maybe_rejoin_recovered_device();
        let due = self.requeue.pop_front().unwrap_or_default();
        if due.is_empty() && self.inbox.is_empty() {
            if self.requeue.iter().all(Vec::is_empty) {
                return Ok(None); // fully idle
            }
            // Work is in a later delay slot: this tick just passes time.
            return Ok(Some(BatchSummary {
                committed: Vec::new(),
                aborted: Vec::new(),
                sim_ns: 0.0,
            }));
        }
        let mut fresh = Vec::new();
        while fresh.len() + due.len() < self.cfg.batch_size {
            match self.inbox.pop_front() {
                Some(t) => fresh.push(t),
                None => break,
            }
        }
        let batch = Batch::assemble(due, fresh, &mut self.tids);
        let batch_id = self.durability.log_batch(&batch);
        let (report, backoff_ns) = self.execute_resilient(&batch, batch_id)?;

        self.stats.batches += 1;
        self.stats.committed += report.committed.len() as u64;
        self.stats.abort_events += report.aborted.len() as u64;
        self.stats.sim_ns += report.sim_ns + backoff_ns;
        self.stats.faults = FaultStats::from_registry(&self.telemetry);
        self.telemetry.counter(names::SERVER_BATCHES).inc();
        self.telemetry
            .counter(names::SERVER_COMMITTED)
            .add(report.committed.len() as u64);
        self.telemetry
            .counter(names::SERVER_ABORT_EVENTS)
            .add(report.aborted.len() as u64);
        self.telemetry
            .histogram(names::SERVER_BATCH_NS)
            .record_ns(report.sim_ns + backoff_ns);
        self.executor.record_telemetry(&self.telemetry, &report);
        if let Some(provider) = self.failover.as_mut() {
            provider.after_batch(&self.durability);
        }
        if let Some(every) = self.cfg.checkpoint_every {
            if self.stats.batches.is_multiple_of(every as u64) {
                self.durability.checkpoint(self.executor.database());
                self.telemetry.counter(names::SERVER_CHECKPOINTS).inc();
            }
        }

        // Schedule aborts for re-entry.
        if !report.aborted.is_empty() {
            let delay = if self.cfg.pipelined { 2 } else { 1 };
            while self.requeue.len() < delay {
                self.requeue.push_back(Vec::new());
            }
            let retry: Vec<Txn> = report
                .aborted
                .iter()
                .map(|tid| batch.by_tid(*tid).expect("aborted tid in batch").clone())
                .collect();
            self.requeue[delay - 1].extend(retry);
        }
        self.telemetry.gauge(names::SERVER_PENDING).set(self.pending() as i64);
        Ok(Some(BatchSummary {
            committed: report.committed,
            aborted: report.aborted,
            sim_ns: report.sim_ns + backoff_ns,
        }))
    }

    /// Run batches until every admitted transaction has committed (or
    /// `max_batches` is hit; contention-heavy queues always drain because
    /// the minimum-TID transaction of each re-entry wave wins its
    /// conflicts). Returns the final stats.
    pub fn drain(&mut self, max_batches: usize) -> &ServerStats {
        for _ in 0..max_batches {
            if self.tick().is_none() {
                break;
            }
        }
        &self.stats
    }
}

impl std::fmt::Debug for LtpgServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LtpgServer")
            .field("executor", &self.executor.name())
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::{IrOp, ProcId, Src};

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
                        col: ColId(0),
                        val: Src::Const(i + 1),
                    }],
                )
            })
            .collect();
        (db, txns)
    }

    fn small_server(db: Database, batch_size: usize, pipelined: bool) -> LtpgServer {
        LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig { batch_size, pipelined, ..ServerConfig::default() },
        )
    }

    #[test]
    fn drain_commits_every_admitted_transaction_exactly_once() {
        let (db, txns) = db_and_writers(200, 5);
        let mut server = small_server(db, 32, true);
        server.submit_all(txns);
        let stats = server.drain(500).clone();
        assert_eq!(stats.committed, 200, "heavy WAW contention must still drain");
        assert_eq!(server.pending(), 0);
        assert!(stats.abort_events > 0, "5 hot keys × 32-txn batches must conflict");
        assert!(stats.batches as usize >= 200 / 32);
        assert_eq!(stats.faults, FaultStats::default(), "fault-free run has zero counters");
    }

    #[test]
    fn pipelined_reentry_waits_two_batches() {
        let (db, txns) = db_and_writers(64, 1); // all conflict on one key
        let mut server = small_server(db, 64, true);
        server.submit_all(txns);
        let s1 = server.tick().unwrap();
        assert_eq!(s1.committed.len(), 1);
        // Next tick: the aborted txns are still in their delay slot, and
        // there is no fresh work — but the slot structure means tick runs
        // an empty... no: slot 0 is empty, inbox empty → the delayed work
        // must still surface on the *following* tick.
        let s2 = server.tick().expect("delay slot keeps the server ticking");
        assert_eq!(s2.committed.len() + s2.aborted.len(), 0);
        let s3 = server.tick().unwrap();
        assert_eq!(s3.committed.len(), 1, "retries re-enter two ticks later");
    }

    #[test]
    fn server_recovery_matches_live_state() {
        let (db, txns) = db_and_writers(120, 7);
        let mut server = LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig {
                batch_size: 16,
                pipelined: false,
                checkpoint_every: Some(3),
                ..ServerConfig::default()
            },
        );
        server.submit_all(txns);
        server.drain(200);
        let recovered = server.simulate_recovery(LtpgConfig::default()).unwrap();
        assert_eq!(recovered.state_digest(), server.database().state_digest());
        assert!(server.durability().logged_batches() > 0);
    }

    #[test]
    fn empty_server_ticks_none() {
        let (db, _) = db_and_writers(0, 3);
        let mut server = LtpgServer::new(db, LtpgConfig::default(), ServerConfig::default());
        assert!(server.tick().is_none());
        assert_eq!(server.stats().batches, 0);
    }

    #[test]
    fn transient_faults_are_retried_with_backoff() {
        let (db, txns) = db_and_writers(60, 6);
        let mut server = small_server(db, 20, false);
        // Ordinal 0 is the first batch's upload; after the retry shifts
        // the stream by one, ordinal 5 lands on that batch's download —
        // one fault of each transfer direction.
        server.arm_faults(DeviceFaultPlan {
            transient_ops: [0u64, 5].into_iter().collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        server.submit_all(txns);
        let stats = server.drain(100).clone();
        assert_eq!(stats.committed, 60);
        assert!(!server.is_degraded(), "transients alone must not trigger fallback");
        assert_eq!(stats.faults.transient_retries, 2);
        assert!(stats.faults.backoff_ns > 0.0);
        assert_eq!(stats.faults.fallback_activations, 0);
    }

    #[test]
    fn device_loss_degrades_to_cpu_with_identical_history() {
        let (db, txns) = db_and_writers(120, 7);
        let mut reference = small_server(db.deep_clone(), 16, false);
        reference.submit_all(txns.clone());
        let ref_stats = reference.drain(200).clone();

        let mut server = small_server(db, 16, false);
        // Lose the device partway through the run: ordinal 11 is the
        // liveness check before the third batch's execute kernel, i.e. a
        // mid-batch crashpoint.
        server.arm_faults(DeviceFaultPlan {
            transient_ops: Default::default(),
            lost_at_op: Some(11),
            recover_at_op: None,
        });
        server.submit_all(txns);
        let stats = server.drain(200).clone();

        assert!(server.is_degraded());
        assert_eq!(server.executor_name(), "LTPG-CPU-fallback");
        assert_eq!(stats.faults.fallback_activations, 1);
        assert_eq!(stats.committed, ref_stats.committed);
        assert_eq!(stats.batches, ref_stats.batches, "degradation must not change batching");
        assert_eq!(
            server.database().state_digest(),
            reference.database().state_digest(),
            "CPU fallback must reproduce the all-GPU history bit-for-bit"
        );
    }

    #[test]
    fn forced_failure_at_batch_boundary_drains_on_cpu() {
        let (db, txns) = db_and_writers(100, 5);
        let mut reference = small_server(db.deep_clone(), 25, true);
        reference.submit_all(txns.clone());
        reference.drain(200);

        let mut server = small_server(db, 25, true);
        server.submit_all(txns);
        server.tick().unwrap();
        server.force_device_failure(); // crashpoint at a batch boundary
        let stats = server.drain(200).clone();
        assert!(server.is_degraded());
        assert_eq!(stats.faults.fallback_activations, 1);
        assert_eq!(
            server.database().state_digest(),
            reference.database().state_digest()
        );
    }

    #[test]
    fn recovered_device_repromotes_the_degraded_server() {
        // No standbys attached: the loss degrades onto the CPU twin, and a
        // timed recovery must bring the revived device back as the serving
        // engine over the twin's live database, history unchanged.
        let (db, txns) = db_and_writers(100, 5);
        let mut reference = small_server(db.deep_clone(), 25, true);
        reference.submit_all(txns.clone());
        reference.drain(200);

        let mut server = small_server(db, 25, true);
        server.arm_replica_chaos(ReplicaChaos {
            device_recovers_after_batches: Some(2),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        server.tick().unwrap();
        server.force_device_failure();
        let mut saw_degraded = false;
        while server.tick().is_some() {
            saw_degraded |= server.is_degraded();
        }
        assert!(saw_degraded, "the loss must first degrade onto the CPU twin");
        assert!(!server.is_degraded(), "the revived device must re-promote the server");
        assert_eq!(server.executor_name(), "LTPG");
        assert_eq!(server.telemetry().counter_value(names::REPLICA_REPROMOTIONS), 1);
        assert_eq!(server.stats().faults.fallback_activations, 1);
        assert_eq!(
            server.database().state_digest(),
            reference.database().state_digest(),
            "re-promotion must not change the history"
        );
    }

    #[test]
    fn retry_exhaustion_degrades_instead_of_spinning() {
        let (db, txns) = db_and_writers(40, 4);
        let mut server = LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig {
                batch_size: 20,
                pipelined: false,
                max_transient_retries: 2,
                ..ServerConfig::default()
            },
        );
        // Every upload attempt of the first batch fails transiently
        // (retries re-draw ordinals 0, 1, 2, ...).
        server.arm_faults(DeviceFaultPlan {
            transient_ops: (0u64..16).collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        server.submit_all(txns);
        let stats = server.drain(100).clone();
        assert!(server.is_degraded(), "a hopelessly flaky device must be abandoned");
        assert_eq!(stats.committed, 40);
        assert_eq!(stats.faults.transient_retries, 2);
    }

    #[test]
    fn high_retry_limits_do_not_overflow_the_backoff_shift() {
        // Regression: the backoff doubling used `1u32 << (attempt - 1)`,
        // which panics in debug builds (and wraps in release) once a
        // retry limit ≥ 32 lets `attempt` reach 33. The exponent is now
        // clamped, so a 40-retry policy exhausts cleanly and degrades.
        let (db, txns) = db_and_writers(40, 4);
        let mut server = LtpgServer::new(
            db,
            LtpgConfig::default(),
            ServerConfig {
                batch_size: 20,
                pipelined: false,
                max_transient_retries: 40,
                ..ServerConfig::default()
            },
        );
        server.arm_faults(DeviceFaultPlan {
            transient_ops: (0u64..64).collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        server.submit_all(txns);
        let stats = server.drain(100).clone();
        assert!(server.is_degraded());
        assert_eq!(stats.committed, 40);
        assert_eq!(stats.faults.transient_retries, 40);
        assert!(stats.faults.backoff_ns.is_finite() && stats.faults.backoff_ns > 0.0);
    }

    #[test]
    fn d2h_retries_survive_a_later_device_loss() {
        // Regression: download retries used to be folded into the fault
        // counters only when the attempt ultimately *succeeded*; an attempt
        // that retried its D2H twice and then hit device loss reported zero
        // retries. The engine now counts each retry as it happens.
        //
        // Ordinals for the first batch: 0 = upload, 1–3 = liveness checks,
        // 4 = download (transient → retry), 5 = download retry (transient →
        // retry), 6 = download retry (device lost).
        let (db, txns) = db_and_writers(40, 4);
        let mut server = small_server(db, 20, false);
        server.arm_faults(DeviceFaultPlan {
            transient_ops: [4u64, 5].into_iter().collect(),
            lost_at_op: Some(6),
            recover_at_op: None,
        });
        server.submit_all(txns);
        let stats = server.drain(100).clone();
        assert!(server.is_degraded(), "the download loss must degrade the server");
        assert_eq!(stats.committed, 40, "the CPU fallback still drains everything");
        assert_eq!(
            stats.faults.transient_retries, 2,
            "retries from the doomed attempt must not be lost"
        );
        assert_eq!(stats.faults.fallback_activations, 1);
    }

    #[test]
    fn summary_and_jsonl_export_cover_the_run() {
        let (db, txns) = db_and_writers(64, 4);
        let mut server = small_server(db, 16, true);
        server.submit_all(txns);
        server.drain(100);
        let summary = server.summary();
        assert!(summary.contains("txns committed        64"), "summary:\n{summary}");
        assert!(summary.contains("batch latency"), "summary:\n{summary}");
        assert!(summary.contains(names::ABORT_CONFLICT_LOSER), "summary:\n{summary}");
        let jsonl = server.export_telemetry_jsonl();
        let lines = ltpg_telemetry::export::validate_jsonl(&jsonl).expect("export must parse");
        assert!(lines.len() > 10, "expected a populated export, got {} lines", lines.len());
    }
}
