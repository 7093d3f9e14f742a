//! Warm-standby pools replaying the deterministic commit stream.
//!
//! A [`ReplicaSet`] owns N *standby rows*. Each row is a complete replica
//! of the serving topology: one [`LtpgEngine`] per shard (a one-shard
//! row backs a one-shard server), built from the shards' checkpoint
//! images and advanced by replaying batch-id-aligned WAL records. Because
//! LTPG's commit decision is a pure function of (snapshot, batch, TIDs),
//! a row that has applied the same WAL prefix is bit-identical to the
//! primary — replication is replay, and failover is a pointer swap at a
//! batch boundary.
//!
//! The set is deliberately ignorant of *how* a batch is applied: callers
//! pass a [`ReplayDriver`] closure. The sharded server supplies one that
//! runs its serving round over the row's engines — prepare every shard's
//! sub-batch against a remote view of its row peers, merge conflict
//! words, finish — exactly mirroring primary execution. Keeping the
//! driver outside the crate keeps the dependency arrow pointing the right
//! way (`ltpg-shard` → `ltpg-replica` → `ltpg`).

use std::collections::BTreeMap;
use std::sync::Arc;

use ltpg::{LtpgConfig, LtpgEngine};
use ltpg_gpu_sim::{Device, DeviceError};
use ltpg_storage::Database;
use ltpg_telemetry::{names, Counter, Gauge, Histogram, Registry};

/// Merged per-transaction conflict-flag words produced by replaying one
/// batch (TID → OR-merged flag word).
pub type MergedWords = BTreeMap<u64, u32>;

/// Applies logged batch `batch_id` to a standby row's engines (one per
/// shard) and returns the merged conflict-flag words.
pub type ReplayDriver<'a> =
    dyn FnMut(&mut [LtpgEngine], u64) -> Result<MergedWords, ReplicaError> + 'a;

/// Why a standby row could not apply a batch.
#[derive(Debug)]
pub enum ReplicaError {
    /// The WAL has no record for this batch id (log damage or a torn
    /// prefix — the row cannot safely continue).
    WalGap {
        /// The missing batch id.
        batch_id: u64,
    },
    /// The record decoded to garbage.
    Corrupt(String),
    /// The standby's own device died during replay.
    Dead(DeviceError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::WalGap { batch_id } => write!(f, "WAL gap at batch {batch_id}"),
            ReplicaError::Corrupt(msg) => write!(f, "corrupt WAL record: {msg}"),
            ReplicaError::Dead(e) => write!(f, "standby device died during replay: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Policy knobs for a [`ReplicaSet`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Warm standby rows to maintain.
    pub standbys: usize,
    /// Consecutive heartbeat misses before a primary is fenced (consumed
    /// by the callers' [`crate::HealthMonitor`]s, carried here so one
    /// config travels the stack).
    pub heartbeat_miss_threshold: u32,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig { standbys: 1, heartbeat_miss_threshold: 3 }
    }
}

/// One warm standby: a full engine row plus its replay cursor.
struct StandbyRow {
    /// Stable identity for per-standby telemetry, independent of pool
    /// position (rows are removed on promotion/death).
    id: usize,
    /// One engine per shard.
    engines: Vec<LtpgEngine>,
    /// Batches fully applied; the next batch to replay is `applied`.
    applied: u64,
    /// Injected lag: stay this many batches behind the tail during
    /// steady-state observation (promotion catch-up ignores the hold).
    lag_hold: u64,
    /// False once replay failed; dead rows are never promoted.
    alive: bool,
}

/// A pool of warm standby rows for one server.
pub struct ReplicaSet {
    rows: Vec<StandbyRow>,
    next_row_id: usize,
    shards: usize,
    engine_cfg: LtpgConfig,
    /// The serving registry: `REPLICA_*` metrics and, after promotion, the
    /// promoted engine's own metrics land here.
    registry: Arc<Registry>,
    /// Detached registry absorbing standby engines' device/phase metrics
    /// so warm replay never pollutes the primary's dashboards.
    standby_registry: Arc<Registry>,
    promotions: Arc<Counter>,
    demotions: Arc<Counter>,
    repromotions: Arc<Counter>,
    catchup_batches: Arc<Counter>,
    failover_ns: Arc<Histogram>,
    lag_batches: Arc<Histogram>,
    standbys_gauge: Arc<Gauge>,
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("rows_alive", &self.rows_alive())
            .field("shards", &self.shards)
            .finish()
    }
}

impl ReplicaSet {
    /// Build a pool of `cfg.standbys` rows from per-shard checkpoint
    /// `images` taken at batch `base_batch` (every shard checkpoints at
    /// the same aligned batch id). `registry` is the *serving* registry:
    /// `REPLICA_*` metrics publish there, and a promoted engine is
    /// rebound to it on the way out.
    pub fn new(
        images: Vec<Database>,
        base_batch: u64,
        engine_cfg: LtpgConfig,
        cfg: &ReplicaConfig,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(!images.is_empty(), "a replica set needs at least one shard image");
        let mut set = ReplicaSet {
            rows: Vec::new(),
            next_row_id: 0,
            shards: images.len(),
            engine_cfg,
            standby_registry: Registry::new_shared(),
            promotions: registry.counter(names::REPLICA_PROMOTIONS),
            demotions: registry.counter(names::REPLICA_DEMOTIONS),
            repromotions: registry.counter(names::REPLICA_REPROMOTIONS),
            catchup_batches: registry.counter(names::REPLICA_CATCHUP_BATCHES),
            failover_ns: registry.histogram(names::REPLICA_FAILOVER_NS),
            lag_batches: registry.histogram(names::REPLICA_LAG_BATCHES),
            standbys_gauge: registry.gauge(names::REPLICA_STANDBYS),
            registry,
        };
        for _ in 0..cfg.standbys {
            set.spawn_row(images.iter().map(Database::deep_clone).collect(), base_batch);
        }
        set
    }

    /// Add one standby row built from per-shard `images` checkpointed at
    /// `base_batch`. Used at construction and to replace promoted rows.
    pub fn spawn_row(&mut self, images: Vec<Database>, base_batch: u64) {
        assert_eq!(images.len(), self.shards, "row shape must match the topology");
        let engines = images
            .into_iter()
            .map(|db| {
                let registry = Arc::clone(&self.standby_registry);
                LtpgEngine::with_telemetry(db, self.engine_cfg.clone(), registry)
            })
            .collect();
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.rows.push(StandbyRow { id, engines, applied: base_batch, lag_hold: 0, alive: true });
        self.publish_pool_gauges();
    }

    /// Add a standby row whose shard-0 engine adopts a recovered physical
    /// `device` (already revived and reset). This is the re-enlistment
    /// path: a device that came back from a timed outage rejoins the pool
    /// instead of the serving plane.
    pub fn spawn_row_with_device(
        &mut self,
        images: Vec<Database>,
        base_batch: u64,
        device: Arc<Device>,
    ) {
        assert_eq!(images.len(), self.shards, "row shape must match the topology");
        let mut images = images.into_iter();
        let first = images.next().expect("at least one shard");
        let mut engines = vec![LtpgEngine::with_device(
            first,
            self.engine_cfg.clone(),
            Arc::clone(&self.standby_registry),
            device,
        )];
        for db in images {
            engines.push(LtpgEngine::with_telemetry(
                db,
                self.engine_cfg.clone(),
                Arc::clone(&self.standby_registry),
            ));
        }
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.rows.push(StandbyRow { id, engines, applied: base_batch, lag_hold: 0, alive: true });
        self.repromotions.inc();
        self.publish_pool_gauges();
    }

    /// Standby rows currently alive (promotable).
    pub fn rows_alive(&self) -> usize {
        self.rows.iter().filter(|r| r.alive).count()
    }

    /// Shards per row.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The serving registry `REPLICA_*` metrics publish to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Hold standby row at pool index `row` exactly `batches` behind the
    /// logged tail (chaos injection; promotion ignores the hold and fully
    /// catches up). Out-of-range indices are ignored.
    pub fn inject_lag(&mut self, row: usize, batches: u64) {
        if let Some(r) = self.rows.get_mut(row) {
            r.lag_hold = batches;
        }
    }

    /// Serve a snapshot read from the freshest alive standby row: the row
    /// values of `(table, key)` in shard `shard`'s slice, together with
    /// the batch id of the cut (batches `< cut` are applied). Standbys
    /// trail the tail by a few batches, so the cut is slightly stale but
    /// **consistent** — a row never holds a partially applied batch — and
    /// the read costs the serving engines nothing. `None` when the pool
    /// is empty or the key is not present at the cut.
    pub fn snapshot_read(
        &self,
        shard: usize,
        table: ltpg_storage::TableId,
        key: i64,
    ) -> Option<(Vec<i64>, u64)> {
        let row = self.rows.iter().filter(|r| r.alive).max_by_key(|r| r.applied)?;
        let engine = row.engines.get(shard)?;
        let db = ltpg_txn::BatchEngine::database(engine);
        let t = db.table(table);
        let rid = t.lookup(key)?;
        Some((t.row_values(rid), row.applied))
    }

    /// Lag (batches behind `tail`) of every alive row, by stable row id.
    pub fn lags(&self, tail: u64) -> Vec<(usize, u64)> {
        self.rows
            .iter()
            .filter(|r| r.alive)
            .map(|r| (r.id, tail.saturating_sub(r.applied)))
            .collect()
    }

    /// Steady-state replication: advance every alive row toward `tail`
    /// (the durability log's batch count), respecting injected lag holds.
    /// A row whose replay fails is demoted to dead — it will never be
    /// promoted — and the pool keeps going. Lag gauges and histograms are
    /// refreshed for every alive row.
    pub fn observe(&mut self, tail: u64, driver: &mut ReplayDriver<'_>) {
        for row in &mut self.rows {
            if !row.alive {
                continue;
            }
            let target = tail.saturating_sub(row.lag_hold).max(row.applied);
            while row.applied < target {
                match driver(&mut row.engines, row.applied) {
                    Ok(_) => {
                        row.applied += 1;
                        self.catchup_batches.inc();
                    }
                    Err(_) => {
                        row.alive = false;
                        self.demotions.inc();
                        break;
                    }
                }
            }
            let lag = tail.saturating_sub(row.applied);
            self.lag_batches.record_ns(lag as f64);
            self.registry.gauge(&names::replica_standby_lag_gauge(row.id)).set(lag as i64);
        }
        self.publish_pool_gauges();
    }

    /// Promote the freshest alive row: catch it up through batches
    /// `< upto` (ignoring any injected lag hold), remove it from the pool,
    /// and return its engines rebound to the serving registry, along with
    /// the merged conflict words of the *last* replayed batch (`upto - 1`;
    /// empty when the row had already applied it) and the simulated ns the
    /// catch-up cost. Rows that die mid-catch-up are demoted and the
    /// next-freshest row is tried. `None` when the pool is exhausted.
    pub fn promote_row(
        &mut self,
        upto: u64,
        driver: &mut ReplayDriver<'_>,
    ) -> Option<(Vec<LtpgEngine>, MergedWords, f64)> {
        loop {
            // Freshest first: least catch-up work, lowest failover latency.
            let candidate = self
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.alive)
                .max_by_key(|(_, r)| r.applied)
                .map(|(i, _)| i)?;
            let mut row = self.rows.remove(candidate);
            let before_ns: f64 = row.engines.iter().map(|e| e.device().elapsed_ns()).sum();
            let mut last_words = MergedWords::new();
            let mut died = false;
            while row.applied < upto {
                match driver(&mut row.engines, row.applied) {
                    Ok(words) => {
                        row.applied += 1;
                        self.catchup_batches.inc();
                        last_words = words;
                    }
                    Err(_) => {
                        died = true;
                        break;
                    }
                }
            }
            if died {
                self.demotions.inc();
                self.publish_pool_gauges();
                continue;
            }
            let after_ns: f64 = row.engines.iter().map(|e| e.device().elapsed_ns()).sum();
            self.failover_ns.record_ns(after_ns - before_ns);
            self.promotions.inc();
            self.registry.gauge(&names::replica_standby_lag_gauge(row.id)).set(0);
            let mut engines = row.engines;
            for e in &mut engines {
                e.rebind_telemetry(Arc::clone(&self.registry));
            }
            self.publish_pool_gauges();
            return Some((engines, last_words, after_ns - before_ns));
        }
    }

    fn publish_pool_gauges(&self) {
        self.standbys_gauge.set(self.rows_alive() as i64);
    }
}
