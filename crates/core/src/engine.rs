//! The LTPG engine: three-phase deterministic optimistic concurrency
//! control on the simulated device (paper §IV, Algorithm 1).
//!
//! Each batch runs as three kernels separated by device barriers:
//!
//! * **execute** — one lane per transaction (warps typed by procedure when
//!   adaptive warp division is on). The lane runs the transaction
//!   speculatively against the device-resident snapshot, stores its local
//!   read/write sets, and registers its TID in the conflict log.
//!   Commutative hot-column adds are staged for delayed update instead of
//!   being registered.
//! * **conflict_d** — one lane per recorded access (read-check and
//!   write-check lanes in separate warp groups, per Algorithm 1's
//!   rcheck/wcheck split). Write accesses flag WAW (an earlier writer
//!   exists) and WAR (an earlier reader exists); read accesses flag RAW.
//! * **writeback** — one lane per transaction. The deterministic commit
//!   rule is `¬WAW ∧ ¬RAW` (plain) or `¬WAW ∧ (¬RAW ∨ ¬WAR)` with logical
//!   reordering. Committed lanes apply their buffered mutations to the
//!   snapshot; a final merge kernel folds the committed delayed adds.
//!
//! All conflict decisions derive from `atomicMin`-maintained minimum TIDs,
//! so the committed set is a pure function of (snapshot, batch, TIDs) —
//! deterministic regardless of device scheduling.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ltpg_gpu_sim::{Device, DeviceError, SimAtomicU32};
use ltpg_storage::{membership_partition, ColId, Database, TableError, TableId, MEMBERSHIP_PARTITION_SHIFT};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::exec::{execute_speculative, execute_speculative_on, CellStore, Mutation, TxnEffects};
use ltpg_txn::group::{arrival_order, order_by_proc};
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::{LtpgConfig, SyncMode};
use crate::conflict::ConflictLog;
use crate::stats::{LtpgBatchStats, ReportWithStats};
use crate::util::SlotVec;

/// Encode a `(row key, column)` pair into a single conflict-log key.
/// Column code 0 is the row-existence pseudo-cell (insert/delete/missing-
/// key probes); column `c` maps to `c + 1`. LTPG's conflict flags are
/// **cell-granular**: reads of one attribute never conflict with writes of
/// another — the behaviour the paper's Table VI baseline exhibits (its
/// unoptimized NewOrder rate is unaffected by Payment's `W_YTD` writes on
/// the same warehouse rows).
#[inline]
pub fn cell_key(key: i64, col: Option<ltpg_storage::ColId>) -> i64 {
    key.wrapping_mul(64).wrapping_add(col.map_or(0, |c| i64::from(c.0) + 1))
}

/// Conflict-flag bits per transaction. Public so cooperating executors
/// (the CPU twin, cross-shard flag merging) can combine per-shard
/// verdicts: the flag word of a transaction is the bitwise OR of the words
/// derived by every shard that owns one of its cells, and the commit rule
/// ([`commit_decision`]) is a pure function of that word.
pub mod flag {
    /// Write-after-write: an earlier (smaller-TID) writer of the cell exists.
    pub const WAW: u32 = 1 << 0;
    /// Read-after-write: an earlier writer of a cell this txn read exists.
    pub const RAW: u32 = 1 << 1;
    /// Write-after-read: an earlier reader of a cell this txn wrote exists.
    pub const WAR: u32 = 1 << 2;
    /// User/logic abort during speculation (e.g. duplicate insert).
    pub const USER: u32 = 1 << 3;
    /// Forced abort: the transaction read or overwrote a column that the
    /// configuration maintains commutatively (sound fallback).
    pub const FORCED: u32 = 1 << 4;
    /// Forced abort: the conflict log ran out of buckets for one of the
    /// transaction's accesses (log exhaustion — tracked separately from
    /// the delayed-read fallback so dashboards can tell "log undersized"
    /// from "workload touched a commutative column").
    pub const LOG_FULL: u32 = 1 << 5;
}

/// The deterministic commit rule applied to a transaction's final flag
/// word: `¬WAW ∧ ¬RAW` plain, or `¬WAW ∧ (¬RAW ∨ ¬WAR)` under logical
/// reordering — identical on every executor, which is what lets shards
/// reach bit-identical decisions from OR-merged flag words without a
/// voting round.
#[inline]
pub fn commit_decision(logical_reordering: bool, f: u32) -> bool {
    if f & (flag::USER | flag::FORCED | flag::LOG_FULL | flag::WAW) != 0 {
        return false;
    }
    if logical_reordering {
        // Aria's reordering rule: ¬RAW ∨ ¬WAR.
        f & flag::RAW == 0 || f & flag::WAR == 0
    } else {
        f & flag::RAW == 0
    }
}

/// Deliberate-bug injection for the differential QA harness (`ltpg-qa`).
///
/// Only compiled under the `qa-inject` cargo feature — the cross-crate
/// analogue of a `#[cfg(test)]` hook — and default-off at runtime even
/// then, so feature unification during workspace test builds changes
/// nothing. The harness's self-test arms the hook, fuzzes until the
/// resulting divergence is caught, and asserts the shrinker reduces the
/// failing case to a handful of transactions.
#[cfg(feature = "qa-inject")]
pub mod qa_inject {
    use std::sync::atomic::{AtomicBool, Ordering};

    static WAW_BLIND_SPOT: AtomicBool = AtomicBool::new(false);

    /// Arm/disarm the injected bug: transactions whose TID is a multiple
    /// of 3 become invisible to WAW detection at commit time, so a WAW
    /// loser with such a TID commits alongside the winner — exactly the
    /// class of merge-path determinism bug the harness exists to catch.
    pub fn set_waw_blind_spot(on: bool) {
        WAW_BLIND_SPOT.store(on, Ordering::SeqCst);
    }

    /// Whether the blind spot is armed.
    pub fn waw_blind_spot() -> bool {
        WAW_BLIND_SPOT.load(Ordering::SeqCst)
    }
}

/// Result of [`stage_effects`]: speculation output split into plain
/// buffered mutations, staged commutative deltas, and the forced-abort
/// verdict. Shared by the execute kernel and [`crate::CpuTwin`] so both
/// derive identical staging decisions.
pub struct Staged {
    /// Non-commutative buffered mutations, in program order.
    pub normal: Vec<Mutation>,
    /// Staged commutative deltas: `(table, col, key, delta)`.
    pub delayed: Vec<(TableId, ColId, i64, i64)>,
    /// Whether the transaction must be force-aborted (it read or plainly
    /// overwrote a commutatively-maintained column, or deleted from a
    /// table containing one).
    pub forced: bool,
}

/// Classify one transaction's speculation effects exactly as the execute
/// kernel does: commutative adds are staged for the delayed merge, plain
/// overwrites of commutative columns (and deletes against their tables,
/// and reads of them) force-abort, everything else buffers for write-back.
pub fn stage_effects(
    cfg: &LtpgConfig,
    commutative_tables: &HashSet<TableId>,
    fx: &TxnEffects,
) -> Staged {
    let mut forced = false;
    let mut normal = Vec::with_capacity(fx.mutations.len());
    let mut delayed = Vec::new();
    for m in &fx.mutations {
        match m {
            Mutation::Add { table, key, col, delta } if cfg.is_commutative(*table, *col) => {
                delayed.push((*table, *col, *key, *delta));
            }
            Mutation::Update { table, col, .. } if cfg.is_commutative(*table, *col) => {
                // A plain overwrite of a commutative column cannot be
                // merged — abort for soundness.
                forced = true;
            }
            Mutation::Delete { table, .. } if commutative_tables.contains(table) => {
                forced = true;
            }
            other => normal.push(other.clone()),
        }
    }
    // Reading a commutatively-maintained column would observe a value that
    // delayed merging later changes; force-abort the reader (sound
    // fallback).
    for r in &fx.reads {
        if let Some(c) = r.col {
            if cfg.is_commutative(r.table, c) {
                forced = true;
            }
        }
    }
    Staged { normal, delayed, forced }
}

/// Where a [`CellAccess`] lands in its table's conflict log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogCell {
    /// One cell of a table row.
    Row {
        /// Column; `None` is the row-existence pseudo-cell.
        col: Option<ColId>,
        /// Encoded conflict-log cell key ([`cell_key`]).
        key: i64,
    },
    /// The membership (phantom-guard) marker of one key partition.
    Membership {
        /// Key partition.
        partition: i64,
    },
}

/// How a [`CellAccess`] touches its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Registers as a reader; detection checks RAW.
    Read,
    /// Registers as a writer; detection checks WAR, and WAW on row cells
    /// (membership-marker writes commute with each other).
    Write,
    /// Non-commutative read-modify-write: registers as both reader and
    /// writer; detection is the write check alone.
    Rmw,
}

/// One conflict-log access of a transaction: the unit registration and
/// conflict detection both operate over. [`for_each_cell_access`] visits
/// them in the one canonical order that the engine's execute lane and
/// [`crate::CpuTwin`] share, so every executor probes exactly the same
/// cells.
#[derive(Debug, Clone, Copy)]
pub struct CellAccess {
    /// Table accessed.
    pub table: TableId,
    /// Row key (pre-encoding) of a row cell, the partition of a membership
    /// marker: the key ownership is decided on.
    pub row: i64,
    /// Cell within the table's conflict log.
    pub cell: LogCell,
    /// Read, write or read-modify-write.
    pub kind: AccessKind,
}

impl CellAccess {
    /// Whether detection treats this access as a write (WAR/WAW checks).
    pub fn is_write(&self) -> bool {
        self.kind != AccessKind::Read
    }

    /// Whether `scope` owns this access (every access is owned unscoped).
    pub fn owned_by(&self, scope: Option<&ExecScope<'_>>) -> bool {
        scope.is_none_or(|s| match self.cell {
            LogCell::Row { .. } => (s.owns_row)(self.table, self.row),
            LogCell::Membership { .. } => (s.owns_membership)(self.table, self.row),
        })
    }

    /// The detection rule for this access by transaction `tid`: a write
    /// raises WAW over an earlier writer (row cells only) and WAR over an
    /// earlier reader; a read raises RAW over an earlier writer. `min`
    /// probes the cell's minimum writer (`true`) or reader (`false`) TID,
    /// called in the order the device kernel charges the probes.
    pub fn conflict_flags(&self, tid: u64, mut min: impl FnMut(bool) -> Option<u64>) -> u32 {
        let mut earlier = |writer: bool| min(writer).is_some_and(|m| m < tid);
        if !self.is_write() {
            return if earlier(true) { flag::RAW } else { 0 };
        }
        let mut f = 0;
        if matches!(self.cell, LogCell::Row { .. }) && earlier(true) {
            f |= flag::WAW;
        }
        if earlier(false) {
            f |= flag::WAR;
        }
        f
    }
}

/// Visit the conflict-log accesses of one transaction, given its recorded
/// reads and staged non-commutative mutations: reads first (in recording
/// order), then per-mutation write cells (existence, membership, then all
/// columns for deletes). `db` supplies table widths for deletes. This walk
/// is the only enumeration of a transaction's cell set.
pub fn for_each_cell_access(
    db: &Database,
    fx: &TxnEffects,
    normal: &[Mutation],
    mut visit: impl FnMut(CellAccess),
) {
    let row = |table: TableId, row: i64, col: Option<ColId>, kind: AccessKind| CellAccess {
        table,
        row,
        cell: LogCell::Row { col, key: cell_key(row, col) },
        kind,
    };
    let membership = |table: TableId, partition: i64, kind: AccessKind| CellAccess {
        table,
        row: partition,
        cell: LogCell::Membership { partition },
        kind,
    };
    for r in &fx.reads {
        match membership_partition(r.key) {
            Some(p) => visit(membership(r.table, p, AccessKind::Read)),
            None => visit(row(r.table, r.key, r.col, AccessKind::Read)),
        }
    }
    for m in normal {
        match *m {
            Mutation::Update { table, key, col, .. } => {
                visit(row(table, key, Some(col), AccessKind::Write));
            }
            Mutation::Add { table, key, col, .. } => {
                visit(row(table, key, Some(col), AccessKind::Rmw));
            }
            Mutation::Insert { table, key, .. } | Mutation::Delete { table, key } => {
                visit(row(table, key, None, AccessKind::Write));
                let p = key >> MEMBERSHIP_PARTITION_SHIFT;
                visit(membership(table, p, AccessKind::Write));
                if matches!(m, Mutation::Delete { .. }) {
                    // A delete writes every column cell too: readers of
                    // any cell must order before it.
                    for c in 0..db.table(table).width() as u16 {
                        visit(row(table, key, Some(ColId(c)), AccessKind::Write));
                    }
                }
            }
        }
    }
}

/// Restricts an engine to the slice of a partitioned database it owns.
///
/// With a scope, the engine still *executes* every transaction of its
/// (sub-)batch in full — resolving reads of rows held elsewhere through
/// `remote` — but registers, detects and writes back **only the cells its
/// shard owns**. Because shards partition the cell space disjointly, the
/// bitwise OR of all participants' flag words for a transaction equals the
/// word a single engine over the whole database would derive, and
/// [`commit_decision`] over the merged word reproduces the single-device
/// commit decision bit-for-bit.
pub struct ExecScope<'a> {
    /// Read view resolving rows this shard does not hold (`None` when the
    /// local database is complete, e.g. a 1-shard scope).
    pub remote: Option<&'a (dyn CellStore + Sync)>,
    /// Whether this shard owns row `(table, key)` — its existence and
    /// column cells register here.
    pub owns_row: &'a (dyn Fn(TableId, i64) -> bool + Sync),
    /// Whether this shard owns the membership marker of
    /// `(table, partition)` — phantom-guard reads and writes of that
    /// partition register here.
    pub owns_membership: &'a (dyn Fn(TableId, i64) -> bool + Sync),
}

/// Chain of the shard-local slice and the remote view: reads try the local
/// slice first (shards partition keys, so a local hit is authoritative)
/// and fall through to the remote view; ordered scans merge both sides.
/// Shared with [`crate::CpuTwin`] so a degraded shard executes cross-shard
/// transactions exactly like its GPU peers.
pub(crate) struct ScopedStore<'a> {
    pub(crate) local: &'a Database,
    pub(crate) remote: &'a (dyn CellStore + Sync),
}

impl CellStore for ScopedStore<'_> {
    fn cell(&self, table: TableId, key: i64, col: ColId) -> Option<i64> {
        self.local.cell(table, key, col).or_else(|| self.remote.cell(table, key, col))
    }

    fn row_exists(&self, table: TableId, key: i64) -> bool {
        self.local.row_exists(table, key) || self.remote.row_exists(table, key)
    }

    fn row_width(&self, table: TableId) -> usize {
        self.local.row_width(table)
    }

    fn range_keys(&self, table: TableId, lo: i64, hi: i64) -> Option<Vec<i64>> {
        match (self.local.range_keys(table, lo, hi), self.remote.range_keys(table, lo, hi)) {
            (None, None) => None,
            (a, b) => {
                let mut keys: Vec<i64> =
                    a.into_iter().flatten().chain(b.into_iter().flatten()).collect();
                keys.sort_unstable();
                keys.dedup();
                Some(keys)
            }
        }
    }
}

/// Outcome of one transaction's execute phase.
struct ExecOutcome {
    /// Non-commutative buffered mutations, in program order.
    normal: Vec<Mutation>,
    /// Staged commutative deltas: `(table, col, key, delta)`.
    delayed: Vec<(TableId, ColId, i64, i64)>,
    /// Recorded reads (for conflict detection and R/W-set shipping).
    effects: TxnEffects,
}

/// One conflict-detection work item: an owned, registered access of
/// transaction `txn` (batch position).
struct DetectItem {
    txn: u32,
    access: CellAccess,
}

/// Per-batch state carried from [`LtpgEngine::try_prepare_batch`] to
/// [`LtpgEngine::try_finish_batch`]: buffered execution outcomes, the
/// per-transaction conflict-flag words, and the phase-stats accumulated so
/// far. A sharded caller reads and rewrites the flag words (indexed by
/// position in the batch, i.e. TID order) to merge verdicts across
/// participant shards before finishing.
pub struct PreparedBatch {
    lane_order: Vec<usize>,
    outcomes: SlotVec<ExecOutcome>,
    flags: Vec<SimAtomicU32>,
    /// Dense TID array (structure-of-arrays layout): `tids[i]` mirrors
    /// `batch.txns[i].tid.0` so the detect kernel reads TIDs coalesced
    /// instead of gathering through the transaction records.
    tids: Vec<u64>,
    detect_items: u64,
    stats: LtpgBatchStats,
    wall_start: Instant,
}

impl PreparedBatch {
    /// Number of transactions in the prepared batch.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the prepared batch is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Conflict-flag word of transaction `i` (batch order), as derived by
    /// this engine over the cells it owns. See [`flag`] for the bit set.
    pub fn flag_word(&self, i: usize) -> u32 {
        self.flags[i].load()
    }

    /// Overwrite the flag word of transaction `i` with a merged verdict
    /// (the OR over every participant shard's [`Self::flag_word`]).
    pub fn set_flag_word(&self, i: usize, word: u32) {
        self.flags[i].store(word);
    }

    /// Simulated nanoseconds accumulated so far (at prepare time this is
    /// exactly the prepare-phase cost: upload, execute, detect and the
    /// interleaved syncs — writeback/D2H have not run yet). Sharded servers
    /// use this to charge merge-barrier stall time.
    pub fn sim_ns(&self) -> f64 {
        self.stats.total_ns()
    }
}

/// Reusable per-batch buffers held by the engine across batches (the
/// arena). Host-side, finish hands the buffers back and prepare resets
/// them in place, so steady-state batches add zero net heap growth. On the
/// simulated clock only a high-watermark growth charges
/// [`ltpg_gpu_sim::CostModel::device_alloc_ns`] per device buffer, so
/// steady-state batches charge no allocation time.
#[derive(Default)]
struct EngineScratch {
    flags: Vec<SimAtomicU32>,
    outcomes: SlotVec<ExecOutcome>,
    items: Vec<DetectItem>,
    tids: Vec<u64>,
    committed_flags: Vec<bool>,
    op_items: Vec<(usize, bool)>,
    /// High-watermark (in transactions) of the batch-sized device buffers.
    wm_txns: usize,
    /// High-watermark (in items) of the detect work-item buffer.
    wm_items: usize,
    /// High-watermark (in ops) of the delayed-merge scratch.
    wm_merge: usize,
}

/// The LTPG engine. Owns its database (the device-resident snapshot) and
/// a simulated device.
pub struct LtpgEngine {
    db: Database,
    cfg: LtpgConfig,
    device: Arc<Device>,
    log: ConflictLog,
    /// Tables containing at least one commutatively-maintained column —
    /// deletes against them are force-aborted for soundness.
    commutative_tables: HashSet<TableId>,
    /// Metrics registry every batch publishes to (phase histograms, abort
    /// taxonomy, transfer counters, trace spans).
    telemetry: Arc<Registry>,
    /// Monotonic simulated clock across batches, used to timestamp phase
    /// trace spans.
    sim_clock_ns: f64,
    /// Recycled per-batch buffers (see [`EngineScratch`]).
    scratch: EngineScratch,
}

impl LtpgEngine {
    /// Create an engine over `db` with `cfg`, publishing metrics to the
    /// process-wide registry ([`ltpg_telemetry::global`]).
    pub fn new(db: Database, cfg: LtpgConfig) -> Self {
        Self::with_telemetry(db, cfg, Arc::clone(ltpg_telemetry::global()))
    }

    /// Create an engine over `db` with `cfg`, publishing metrics to a
    /// caller-owned registry (used by [`crate::LtpgServer`] so concurrent
    /// servers in one process do not cross-contaminate).
    pub fn with_telemetry(db: Database, cfg: LtpgConfig, telemetry: Arc<Registry>) -> Self {
        let device = Arc::new(Device::new(cfg.device.clone()));
        device.set_telemetry(&telemetry);
        let log = ConflictLog::new(&db, &cfg);
        device.register_allocation(db.bytes() + log.bytes());
        let commutative_tables = cfg
            .commutative_cols
            .iter()
            .chain(cfg.delayed_cols.iter())
            .map(|&(t, _)| t)
            .collect();
        // Pre-touch the abort-taxonomy and retry counters so exports show
        // them at zero even before any abort or fault occurs.
        for name in names::ABORT_REASONS {
            telemetry.counter(name);
        }
        telemetry.counter(names::FAULT_TRANSIENT_RETRIES);
        LtpgEngine {
            db,
            cfg,
            device,
            log,
            commutative_tables,
            telemetry,
            sim_clock_ns: 0.0,
            scratch: EngineScratch::default(),
        }
    }

    /// Create an engine over `db` that adopts an *existing* device instead
    /// of allocating a fresh one. This is the re-promotion path: a device
    /// that recovered from a timed outage is handed back (after
    /// [`Device::revive`] + [`Device::reset_for_reuse`]) and becomes the
    /// substrate for a new engine over the fallback's live database. The
    /// previous owner's allocation footprint is released and replaced by
    /// this engine's working set, as a real re-initialization would remap
    /// device memory from scratch.
    pub fn with_device(
        db: Database,
        cfg: LtpgConfig,
        telemetry: Arc<Registry>,
        device: Arc<Device>,
    ) -> Self {
        device.release_allocation(device.allocated_bytes());
        device.set_telemetry(&telemetry);
        let log = ConflictLog::new(&db, &cfg);
        device.register_allocation(db.bytes() + log.bytes());
        let commutative_tables = cfg
            .commutative_cols
            .iter()
            .chain(cfg.delayed_cols.iter())
            .map(|&(t, _)| t)
            .collect();
        for name in names::ABORT_REASONS {
            telemetry.counter(name);
        }
        telemetry.counter(names::FAULT_TRANSIENT_RETRIES);
        LtpgEngine {
            db,
            cfg,
            device,
            log,
            commutative_tables,
            telemetry,
            sim_clock_ns: 0.0,
            scratch: EngineScratch::default(),
        }
    }

    /// The registry this engine publishes to.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Re-point this engine's (and its device's) metrics at `reg`.
    /// Promotion uses this: a standby replays into a detached registry so
    /// warm-up noise stays off the serving dashboards, then rebinds to the
    /// server's registry the moment it becomes the primary.
    pub fn rebind_telemetry(&mut self, reg: Arc<Registry>) {
        self.device.set_telemetry(&reg);
        for name in names::ABORT_REASONS {
            reg.counter(name);
        }
        reg.counter(names::FAULT_TRANSIENT_RETRIES);
        self.telemetry = reg;
    }

    /// The simulated device (for stats and calibration experiments).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// A shared handle to the simulated device, outliving the engine. The
    /// failover layer stashes this when a device is lost so a later timed
    /// recovery can revive and re-enlist the same physical device.
    pub fn device_handle(&self) -> Arc<Device> {
        Arc::clone(&self.device)
    }

    /// The engine configuration.
    pub fn config(&self) -> &LtpgConfig {
        &self.cfg
    }

    /// The conflict log (memory occupancy reporting, Table VIII).
    pub fn conflict_log(&self) -> &ConflictLog {
        &self.log
    }

    /// Consume the engine, returning the final database.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Execute one batch and return the report with the full phase
    /// breakdown.
    ///
    /// Infallible variant for callers that never arm a device fault plan.
    pub fn execute_batch_report(&mut self, batch: &Batch) -> ReportWithStats {
        // Invariant: with no fault plan armed (the default), the device's
        // fallible APIs cannot fail, so this cannot panic. Callers that
        // arm faults must use `try_execute_batch_report`.
        self.try_execute_batch_report(batch)
            .expect("device fault with no fault-aware caller: use try_execute_batch_report")
    }

    /// Execute one batch, surfacing injected device faults.
    ///
    /// Failure atomicity is *not* promised: a [`DeviceError::DeviceLost`]
    /// can land mid-batch (between phase kernels or at the result
    /// download), leaving the live database partially written. That is
    /// exactly the crash model the durability layer handles — the batch
    /// was logged before execution, so replaying checkpoint + log on a
    /// healthy executor reconstructs the correct state
    /// (see `crate::recovery::DurabilityManager`). A
    /// [`DeviceError::TransientTransfer`] before the execute phase leaves
    /// the database untouched and the whole call may simply be retried.
    pub fn try_execute_batch_report(
        &mut self,
        batch: &Batch,
    ) -> Result<ReportWithStats, DeviceError> {
        let prepared = self.try_prepare_batch(batch, None)?;
        self.try_finish_batch(batch, prepared, None)
    }

    /// First half of a batch: upload, speculative execution, conflict-log
    /// registration and conflict detection. **No database mutation happens
    /// here** — write-back lives in [`try_finish_batch`] — so a sharded
    /// caller can prepare every participant shard against the pre-batch
    /// snapshot, OR-merge the per-shard flag words of cross-shard
    /// transactions ([`PreparedBatch::flag_word`] /
    /// [`PreparedBatch::set_flag_word`]), and only then finish each shard.
    ///
    /// `scope: None` runs the engine over its whole database (the
    /// single-device path, bit-identical to the pre-split behaviour).
    pub fn try_prepare_batch(
        &mut self,
        batch: &Batch,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<PreparedBatch, DeviceError> {
        let wall_start = Instant::now();
        let mut stats = LtpgBatchStats::default();
        let n = batch.len();
        let scoped_store = scope
            .and_then(|s| s.remote)
            .map(|remote| ScopedStore { local: &self.db, remote });
        self.log.begin_batch();

        // ---- Upload: transaction parameters to the device. ----
        stats.bytes_h2d = batch.payload_bytes();
        stats.h2d_ns = self.device.try_h2d(stats.bytes_h2d)?;

        // ---- Phase 1: execute. ----
        let lane_order = if self.cfg.opts.warp_division {
            order_by_proc(batch)
        } else {
            arrival_order(batch)
        };
        // Per-batch buffers come from the engine arena: reset in place,
        // handed back by `try_finish_batch`. Steady-state batches touch no
        // allocator (see `EngineScratch`).
        let mut outcomes = std::mem::take(&mut self.scratch.outcomes);
        outcomes.reset(n);
        let mut flags = std::mem::take(&mut self.scratch.flags);
        if flags.len() < n {
            flags.resize_with(n, || SimAtomicU32::new(0));
        } else {
            flags.truncate(n);
        }
        for f in &flags {
            f.store(0);
        }
        let mut tids = std::mem::take(&mut self.scratch.tids);
        tids.clear();
        tids.extend(batch.txns.iter().map(|t| t.tid.0));
        // Each execute lane emits its detect items as it registers them.
        let lane_items: SlotVec<Vec<DetectItem>> = SlotVec::new(n);

        let lane_proc_overhead = self.device.cost().proc_overhead_cycles;
        self.device.check_alive()?;
        let exec_report = self.device.launch("execute", &lane_order, |lane, &idx| {
            let txn = &batch.txns[idx];
            lane.branch(u32::from(txn.proc.0));
            lane.charge_alu(txn.ops.len() as u32);
            lane.charge_cycles(lane_proc_overhead);
            let speculated = match &scoped_store {
                Some(store) => execute_speculative_on(store, txn),
                None => execute_speculative(&self.db, txn),
            };
            match speculated {
                Err(_) => {
                    lane.atomic_or_u32(&flags[idx], flag::USER);
                    outcomes.set(idx, ExecOutcome {
                        normal: Vec::new(),
                        delayed: Vec::new(),
                        effects: TxnEffects { tid: txn.tid, ..TxnEffects::default() },
                    });
                }
                Ok(fx) => {
                    let Staged { normal, delayed, forced } =
                        stage_effects(&self.cfg, &self.commutative_tables, &fx);
                    for _ in &delayed {
                        // Staged for the delayed-update merge.
                        lane.write_global(1);
                    }
                    if forced {
                        lane.atomic_or_u32(&flags[idx], flag::FORCED);
                        outcomes.set(idx, ExecOutcome {
                            normal: Vec::new(),
                            delayed: Vec::new(),
                            effects: fx,
                        });
                        return;
                    }
                    // Charge the snapshot reads (readMem) and local-set
                    // writes (recordLS), then register TIDs in the conflict
                    // log (recordTID) and emit the detect work items in the
                    // same canonical walk — the dense item array is the
                    // local set laid out linearly, so emission rides the
                    // recordLS writes already charged. A `false`
                    // registration means the log ran out of buckets:
                    // force-abort this transaction and keep its items out
                    // of the detect kernel (the TIDs already registered
                    // only ever *add* conflicts, so partial registration
                    // is sound).
                    for _ in &fx.reads {
                        lane.read_global_random(2);
                        lane.write_global(1);
                    }
                    for _ in &normal {
                        lane.write_global(2);
                    }
                    let mut items = Vec::new();
                    let mut registered = true;
                    for_each_cell_access(&self.db, &fx, &normal, |access| {
                        if access.owned_by(scope) {
                            registered &= self.log.register(lane, &access, txn.tid.0);
                            items.push(DetectItem { txn: idx as u32, access });
                        }
                    });
                    if registered {
                        lane_items.set(idx, items);
                    } else {
                        lane.atomic_or_u32(&flags[idx], flag::LOG_FULL);
                    }
                    outcomes.set(idx, ExecOutcome { normal, delayed, effects: fx });
                }
            }
        });
        stats.execute_ns = exec_report.sim_ns;
        self.device.synchronize();
        stats.sync_ns += self.device.cost().device_sync_ns;

        // ---- Phase 2: conflict detection. ----
        let mut items = std::mem::take(&mut self.scratch.items);
        items.clear();
        // Flatten the lanes' items in batch order.
        for per in lane_items.into_inner().into_iter().flatten() {
            items.extend(per);
        }
        if self.cfg.opts.warp_division {
            // rcheck warps and wcheck warps (Algorithm 1 lines 13–16).
            items.sort_by_key(|i| i.access.is_write());
        }

        // ---- Simulated device-side buffer allocation. ----
        // The engine arena keeps its device buffers (lane order, flag
        // words, outcome slots, SoA TIDs, detect items) across batches:
        // only a high-watermark growth allocates — zero events in steady
        // state.
        let mut alloc_events = 0u64;
        if n > self.scratch.wm_txns {
            self.scratch.wm_txns = n;
            alloc_events += 4;
        }
        if items.len() > self.scratch.wm_items {
            self.scratch.wm_items = items.len();
            alloc_events += 1;
        }
        self.charge_alloc(&mut stats, alloc_events);
        self.device.check_alive()?;
        let detect_report = self.device.launch("conflict_d", &items, |lane, item| {
            let access = &item.access;
            lane.branch(u32::from(access.is_write()));
            // Work-item fetch from the dense array execute emitted, then
            // the TID from the SoA TID array: one coalesced word each.
            lane.read_global(1);
            lane.read_global(1);
            let tid = tids[item.txn as usize];
            let f = access.conflict_flags(tid, |writer| {
                if writer {
                    self.log.min_write(lane, access)
                } else {
                    self.log.min_read(lane, access)
                }
            });
            // One atomicOr per raised bit.
            for bit in [flag::WAW, flag::WAR, flag::RAW] {
                if f & bit != 0 {
                    lane.atomic_or_u32(&flags[item.txn as usize], bit);
                }
            }
        });
        stats.detect_ns = detect_report.sim_ns;
        self.device.synchronize();
        stats.sync_ns += self.device.cost().device_sync_ns;

        // Detect items are consumed; recycle the buffer now.
        stats.atomic_ops = exec_report.atomic_ops + detect_report.atomic_ops;
        stats.atomic_serial_depth =
            exec_report.atomic_serial_depth + detect_report.atomic_serial_depth;
        stats.divergent_warps = exec_report.divergent_warps + detect_report.divergent_warps;
        stats.page_faults = exec_report.page_faults + detect_report.page_faults;
        let detect_items = items.len() as u64;
        items.clear();
        self.scratch.items = items;

        Ok(PreparedBatch { lane_order, outcomes, flags, tids, detect_items, stats, wall_start })
    }

    /// Second half of a batch: write-back of committing transactions, the
    /// delayed-update merge, result download and report assembly. The
    /// commit decision is [`commit_decision`] over each transaction's flag
    /// word as it stands in `prepared` — which a sharded caller has
    /// OR-merged across participants between the two halves. With a scope,
    /// only mutations of owned rows are applied.
    pub fn try_finish_batch(
        &mut self,
        batch: &Batch,
        prepared: PreparedBatch,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<ReportWithStats, DeviceError> {
        #[cfg(feature = "qa-inject")]
        if qa_inject::waw_blind_spot() {
            for (i, txn) in batch.txns.iter().enumerate() {
                if txn.tid.0 % 3 == 0 {
                    prepared.set_flag_word(i, prepared.flag_word(i) & !flag::WAW);
                }
            }
        }
        let PreparedBatch {
            lane_order,
            mut outcomes,
            flags,
            mut tids,
            detect_items,
            mut stats,
            wall_start,
        } = prepared;
        let n = batch.len();
        let owns_row = |t: TableId, k: i64| scope.is_none_or(|s| (s.owns_row)(t, k));

        // ---- Phase 3: write-back. ----
        let reordering = self.cfg.opts.logical_reordering;
        let commit_ok = |f: u32| commit_decision(reordering, f);
        self.device.check_alive()?;
        let wb_report = self.device.launch("writeback", &lane_order, |lane, &idx| {
            let txn = &batch.txns[idx];
            lane.branch(u32::from(txn.proc.0));
            // Flag-word fetch: one coalesced word from the dense SoA flag
            // array.
            lane.read_global(1);
            let f = flags[idx].load();
            if !commit_ok(f) {
                return;
            }
            let Some(out) = outcomes.peek(idx) else { return };
            for m in &out.normal {
                let (mt, mk) = match m {
                    Mutation::Update { table, key, .. }
                    | Mutation::Add { table, key, .. }
                    | Mutation::Insert { table, key, .. }
                    | Mutation::Delete { table, key } => (*table, *key),
                };
                if !owns_row(mt, mk) {
                    continue;
                }
                match m {
                    Mutation::Update { table, key, col, value } => {
                        // Row ids were resolved during execute and carried
                        // in the local set; write-back only stores.
                        let t = self.db.table(*table);
                        lane.write_global_random(1);
                        if let Some(rid) = t.lookup(*key) {
                            t.set(rid, *col, *value);
                        }
                    }
                    Mutation::Add { table, key, col, delta } => {
                        let t = self.db.table(*table);
                        lane.write_global_random(1);
                        if let Some(rid) = t.lookup(*key) {
                            t.add(rid, *col, *delta);
                        }
                    }
                    Mutation::Insert { table, key, values } => {
                        lane.write_global_random(values.len() as u32 + 1);
                        match self.db.table(*table).insert(*key, values) {
                            Ok(_) => {}
                            // Invariant: two committed inserts of one key
                            // would be a WAW pair, and WAW always aborts
                            // the younger — a duplicate here means the
                            // conflict log itself is broken, not the input.
                            Err(TableError::Duplicate(_)) => unreachable!(
                                "committed duplicate insert: WAW detection failed for key {key}"
                            ),
                            // Invariant: capacity is provisioned at load
                            // time (TableBuilder::capacity) to cover the
                            // workload's maximum insert headroom; running
                            // out mid-writeback is a sizing bug, and there
                            // is no transactional way to un-commit here.
                            Err(TableError::Full) => panic!(
                                "table {} out of insert headroom",
                                self.db.table(*table).schema().name
                            ),
                        }
                    }
                    Mutation::Delete { table, key } => {
                        lane.write_global(1);
                        self.db.table(*table).delete(*key);
                    }
                }
            }
        });
        stats.writeback_ns = wb_report.sim_ns;

        // ---- Delayed-update merge (paper Example 3). ----
        let mut committed_flags = std::mem::take(&mut self.scratch.committed_flags);
        committed_flags.clear();
        committed_flags.extend((0..n).map(|i| commit_ok(flags[i].load())));
        let mut merge_map: std::collections::HashMap<(TableId, ColId, i64), (i64, u32)> =
            std::collections::HashMap::new();
        for (idx, committed) in committed_flags.iter().enumerate().take(n) {
            if !committed {
                continue;
            }
            let Some(out) = outcomes.peek(idx) else { continue };
            for &(t, c, k, d) in &out.delayed {
                if !owns_row(t, k) {
                    continue;
                }
                stats.delayed_ops_applied += 1;
                let e = merge_map.entry((t, c, k)).or_insert((0, 0));
                e.0 = e.0.wrapping_add(d);
                e.1 += 1;
            }
        }
        let mut merged: Vec<((TableId, ColId, i64), i64, u32)> =
            merge_map.into_iter().map(|(cell, (sum, cnt))| (cell, sum, cnt)).collect();
        merged.sort_unstable_by_key(|(cell, ..)| *cell);
        // One lane per delayed *op* (grouped by cell into warps, as the
        // paper's Example 3 assigns same-row ops to one warp); the cell's
        // last lane writes the merged result. `(cell idx, is_last)`.
        let mut op_items = std::mem::take(&mut self.scratch.op_items);
        op_items.clear();
        for (ci, (_, _, cnt)) in merged.iter().enumerate() {
            for j in 0..*cnt {
                op_items.push((ci, j + 1 == *cnt));
            }
        }
        // Simulated buffer allocation for the finish half: the merge
        // scratch, watermark-gated like the prepare-half buffers.
        if op_items.len() > self.scratch.wm_merge {
            self.scratch.wm_merge = op_items.len();
            self.charge_alloc(&mut stats, 1);
        }
        if !op_items.is_empty() {
            let merge_report = self.device.launch("delayed_merge", &op_items, |lane, &(ci, is_last)| {
                let ((t, c, k), sum, cnt) = &merged[ci];
                // Intra-warp broadcast/merge: log2 steps over the ops that
                // folded into this cell.
                lane.warp_shuffle(32 - (cnt.max(&1)).leading_zeros());
                lane.read_global(1);
                if is_last {
                    lane.read_global_random(1);
                    lane.write_global(1);
                    let table = self.db.table(*t);
                    if let Some(rid) = table.lookup(*k) {
                        table.add(rid, *c, *sum);
                    }
                }
            });
            stats.writeback_ns += merge_report.sim_ns;
        }
        self.device.synchronize();
        stats.sync_ns += self.device.cost().device_sync_ns;

        // ---- Download: results / read-write sets to the host. ----
        stats.bytes_d2h = match self.cfg.sync {
            SyncMode::RwSet => {
                n as u64
                    + (0..n)
                        .filter_map(|i| outcomes.peek(i))
                        .map(|o| o.effects.rw_set_bytes())
                        .sum::<u64>()
            }
            SyncMode::Interval { bytes_per_batch } => n as u64 + bytes_per_batch,
        };
        // By this point the batch has fully executed on the device; a
        // transient fault here only repeats the copy (re-running the batch
        // would double-apply its writes), so the retry happens in place.
        // Terminates because a plan's transient set is finite and loss
        // dominates. Device loss still propagates.
        stats.d2h_ns = loop {
            match self.device.try_d2h(stats.bytes_d2h) {
                Ok(ns) => break ns + stats.d2h_retries as f64 * self.device.cost().pcie_latency_ns,
                Err(e @ DeviceError::DeviceLost { .. }) => return Err(e),
                Err(DeviceError::TransientTransfer { .. }) => {
                    // Count on the registry immediately — a later device
                    // loss must not erase retries that already happened.
                    // Each wasted round trip already charged one PCIe
                    // latency on the device clock; the `break` arm folds
                    // the same amount into the phase's simulated time so
                    // histogram, critical path and device agree.
                    stats.d2h_retries += 1;
                    self.telemetry.counter(names::FAULT_TRANSIENT_RETRIES).inc();
                    self.telemetry
                        .counter(names::FAULT_RETRY_PENALTY_NS)
                        .add(self.device.cost().pcie_latency_ns.round() as u64);
                }
            }
        };

        // ---- Counters and report assembly. ----
        stats.divergent_warps += wb_report.divergent_warps;
        stats.page_faults += wb_report.page_faults;
        stats.delayed_read_aborts =
            (0..n).filter(|&i| flags[i].load() & flag::FORCED != 0).count() as u64;
        stats.log_exhausted_aborts =
            (0..n).filter(|&i| flags[i].load() & flag::LOG_FULL != 0).count() as u64;

        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        for (i, txn) in batch.txns.iter().enumerate() {
            if committed_flags[i] {
                committed.push(txn.tid);
            } else {
                aborted.push(txn.tid);
            }
        }
        self.publish_batch(&stats, &flags, &committed_flags, detect_items);
        let report = BatchReport {
            committed,
            aborted,
            sim_ns: stats.total_ns(),
            critical_path_ns: stats.critical_path_ns(),
            transfer_ns: stats.transfer_ns(),
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            semantics: ltpg_txn::engine::CommitSemantics::SnapshotBatch,
        };
        // Hand the batch buffers back to the arena. `reset(0)` drops the
        // held outcomes (their inner vectors are per-transaction and not
        // reusable) but keeps every outer allocation.
        outcomes.reset(0);
        self.scratch.outcomes = outcomes;
        self.scratch.flags = flags;
        tids.clear();
        self.scratch.tids = tids;
        self.scratch.committed_flags = committed_flags;
        op_items.clear();
        self.scratch.op_items = op_items;
        Ok(ReportWithStats { report, stats })
    }

    /// Charge `events` simulated device-buffer allocations to the batch.
    fn charge_alloc(&self, stats: &mut LtpgBatchStats, events: u64) {
        if events > 0 {
            let ns = events as f64 * self.device.cost().device_alloc_ns;
            stats.alloc_events += events;
            stats.alloc_ns += ns;
            self.device.advance(ns);
        }
    }

    /// Publish one batch's phase breakdown, abort taxonomy, conflict-log
    /// occupancy and phase trace spans to the engine's registry.
    fn publish_batch(
        &mut self,
        stats: &LtpgBatchStats,
        flags: &[SimAtomicU32],
        committed_flags: &[bool],
        detect_items: u64,
    ) {
        let reg = &self.telemetry;
        stats.publish(reg);

        // Abort taxonomy. Delayed-read and log-exhaustion forced aborts are
        // already counted by `stats.publish`; here the conflict losers are
        // classified. A RAW ∧ WAR pair under logical reordering is a
        // "reorder rejected" (both escape hatches closed); every other
        // conflict abort lost to a smaller TID outright.
        let mut user = 0u64;
        let mut conflict_loser = 0u64;
        let mut reorder_rejected = 0u64;
        for (i, &ok) in committed_flags.iter().enumerate() {
            if ok {
                continue;
            }
            let f = flags[i].load();
            if f & flag::USER != 0 {
                user += 1;
            } else if f & (flag::FORCED | flag::LOG_FULL) != 0 {
                // Counted via stats.publish.
            } else if f & flag::WAW != 0 {
                conflict_loser += 1;
            } else if self.cfg.opts.logical_reordering
                && f & flag::RAW != 0
                && f & flag::WAR != 0
            {
                reorder_rejected += 1;
            } else {
                conflict_loser += 1;
            }
        }
        reg.counter(names::ABORT_USER).add(user);
        reg.counter(names::ABORT_CONFLICT_LOSER).add(conflict_loser);
        reg.counter(names::ABORT_REORDER_REJECTED).add(reorder_rejected);

        // Conflict-log occupancy: device bytes held right now (gauge) and
        // accesses recorded this batch (one detect item per registered
        // access).
        reg.gauge(names::LTPG_CONFLICT_LOG_BYTES).set(self.log.bytes() as i64);
        reg.counter(names::LTPG_CONFLICT_LOG_ACCESSES).add(detect_items);

        // Phase trace: consecutive spans on the engine's simulated clock.
        let trace = reg.trace();
        let mut at = self.sim_clock_ns;
        for (name, dur) in [
            ("ltpg.alloc", stats.alloc_ns),
            ("ltpg.h2d", stats.h2d_ns),
            ("ltpg.execute", stats.execute_ns),
            ("ltpg.detect", stats.detect_ns),
            ("ltpg.writeback", stats.writeback_ns),
            ("ltpg.sync", stats.sync_ns),
            ("ltpg.d2h", stats.d2h_ns),
        ] {
            trace.record(name, at, dur);
            at += dur;
        }
        self.sim_clock_ns = at;
    }
}

impl BatchEngine for LtpgEngine {
    fn name(&self) -> &'static str {
        "LTPG"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        self.execute_batch_report(batch).report
    }
}

impl std::fmt::Debug for LtpgEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LtpgEngine").field("tables", &self.db.table_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptFlags;
    use ltpg_storage::TableBuilder;
    use ltpg_txn::oracle::check_snapshot_serializable;
    use ltpg_txn::{IrOp, ProcId, Src, Tid, TidGen, Txn};

    fn small_db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
        for k in 0..100 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        (db, t)
    }

    fn read(t: TableId, k: i64, out: u8) -> IrOp {
        IrOp::Read { table: t, key: Src::Const(k), col: ColId(0), out }
    }
    fn write(t: TableId, k: i64, v: i64) -> IrOp {
        IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Const(v) }
    }
    fn add(t: TableId, k: i64, d: i64) -> IrOp {
        IrOp::Add { table: t, key: Src::Const(k), col: ColId(1), delta: Src::Const(d) }
    }

    fn run(db: Database, cfg: LtpgConfig, txns: Vec<Txn>) -> (LtpgEngine, Batch, BatchReport, Database) {
        let pre = db.deep_clone();
        let mut engine = LtpgEngine::new(db, cfg);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        (engine, batch, report, pre)
    }

    fn assert_serializable(engine: &LtpgEngine, batch: &Batch, report: &BatchReport, pre: &Database) {
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(pre, &committed, engine.database()).expect("serializable");
    }

    #[test]
    fn disjoint_batch_commits_fully() {
        let (db, t) = small_db();
        let txns = (0..50).map(|k| Txn::new(ProcId(0), vec![], vec![write(t, k, k + 1000)])).collect();
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed.len(), 50);
        assert!(report.aborted.is_empty());
        assert_serializable(&engine, &batch, &report, &pre);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 1007);
    }

    #[test]
    fn waw_admits_exactly_the_min_tid_writer() {
        let (db, t) = small_db();
        let txns: Vec<Txn> =
            (0..10).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, 5, 100 + i)])).collect();
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed, vec![Tid(1)]);
        assert_eq!(report.aborted.len(), 9);
        assert_serializable(&engine, &batch, &report, &pre);
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 100);
    }

    #[test]
    fn logical_reordering_commits_war_only_transactions() {
        let (db, t) = small_db();
        // tid1 reads k9 (written by tid2): tid1 has no RAW (writer is
        // later), tid2 has WAR (reader is earlier) but no RAW/WAW.
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![read(t, 9, 0), write(t, 1, 11)]),
            Txn::new(ProcId(0), vec![], vec![write(t, 9, 99)]),
        ];
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed.len(), 2, "reordering must commit both");
        assert_serializable(&engine, &batch, &report, &pre);

        // Without reordering, the WAR writer... still commits (WAR alone
        // does not abort in plain Aria either; RAW is what kills). Check a
        // genuine RAW case instead: reader AFTER writer.
        let (db2, t2) = small_db();
        let txns2 = vec![
            Txn::new(ProcId(0), vec![], vec![write(t2, 9, 99)]),
            Txn::new(ProcId(0), vec![], vec![read(t2, 9, 0), write(t2, 1, 11)]),
        ];
        let cfg = LtpgConfig::with_opts(OptFlags { logical_reordering: false, ..OptFlags::all() });
        let (engine2, batch2, report2, pre2) = run(db2, cfg, txns2);
        // tid2 reads what tid1 wrote: RAW → abort without reordering.
        assert_eq!(report2.committed, vec![Tid(1)]);
        assert_serializable(&engine2, &batch2, &report2, &pre2);
    }

    #[test]
    fn reordering_still_aborts_raw_and_war_combination() {
        let (db, t) = small_db();
        // tid1 writes k3 and reads k4; tid2 reads k3 (RAW vs tid1) and
        // writes k4 (WAR vs tid1) → tid2 must abort even with reordering.
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![write(t, 3, 30), read(t, 4, 0)]),
            Txn::new(ProcId(0), vec![], vec![read(t, 3, 0), write(t, 4, 40)]),
        ];
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed, vec![Tid(1)]);
        assert_eq!(report.aborted, vec![Tid(2)]);
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn commutative_adds_all_commit_with_delayed_update() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        let txns: Vec<Txn> =
            (0..32).map(|i| Txn::new(ProcId(0), vec![], vec![add(t, 7, i + 1)])).collect();
        let (engine, batch, report, pre) = run(db, cfg, txns);
        assert_eq!(report.committed.len(), 32, "delayed update must commit all adders");
        assert_serializable(&engine, &batch, &report, &pre);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(1)), (1..=32).sum::<i64>());
    }

    #[test]
    fn without_delayed_update_adds_conflict_as_rmw() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        cfg.opts.delayed_update = false;
        let txns: Vec<Txn> =
            (0..10).map(|i| Txn::new(ProcId(0), vec![], vec![add(t, 7, i + 1)])).collect();
        let (engine, batch, report, pre) = run(db, cfg, txns);
        assert_eq!(report.committed.len(), 1, "RMW adds must WAW-conflict");
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn reader_of_commutative_column_is_force_aborted() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        let reader = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Read { table: t, key: Src::Const(7), col: ColId(1), out: 0 }],
        );
        let adder = Txn::new(ProcId(0), vec![], vec![add(t, 7, 5)]);
        let (engine, batch, report, pre) = run(db, cfg, vec![reader, adder]);
        assert_eq!(report.committed, vec![Tid(2)], "adder commits, reader force-aborts");
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn cell_granularity_decouples_columns_of_one_row() {
        // Writer of column 0 vs writer of column 1 on the same row: LTPG's
        // conflict flags are cell-granular, so both commit — with or
        // without the dedicated split log for column 1 (splitting is a
        // contention/routing optimization, not a semantic one).
        let build = |split: bool| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.opts.logical_reordering = false;
            cfg.opts.delayed_update = false;
            cfg.opts.conflict_splitting = split;
            cfg.delayed_cols.insert((t, ColId(1)));
            let txns = vec![
                Txn::new(ProcId(0), vec![], vec![write(t, 5, 50)]), // col 0 writer
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update { table: t, key: Src::Const(5), col: ColId(1), val: Src::Const(9) }],
                ),
            ];
            run(db, cfg, txns)
        };
        for split in [true, false] {
            let (engine, batch, report, pre) = build(split);
            assert_eq!(report.committed.len(), 2, "distinct cells must not conflict (split={split})");
            assert_serializable(&engine, &batch, &report, &pre);
        }
        // Same cell still conflicts, of course.
        let (db, t) = small_db();
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![write(t, 5, 50)]),
            Txn::new(ProcId(0), vec![], vec![write(t, 5, 60)]),
        ];
        let (.., same_cell, _) = run(db, LtpgConfig::default(), txns);
        assert_eq!(same_cell.committed.len(), 1);
    }

    #[test]
    fn engine_is_deterministic_across_parallelism() {
        let mk = |threads: usize| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.device.parallel_host_threads = threads;
            let txns: Vec<Txn> = (0..200)
                .map(|i| {
                    Txn::new(
                        ProcId((i % 2) as u16),
                        vec![],
                        vec![read(t, i % 30, 0), write(t, (i * 7) % 40, i)],
                    )
                })
                .collect();
            let (engine, _b, report, _p) = run(db, cfg, txns);
            (report.committed, engine.database().state_digest())
        };
        let (c1, d1) = mk(1);
        let (c4, d4) = mk(4);
        assert_eq!(c1, c4);
        assert_eq!(d1, d4);
    }

    #[test]
    fn aborted_txn_commits_on_reexecution_with_original_tid() {
        let (db, t) = small_db();
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        let mut gen = TidGen::new();
        let txns: Vec<Txn> =
            (0..5).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, 5, 100 + i)])).collect();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let r1 = engine.execute_batch(&batch);
        assert_eq!(r1.committed.len(), 1);
        // Re-queue the aborted transactions (original TIDs).
        let requeued: Vec<Txn> =
            r1.aborted.iter().map(|tid| batch.by_tid(*tid).unwrap().clone()).collect();
        let batch2 = Batch::assemble(requeued, vec![], &mut gen);
        let r2 = engine.execute_batch(&batch2);
        // Again exactly one commits — the smallest remaining TID.
        assert_eq!(r2.committed, vec![Tid(2)]);
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 101);
    }

    #[test]
    fn inserts_conflict_with_each_other_but_not_with_unique_keys() {
        let (db, t) = small_db();
        let mk = |key: i64| {
            Txn::new(
                ProcId(0),
                vec![],
                vec![IrOp::Insert { table: t, key: Src::Const(key), values: vec![Src::Const(1), Src::Const(2)] }],
            )
        };
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), vec![mk(200), mk(200), mk(201)]);
        assert_eq!(report.committed, vec![Tid(1), Tid(3)]);
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn user_abort_does_not_block_others() {
        let (db, t) = small_db();
        // Key 5 exists: inserting it is a user abort; an unrelated writer
        // of the same row must still commit (the user abort registers no
        // conflict-log entries).
        let txns = vec![
            Txn::new(ProcId(0), vec![], vec![IrOp::Insert { table: t, key: Src::Const(5), values: vec![Src::Const(0), Src::Const(0)] }]),
            Txn::new(ProcId(0), vec![], vec![write(t, 5, 77)]),
        ];
        let (engine, _batch, report, _pre) = run(db, LtpgConfig::default(), txns);
        assert_eq!(report.committed, vec![Tid(2)]);
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 77);
    }

    #[test]
    fn phase_stats_are_populated() {
        let (db, t) = small_db();
        let txns = vec![Txn::new(ProcId(0), vec![1], vec![write(t, 1, 2)])];
        let pre = db.deep_clone();
        let _ = pre;
        let mut engine = LtpgEngine::new(db, LtpgConfig::default());
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let rws = engine.execute_batch_report(&batch);
        let s = &rws.stats;
        assert!(s.h2d_ns > 0.0 && s.d2h_ns > 0.0);
        assert!(s.execute_ns > 0.0 && s.detect_ns > 0.0 && s.writeback_ns > 0.0);
        assert!(s.bytes_h2d > 0 && s.bytes_d2h > 0);
        assert!((rws.report.sim_ns - s.total_ns()).abs() < 1e-9);
        assert!(rws.report.transfer_ns < rws.report.sim_ns);
        // Every phase is non-zero, so the pipelined critical path (the
        // bottleneck stage) is strictly below the serial six-phase sum.
        assert!((rws.report.critical_path_ns - s.critical_path_ns()).abs() < 1e-9);
        assert!(rws.report.critical_path_ns > 0.0);
        assert!(rws.report.critical_path_ns < rws.report.sim_ns);
    }

    #[test]
    fn ordered_scans_are_phantom_protected() {
        // A table with an ordered index; a scanner sums a range while an
        // inserter adds a key inside it.
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(
                ltpg_storage::TableBuilder::new("T").columns(["a", "b"]).capacity(64).build(),
            )
            .with_ordered(),
        );
        for k in 0..10 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        let scanner = Txn::new(
            ProcId(0),
            vec![],
            vec![
                IrOp::RangeSum { table: t, lo: Src::Const(0), hi: Src::Const(20), col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(1), col: ColId(1), val: Src::Reg(0) },
            ],
        );
        let inserter = Txn::new(
            ProcId(1),
            vec![],
            vec![IrOp::Insert { table: t, key: Src::Const(15), values: vec![Src::Const(100), Src::Const(0)] }],
        );
        // Scanner first (tid 1), inserter second (tid 2): scanner read the
        // snapshot, inserter's membership write has WAR only — both commit,
        // ordered scanner-before-inserter; the oracle validates exactly that.
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), vec![scanner, inserter]);
        assert_eq!(report.committed.len(), 2);
        assert_serializable(&engine, &batch, &report, &pre);
        // The scanner's recorded sum is the pre-insert sum (0..=9).
        let rid = engine.database().table(t).lookup(1).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(1)), (0..10).sum::<i64>());
    }

    #[test]
    fn scanner_reading_after_inserter_aborts_when_it_would_be_inconsistent() {
        // Inserter (tid 1) adds to the range; scanner (tid 2) scans it AND
        // overwrites something the inserter read — RAW (via the membership
        // marker) plus WAR: the scanner must abort under the reorder rule.
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(
                ltpg_storage::TableBuilder::new("T").columns(["a", "b"]).capacity(64).build(),
            )
            .with_ordered(),
        );
        for k in 0..10 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        let inserter = Txn::new(
            ProcId(1),
            vec![],
            vec![
                IrOp::Read { table: t, key: Src::Const(5), col: ColId(1), out: 0 },
                IrOp::Insert { table: t, key: Src::Const(15), values: vec![Src::Const(100), Src::Reg(0)] },
            ],
        );
        let scanner = Txn::new(
            ProcId(0),
            vec![],
            vec![
                IrOp::RangeSum { table: t, lo: Src::Const(0), hi: Src::Const(20), col: ColId(0), out: 0 },
                IrOp::Update { table: t, key: Src::Const(5), col: ColId(1), val: Src::Reg(0) },
            ],
        );
        let (engine, batch, report, pre) = run(db, LtpgConfig::default(), vec![inserter, scanner]);
        assert_eq!(report.committed, vec![Tid(1)], "the scanner must abort: {report:?}");
        assert_serializable(&engine, &batch, &report, &pre);
    }

    #[test]
    fn log_overflow_force_aborts_instead_of_panicking() {
        // A deliberately tiny conflict log: transactions that cannot
        // register abort gracefully and the rest of the batch proceeds.
        let mut db = Database::new();
        let t = db.add_table(
            ltpg_storage::TableBuilder::new("T").columns(["a", "b"]).capacity(1024).build(),
        );
        for k in 0..600 {
            db.table(t).insert(k, &[k, 0]).unwrap();
        }
        // Log sized for ~4*2 accesses: 128 buckets.
        let cfg =
            LtpgConfig { max_batch: 4, est_accesses_per_txn: 2, ..LtpgConfig::default() };
        // 600 distinct write cells overflow a 128-bucket log.
        let txns: Vec<Txn> =
            (0..600).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, i, i)])).collect();
        let pre = db.deep_clone();
        // Private registry: the taxonomy assertion below must not race
        // with other tests publishing to the process-global registry.
        let mut engine =
            LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared());
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let rws = engine.execute_batch_report(&batch);
        // Some force-aborted, the rest committed; nothing panicked and the
        // committed subset is serializable.
        assert!(!rws.report.aborted.is_empty(), "tiny log must overflow");
        assert!(!rws.report.committed.is_empty());
        assert!(rws.stats.log_exhausted_aborts > 0, "overflow counts as log-exhausted aborts");
        assert_eq!(rws.stats.delayed_read_aborts, 0, "no commutative columns in play");
        // The taxonomy counter mirrors the per-batch stat.
        assert_eq!(
            engine.telemetry().counter_value(ltpg_telemetry::names::ABORT_LOG_EXHAUSTED),
            rws.stats.log_exhausted_aborts
        );
        let committed: Vec<&Txn> =
            rws.report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(&pre, &committed, engine.database()).unwrap();
    }

    #[test]
    fn warp_division_removes_divergence() {
        let mk = |division: bool| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.opts.warp_division = division;
            let txns: Vec<Txn> = (0..256)
                .map(|i| Txn::new(ProcId((i % 2) as u16), vec![], vec![write(t, i % 100, i)]))
                .collect();
            let pre = db.deep_clone();
            let _ = pre;
            let mut engine = LtpgEngine::new(db, cfg);
            let mut gen = TidGen::new();
            let batch = Batch::assemble(vec![], txns, &mut gen);
            engine.execute_batch_report(&batch).stats.divergent_warps
        };
        assert_eq!(mk(true), 0);
        assert!(mk(false) > 0);
    }

    /// Satellite regression: a retried D2H transfer must charge one PCIe
    /// latency per wasted round trip in the *phase stats* (simulated time)
    /// and in the *device telemetry*, and the two views must agree.
    #[test]
    fn d2h_retry_charges_pcie_latency_in_stats_and_telemetry() {
        use ltpg_gpu_sim::DeviceFaultPlan;
        let (db, t) = small_db();
        let reg = ltpg_telemetry::Registry::new_shared();
        let mut engine = LtpgEngine::with_telemetry(db, LtpgConfig::default(), reg);
        // Engine fault ordinals within one batch: h2d=0, the three
        // check_alive probes=1..=3, d2h=4. Transients at {4, 5} force the
        // download to fail twice and succeed on the third attempt.
        engine.device().arm_faults(DeviceFaultPlan {
            transient_ops: [4u64, 5].into_iter().collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        let txns: Vec<Txn> =
            (0..16).map(|k| Txn::new(ProcId(0), vec![], vec![write(t, k, k + 1)])).collect();
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let rws = engine.try_execute_batch_report(&batch).unwrap();
        assert_eq!(rws.report.committed.len(), 16);
        assert_eq!(rws.stats.d2h_retries, 2);

        let cost = engine.device().cost();
        let expect = cost.transfer_ns(rws.stats.bytes_d2h) + 2.0 * cost.pcie_latency_ns;
        assert!(
            (rws.stats.d2h_ns - expect).abs() < 1e-6,
            "d2h_ns {} must include both wasted round trips (expected {expect})",
            rws.stats.d2h_ns
        );
        // Telemetry agrees: the device's transfer histogram saw four
        // transfers (upload, two failed downloads, final download) whose
        // total time is exactly the two phase stats.
        let snap = engine
            .telemetry()
            .histogram(ltpg_telemetry::names::GPU_TRANSFER_NS)
            .snapshot();
        assert_eq!(snap.count, 4);
        let phases = rws.stats.h2d_ns + rws.stats.d2h_ns;
        // The histogram stores integer nanoseconds: one rounding step per
        // recorded transfer.
        assert!(
            (snap.sum as f64 - phases).abs() < 4.0,
            "device telemetry ({}) and phase stats ({phases}) disagree",
            snap.sum
        );
        assert_eq!(
            engine.telemetry().counter_value(ltpg_telemetry::names::FAULT_TRANSIENT_RETRIES),
            2
        );
    }

    /// A contended mixed batch exercising every detect-item shape: reads,
    /// updates, RMWs, delayed adds, inserts and deletes.
    fn mixed_batch(t: TableId) -> Vec<Txn> {
        (0..240)
            .map(|i| {
                let ops = match i % 5 {
                    0 => vec![read(t, i % 30, 0), write(t, (i * 7) % 40, i)],
                    1 => vec![write(t, i % 25, i)],
                    2 => vec![add(t, 7, i + 1)],
                    3 => vec![IrOp::Insert {
                        table: t,
                        key: Src::Const(1_000 + i),
                        values: vec![Src::Const(i), Src::Const(0)],
                    }],
                    _ => vec![IrOp::Delete { table: t, key: Src::Const(50 + (i % 20)) }],
                };
                Txn::new(ProcId((i % 3) as u16), vec![], ops)
            })
            .collect()
    }

    /// The default engine's simulated cost, pinned per phase: the cell
    /// walk, registration, detection and allocation charging may be
    /// restructured, but never re-priced unnoticed.
    #[test]
    fn default_engine_phase_costs_are_pinned() {
        let (db, t) = small_db();
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        let mut engine =
            LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared());
        let batch = Batch::assemble(vec![], mixed_batch(t), &mut TidGen::new());
        let prepared = engine.try_prepare_batch(&batch, None).unwrap();
        assert_eq!(prepared.detect_items, 288);
        let rws = engine.try_finish_batch(&batch, prepared, None).unwrap();
        let s = &rws.stats;
        assert_eq!(s.execute_ns, 27647.14285714286);
        assert_eq!(s.detect_ns, 3109.0714285714284);
        assert_eq!(s.writeback_ns, 6298.928571428571);
        assert_eq!(s.alloc_ns, 12000.0);
        assert_eq!(s.alloc_events, 6);
        assert_eq!(rws.report.sim_ns, 71290.77922077922);
        assert_eq!(rws.report.committed.len(), 107);
        assert_eq!(engine.database().state_digest(), 11634658757472530799);
    }

    /// Once the arena has warmed up (first batch), a steady-state batch
    /// allocates nothing — zero alloc events, zero alloc time — and the
    /// telemetry counter goes flat.
    #[test]
    fn steady_state_batches_charge_zero_alloc_events() {
        let (db, t) = small_db();
        let reg = ltpg_telemetry::Registry::new_shared();
        let mut engine = LtpgEngine::with_telemetry(db, LtpgConfig::default(), reg);
        let mut gen = TidGen::new();
        let mut per_batch = Vec::new();
        for round in 0..4 {
            let txns: Vec<Txn> = (0..64)
                .map(|i| {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![read(t, (round + i) % 30, 0), write(t, (i * 3) % 90, i)],
                    )
                })
                .collect();
            let batch = Batch::assemble(vec![], txns, &mut gen);
            let rws = engine.execute_batch_report(&batch);
            per_batch.push((rws.stats.alloc_events, rws.stats.alloc_ns));
        }
        let counter = engine.telemetry().counter_value(ltpg_telemetry::names::LTPG_ALLOC_EVENTS);
        assert!(per_batch[0].0 > 0, "warm-up batch must charge the initial allocations");
        for (events, ns) in &per_batch[1..] {
            assert_eq!(*events, 0, "steady-state batch allocated");
            assert_eq!(*ns, 0.0, "steady-state batch charged alloc time");
        }
        assert_eq!(counter, per_batch[0].0, "telemetry watermark must stop at warm-up");
    }

    /// A long-running engine crosses the conflict log's epoch ceiling
    /// without panicking, and decides exactly like a fresh engine.
    #[test]
    fn epoch_wrap_decides_like_a_fresh_engine() {
        let run = |near_ceiling: bool| {
            let (db, t) = small_db();
            let mut cfg = LtpgConfig::default();
            cfg.delayed_cols.insert((t, ColId(1)));
            // Standard-sized buckets, so a stale slot would collide with
            // every later registration of its cell.
            cfg.opts.dynamic_buckets = false;
            let mut engine =
                LtpgEngine::with_telemetry(db, cfg, ltpg_telemetry::Registry::new_shared());
            if near_ceiling {
                engine.log.skip_to_last_epochs(2);
            }
            let mut gen = TidGen::new();
            let mut commits = Vec::new();
            for round in 0..4i64 {
                let txns: Vec<Txn> = mixed_batch(t)
                    .into_iter()
                    .map(|txn| {
                        let mut ops = txn.ops;
                        ops.push(write(t, round * 3 % 40, round));
                        Txn::new(txn.proc, vec![], ops)
                    })
                    .collect();
                let batch = Batch::assemble(vec![], txns, &mut gen);
                commits.push(engine.execute_batch(&batch).committed);
            }
            (commits, engine.database().state_digest(), engine.log.epoch())
        };
        let (fresh, fresh_digest, _) = run(false);
        let (wrapped, wrapped_digest, epoch) = run(true);
        assert_eq!(epoch, 2, "the log must have wrapped back to a low epoch");
        assert_eq!(wrapped, fresh);
        assert_eq!(wrapped_digest, fresh_digest);
    }

    /// The scope chain behind remote reads: a local hit wins over the
    /// remote side, existence is the OR of both, and ordered scans merge
    /// both sides' keys.
    #[test]
    fn scoped_store_prefers_local_hits_and_merges_range_keys() {
        let slice = |rows: &[(i64, i64)]| {
            let mut db = Database::new();
            let t = db.add_built_table(
                ltpg_storage::Table::new(TableBuilder::new("T").column("v").capacity(16).build())
                    .with_ordered(),
            );
            for &(k, v) in rows {
                db.table(t).insert(k, &[v]).unwrap();
            }
            (db, t)
        };
        let (local, t) = slice(&[(2, 20), (4, 40)]);
        let (remote, _) = slice(&[(1, 100), (2, 200), (3, 300)]);
        let chain = ScopedStore { local: &local, remote: &remote };
        assert_eq!(chain.cell(t, 2, ColId(0)), Some(20), "the local hit wins");
        assert_eq!(chain.cell(t, 3, ColId(0)), Some(300), "a local miss falls through");
        assert_eq!(chain.cell(t, 9, ColId(0)), None);
        assert!(chain.row_exists(t, 1) && chain.row_exists(t, 4) && !chain.row_exists(t, 5));
        assert_eq!(chain.row_width(t), 1);
        assert_eq!(chain.range_keys(t, 1, 5), Some(vec![1, 2, 3, 4]));
    }
}
