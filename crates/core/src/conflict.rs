//! The conflict log: dynamic hash buckets for TID registration (§V-C).
//!
//! Every data access of the execute phase registers its transaction's TID
//! against the accessed row with a single `atomicMin`. A bucket holds
//! `s_u` *slots* for each of the read-TID and write-TID records:
//!
//! * **standard-sized** buckets (`s_u = 1`) — one slot; concurrent
//!   registrations against one row serialize on one atomic.
//! * **large-sized** buckets (`s_u = ⌈E/WS⌉·WS`) — used when the table's
//!   access frequency `E = T/D` exceeds 1 (or the operator pre-marked it):
//!   a registering thread re-hashes to slot `TID mod s_u`, spreading the
//!   atomics across slots. Detection scans all slots and takes the min —
//!   reads are cheap and coalesced; it is the *serialized atomic writes*
//!   the design avoids (paper Table VII).
//!
//! Buckets are addressed by open addressing with linear probing
//! (`h(key, i) = (h(key) + i) mod s_h`), the same policy the paper states.
//! Two engineering choices worth calling out:
//!
//! * **Epoch-packed slots.** A slot stores `(epoch', tid)` with
//!   `epoch' = EPOCH_CEIL − epoch`, so values from the current batch are
//!   always numerically smaller than stale ones and a plain `atomicMin`
//!   simultaneously overrides stale state and maintains the minimum —
//!   resetting the (potentially huge) log between batches is O(1).
//! * **40-bit key tags.** A bucket's owner tag stores a 40-bit hash of the
//!   key rather than the key itself (keys don't fit next to the epoch).
//!   A tag collision merges two rows' records, which can only *add*
//!   conflicts (extra aborts), never hide one — safe, and vanishingly rare.

use std::sync::atomic::{AtomicU64, Ordering};

use ltpg_gpu_sim::{Lane, SimAtomicU64};
use ltpg_storage::{ColId, Database, TableId};

use crate::config::LtpgConfig;
use crate::engine::{AccessKind, CellAccess, LogCell};

/// TIDs must fit in 40 bits (≈ 10¹² transactions per engine lifetime).
const TID_BITS: u32 = 40;
const TID_MASK: u64 = (1 << TID_BITS) - 1;
/// Epochs fit in the remaining 24 bits.
const EPOCH_CEIL: u64 = (1 << 24) - 1;
/// Last epoch a batch runs under before the log wipes and restarts at 1.
const LAST_EPOCH: u32 = (EPOCH_CEIL - 2) as u32;
/// Slot value meaning "never written".
const SLOT_EMPTY: u64 = u64::MAX;

#[inline]
fn encode(epoch: u32, tid: u64) -> u64 {
    debug_assert!(tid <= TID_MASK, "TID exceeds 40 bits");
    debug_assert!(u64::from(epoch) < EPOCH_CEIL);
    ((EPOCH_CEIL - u64::from(epoch)) << TID_BITS) | tid
}

#[inline]
fn decode(v: u64, epoch: u32) -> Option<u64> {
    if v == SLOT_EMPTY {
        return None;
    }
    ((v >> TID_BITS) == EPOCH_CEIL - u64::from(epoch)).then_some(v & TID_MASK)
}

#[inline]
fn mix_key(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Upper bound on the bucket size (the paper's worked example uses
/// `s_u = 512` for a 2¹⁴ batch over 32 warehouses; beyond this the
/// detection-phase bucket scan costs more than the serialization it
/// avoids).
const S_U_CAP: usize = 512;

/// One hash table of TID records, covering one table (or one split-off hot
/// column of one table).
pub struct TableLog {
    /// Bucket count (power of two).
    s_h: usize,
    mask: usize,
    /// Slots per bucket (1 = standard-sized, ≥ warp size = large-sized).
    s_u: usize,
    /// Bucket owner tags: `(epoch', key_hash40)`.
    tags: Vec<SimAtomicU64>,
    /// Min read-TID slots, `s_h × s_u`.
    reads: Vec<SimAtomicU64>,
    /// Min write-TID slots, `s_h × s_u`.
    writes: Vec<SimAtomicU64>,
    /// Per-bucket "a read was registered in this epoch" summary, letting
    /// the detection phase skip scanning untouched buckets with one read.
    read_mark: Vec<AtomicU64>,
    /// Per-bucket write summary, ditto.
    write_mark: Vec<AtomicU64>,
    /// Accesses observed in the current batch (popularity telemetry).
    accesses: AtomicU64,
    /// Probe width `ws` (WarpSpeed-style warp-cooperative probing): the
    /// warp ballots over `ws` buckets (or slots) at once — one cached
    /// inspection plus one shuffle step per *group* — and the detection
    /// scan's slot minimum folds through a log₂(ws) shuffle reduction.
    /// Width 1 is a serial per-lane loop. Timing-only: claims,
    /// registrations and minima are identical at every width.
    probe_width: usize,
}

impl TableLog {
    /// Create a log with `s_h` buckets (rounded up to a power of two) of
    /// `s_u` slots each, probed `probe_width` buckets/slots at a time.
    pub fn new(s_h: usize, s_u: usize, probe_width: usize) -> Self {
        let s_h = s_h.max(16).next_power_of_two();
        let s_u = s_u.max(1);
        let slot = |n: usize| (0..n).map(|_| SimAtomicU64::new(SLOT_EMPTY)).collect::<Vec<_>>();
        let mark = |n: usize| (0..n).map(|_| AtomicU64::new(u64::MAX)).collect::<Vec<_>>();
        TableLog {
            s_h,
            mask: s_h - 1,
            s_u,
            tags: slot(s_h),
            reads: slot(s_h * s_u),
            writes: slot(s_h * s_u),
            read_mark: mark(s_h),
            write_mark: mark(s_h),
            accesses: AtomicU64::new(0),
            probe_width: probe_width.max(1),
        }
    }

    /// Size a log per the paper's rule. `rows` is the covered table's row
    /// cardinality (the paper's `D` in `E = T/D`), `cells` the number of
    /// distinct conflict cells the table exposes (rows × (columns + 1) at
    /// cell granularity), `est_txns` the expected transactions touching
    /// the table per batch (the paper's `T`), `est_accesses` the expected
    /// total registrations per batch, `ws` the warp size (also the probe
    /// width).
    pub fn sized_for(
        rows: usize,
        cells: usize,
        est_txns: usize,
        est_accesses: usize,
        ws: usize,
        dynamic: bool,
        popular_hint: bool,
    ) -> Self {
        let e = est_txns as f64 / rows.max(1) as f64;
        let s_u = if dynamic && (e > 1.0 || popular_hint) {
            (((e.max(1.0) / ws as f64).ceil() as usize).max(1) * ws).min(S_U_CAP)
        } else {
            1
        };
        // Enough buckets for every distinct accessed cell at ≤ 25 % load.
        let s_h = (4 * est_accesses.min(cells).max(32)).next_power_of_two();
        TableLog::new(s_h, s_u, ws)
    }

    /// Slots per bucket.
    pub fn bucket_size(&self) -> usize {
        self.s_u
    }

    /// Bucket count.
    pub fn bucket_count(&self) -> usize {
        self.s_h
    }

    /// Buckets (or slots) one probe step inspects.
    pub fn probe_width(&self) -> usize {
        self.probe_width
    }

    /// Whether this log uses large-sized buckets.
    pub fn is_large(&self) -> bool {
        self.s_u > 1
    }

    /// Device memory footprint of the log.
    pub fn bytes(&self) -> u64 {
        ((self.tags.len() + self.reads.len() + self.writes.len()) * 16
            + (self.read_mark.len() + self.write_mark.len()) * 8) as u64
    }

    /// Reset every tag, slot and summary mark to empty. Called between
    /// batches under `&mut ConflictLog`, so no lane races these stores.
    fn clear(&self) {
        for s in self.tags.iter().chain(&self.reads).chain(&self.writes) {
            s.store(SLOT_EMPTY);
        }
        for m in self.read_mark.iter().chain(&self.write_mark) {
            m.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Accesses registered since the last [`TableLog::take_accesses`].
    pub fn take_accesses(&self) -> u64 {
        self.accesses.swap(0, Ordering::Relaxed)
    }

    /// Find (or claim) the bucket owning `key` in `epoch`. Returns the
    /// bucket index. `claim = false` only locates existing buckets.
    fn bucket_for(&self, lane: &mut Lane<'_>, key: i64, epoch: u32, claim: bool) -> Option<usize> {
        let h = mix_key(key);
        let tag_val = encode(epoch, h & TID_MASK);
        let start = (h as usize) & self.mask;
        let ws = self.probe_width;
        for i in 0..self.s_h {
            let b = (start + i) & self.mask;
            // The warp ballots over `ws` buckets at once (`__ballot_sync` +
            // `__popc` on the tag matches), so one cached inspection lands
            // per group, plus one shuffle to broadcast the winning bucket
            // when the group spans lanes.
            if i % ws == 0 {
                lane.charge_light(12.0);
                lane.warp_shuffle(u32::from(ws > 1));
            }
            let tag = &self.tags[b];
            let mut cur = tag.load();
            loop {
                if cur == tag_val {
                    return Some(b); // our key owns this bucket
                }
                if decode(cur, epoch).is_some() {
                    break; // owned by another key this epoch: probe on
                }
                if !claim {
                    return None; // stale/empty bucket: no record this epoch
                }
                // Stale or empty: try to claim it for this key.
                match lane.atomic_cas_u64(tag, cur, tag_val) {
                    Ok(_) => {
                        // Fresh claim: neutralize the bucket's stale slots.
                        // (Slots self-neutralize via epoch encoding; nothing
                        // to write — this is the O(1) reset.)
                        return Some(b);
                    }
                    Err(observed) => cur = observed,
                }
            }
        }
        // Log exhausted: the caller treats a failed registration as a
        // forced abort of the registering transaction (always sound).
        None
    }

    #[inline]
    fn slot_of(&self, bucket: usize, tid: u64) -> usize {
        // Large-sized buckets re-hash by TID (paper: h(key) = TID mod s_u).
        bucket * self.s_u + (tid as usize % self.s_u)
    }

    /// Register a read by `tid` against `key`. Returns `false` when the
    /// log is exhausted (caller must abort the transaction).
    #[must_use]
    pub fn register_read(&self, lane: &mut Lane<'_>, key: i64, tid: u64, epoch: u32) -> bool {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        match self.bucket_for(lane, key, epoch, true) {
            Some(b) => {
                self.read_mark[b].store(u64::from(epoch), Ordering::Release);
                lane.atomic_min_u64(&self.reads[self.slot_of(b, tid)], encode(epoch, tid));
                true
            }
            None => false,
        }
    }

    /// Register a write by `tid` against `key`. Returns `false` when the
    /// log is exhausted (caller must abort the transaction).
    #[must_use]
    pub fn register_write(&self, lane: &mut Lane<'_>, key: i64, tid: u64, epoch: u32) -> bool {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        match self.bucket_for(lane, key, epoch, true) {
            Some(b) => {
                self.write_mark[b].store(u64::from(epoch), Ordering::Release);
                lane.atomic_min_u64(&self.writes[self.slot_of(b, tid)], encode(epoch, tid));
                true
            }
            None => false,
        }
    }

    fn min_over(
        &self,
        lane: &mut Lane<'_>,
        slots: &[SimAtomicU64],
        marks: &[AtomicU64],
        bucket: usize,
        epoch: u32,
    ) -> Option<u64> {
        // One-word summary check first: untouched buckets cost one cached
        // log read (the conflict log is hot in L2 during detection).
        lane.charge_light(12.0);
        if marks[bucket].load(Ordering::Acquire) != u64::from(epoch) {
            return None;
        }
        // Scanning the bucket is a streaming read of s_u contiguous words:
        // the warp strides it `ws` slots per step, then folds the per-lane
        // minima with a log₂(ws) shuffle-XOR tree reduction.
        let ws = self.probe_width;
        lane.charge_light(4.0 * (self.s_u as f64 / ws as f64).ceil());
        lane.warp_shuffle(ws.ilog2());
        let base = bucket * self.s_u;
        slots[base..base + self.s_u].iter().filter_map(|s| decode(s.load(), epoch)).min()
    }

    /// Minimum read TID recorded for `key` this epoch.
    pub fn min_read(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<u64> {
        let b = self.bucket_for(lane, key, epoch, false)?;
        self.min_over(lane, &self.reads, &self.read_mark, b, epoch)
    }

    /// Minimum write TID recorded for `key` this epoch.
    pub fn min_write(&self, lane: &mut Lane<'_>, key: i64, epoch: u32) -> Option<u64> {
        let b = self.bucket_for(lane, key, epoch, false)?;
        self.min_over(lane, &self.writes, &self.write_mark, b, epoch)
    }
}

impl std::fmt::Debug for TableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableLog")
            .field("buckets", &self.s_h)
            .field("bucket_size", &self.s_u)
            .finish()
    }
}

/// Memory occupancy of one constituent log (paper Table VIII).
#[derive(Debug, Clone)]
pub struct LogMemory {
    /// Covered table.
    pub table: TableId,
    /// `Some(col)` when this is a split-off hot-column log.
    pub split_col: Option<ColId>,
    /// Device bytes.
    pub bytes: u64,
    /// Bucket size `s_u`.
    pub bucket_size: usize,
}

/// The engine-wide conflict log: one row-granularity [`TableLog`] per
/// table, plus dedicated logs for split-off hot columns.
pub struct ConflictLog {
    epoch: u32,
    warp_size: usize,
    dynamic: bool,
    est_per_table: Vec<usize>,
    rows_per_table: Vec<usize>,
    popular_hint: Vec<bool>,
    row_logs: Vec<TableLog>,
    split_logs: Vec<((TableId, ColId), TableLog)>,
    /// One single-key log per table for the membership predicate (ordered
    /// scans read it, inserts/deletes write it). The marker is by
    /// construction the hottest cell of an insert-heavy table, so it gets
    /// a maximal bucket unconditionally.
    membership_logs: Vec<TableLog>,
}

impl ConflictLog {
    /// Build logs for every table of `db` per `cfg`.
    pub fn new(db: &Database, cfg: &LtpgConfig) -> Self {
        let warp_size = cfg.device.warp_size as usize;
        let est_txns = cfg.max_batch;
        let est = cfg.max_batch * cfg.est_accesses_per_txn;
        let mut row_logs = Vec::new();
        let mut est_per_table = Vec::new();
        let mut rows_per_table = Vec::new();
        let mut popular_hint = Vec::new();
        for (id, table) in db.iter() {
            let rows = table.capacity();
            let cells = rows.saturating_mul(table.width() + 1);
            let hint = cfg.premarked_popular.contains(&id);
            row_logs.push(TableLog::sized_for(
                rows,
                cells,
                est_txns,
                est,
                warp_size,
                cfg.opts.dynamic_buckets,
                hint,
            ));
            est_per_table.push(est);
            rows_per_table.push(rows);
            popular_hint.push(hint);
        }
        let split_logs = cfg
            .delayed_cols
            .iter()
            .filter(|_| cfg.opts.conflict_splitting)
            .map(|&(t, c)| {
                let rows = db.table(t).capacity();
                let hint = cfg.premarked_popular.contains(&t);
                (
                    (t, c),
                    // A split log covers exactly one column: cells = rows.
                    TableLog::sized_for(
                        rows,
                        rows,
                        est_txns,
                        est,
                        warp_size,
                        cfg.opts.dynamic_buckets,
                        hint,
                    ),
                )
            })
            .collect();
        let membership_logs = db
            .iter()
            .map(|_| {
                TableLog::new(2_048, if cfg.opts.dynamic_buckets { 512 } else { 1 }, warp_size)
            })
            .collect();
        ConflictLog {
            epoch: 0,
            warp_size,
            dynamic: cfg.opts.dynamic_buckets,
            est_per_table,
            rows_per_table,
            popular_hint,
            row_logs,
            split_logs,
            membership_logs,
        }
    }

    /// Current batch epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Start a new batch: O(1) epoch bump, plus run-time popularity
    /// adaptation — a table whose observed `E = T/D` crossed 1 is rebuilt
    /// with large buckets (and vice versa), the paper's "identify such
    /// tables in real-time".
    ///
    /// When the epoch space runs out (after 2²⁴ − 3 batches) every log is
    /// wiped to empty and numbering restarts at 1: a stale slot from a
    /// late epoch encodes *smaller* than any slot of epoch 1, so without
    /// the wipe it would win the `atomicMin` and hide a registration.
    pub fn begin_batch(&mut self) {
        if self.epoch >= LAST_EPOCH {
            for log in self.logs() {
                log.clear();
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        if !self.dynamic {
            return;
        }
        for (i, log) in self.row_logs.iter_mut().enumerate() {
            let observed = log.take_accesses() as usize;
            if observed == 0 {
                continue;
            }
            self.est_per_table[i] = observed;
            let e = observed as f64 / self.rows_per_table[i].max(1) as f64;
            let want_large = e > 1.0 || self.popular_hint[i];
            if want_large != log.is_large() {
                *log = TableLog::sized_for(
                    self.rows_per_table[i],
                    self.rows_per_table[i].saturating_mul(8),
                    observed,
                    observed,
                    self.warp_size,
                    true,
                    self.popular_hint[i],
                );
            }
        }
    }

    /// The log an access to `(table, col)` routes to.
    #[inline]
    pub fn route(&self, table: TableId, col: Option<ColId>) -> &TableLog {
        if let Some(c) = col {
            if let Some((_, log)) = self.split_logs.iter().find(|((t, sc), _)| *t == table && *sc == c) {
                return log;
            }
        }
        &self.row_logs[usize::from(table.0)]
    }

    /// The log `access` registers in and its key there.
    fn locate(&self, access: &CellAccess) -> (&TableLog, i64) {
        match access.cell {
            LogCell::Row { col, key, .. } => (self.route(access.table, col), key),
            LogCell::Membership { partition } => {
                (&self.membership_logs[usize::from(access.table.0)], partition)
            }
        }
    }

    /// Register `access` by `tid` (a read-modify-write registers as both
    /// reader and writer). `false` = log exhausted, abort the transaction.
    #[must_use]
    pub fn register(&self, lane: &mut Lane<'_>, access: &CellAccess, tid: u64) -> bool {
        let (log, key) = self.locate(access);
        match access.kind {
            AccessKind::Read => log.register_read(lane, key, tid, self.epoch),
            AccessKind::Write => log.register_write(lane, key, tid, self.epoch),
            AccessKind::Rmw => {
                log.register_read(lane, key, tid, self.epoch)
                    & log.register_write(lane, key, tid, self.epoch)
            }
        }
    }

    /// Minimum read TID recorded this batch against the cell of `access`.
    pub fn min_read(&self, lane: &mut Lane<'_>, access: &CellAccess) -> Option<u64> {
        let (log, key) = self.locate(access);
        log.min_read(lane, key, self.epoch)
    }

    /// Minimum write TID recorded this batch against the cell of `access`.
    pub fn min_write(&self, lane: &mut Lane<'_>, access: &CellAccess) -> Option<u64> {
        let (log, key) = self.locate(access);
        log.min_write(lane, key, self.epoch)
    }

    /// Jump the epoch counter so that only `batches` more batches run
    /// before the wrap.
    #[cfg(test)]
    pub(crate) fn skip_to_last_epochs(&mut self, batches: u32) {
        self.epoch = LAST_EPOCH - batches;
    }

    /// Every constituent log.
    fn logs(&self) -> impl Iterator<Item = &TableLog> {
        self.row_logs
            .iter()
            .chain(self.split_logs.iter().map(|(_, log)| log))
            .chain(&self.membership_logs)
    }

    /// Memory occupancy report (paper Table VIII).
    pub fn memory_report(&self) -> Vec<LogMemory> {
        let mut out = Vec::new();
        for (i, log) in self.row_logs.iter().enumerate() {
            out.push(LogMemory {
                table: TableId(i as u16),
                split_col: None,
                bytes: log.bytes(),
                bucket_size: log.bucket_size(),
            });
        }
        for ((t, c), log) in &self.split_logs {
            out.push(LogMemory {
                table: *t,
                split_col: Some(*c),
                bytes: log.bytes(),
                bucket_size: log.bucket_size(),
            });
        }
        out
    }

    /// Total device bytes across all constituent logs.
    pub fn bytes(&self) -> u64 {
        self.memory_report().iter().map(|m| m.bytes).sum()
    }
}

impl std::fmt::Debug for ConflictLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConflictLog")
            .field("epoch", &self.epoch)
            .field("row_logs", &self.row_logs.len())
            .field("split_logs", &self.split_logs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_gpu_sim::{Device, DeviceConfig};

    /// Run `f` on a single-lane kernel and return its result.
    fn on_lane<T: Send>(f: impl Fn(&mut Lane<'_>) -> T + Sync) -> T {
        let device = Device::new(DeviceConfig::default());
        let out = parking_lot::Mutex::new(None);
        device.launch_indexed("test", 1, |lane| {
            *out.lock() = Some(f(lane));
        });
        out.into_inner().unwrap()
    }

    #[test]
    fn register_and_min_roundtrip() {
        let log = TableLog::new(64, 1, 1);
        on_lane(|lane| {
            let _ = log.register_read(lane, 42, 7, 1);
            let _ = log.register_read(lane, 42, 3, 1);
            let _ = log.register_write(lane, 42, 9, 1);
            assert_eq!(log.min_read(lane, 42, 1), Some(3));
            assert_eq!(log.min_write(lane, 42, 1), Some(9));
            assert_eq!(log.min_read(lane, 999, 1), None);
            assert_eq!(log.min_write(lane, 42, 2), None, "stale epoch invisible");
        });
    }

    #[test]
    fn epoch_bump_is_an_implicit_reset() {
        let log = TableLog::new(64, 4, 1);
        on_lane(|lane| {
            let _ = log.register_write(lane, 5, 100, 1);
            assert_eq!(log.min_write(lane, 5, 1), Some(100));
            // Next epoch: the very same bucket must read as empty, and a
            // larger TID min-registers fine over the stale smaller value.
            let _ = log.register_write(lane, 5, 900, 2);
            assert_eq!(log.min_write(lane, 5, 2), Some(900));
        });
    }

    #[test]
    fn large_bucket_spreads_tids_across_slots() {
        let log = TableLog::new(16, 8, 1);
        on_lane(|lane| {
            for tid in 1..=20u64 {
                let _ = log.register_write(lane, 7, tid, 3);
            }
            assert_eq!(log.min_write(lane, 7, 3), Some(1));
        });
    }

    #[test]
    fn colliding_keys_probe_to_distinct_buckets() {
        let log = TableLog::new(16, 1, 1);
        on_lane(|lane| {
            // More keys than buckets would fail; use enough distinct keys
            // to force probing while staying under s_h.
            for key in 0..12i64 {
                let _ = log.register_read(lane, key, key as u64 + 1, 1);
            }
            for key in 0..12i64 {
                assert_eq!(log.min_read(lane, key, 1), Some(key as u64 + 1), "key {key}");
            }
        });
    }

    #[test]
    fn sized_for_follows_the_paper_rule() {
        // E = 16384/32 = 512 transactions per row, warp 32: s_u = 512.
        let hot = TableLog::sized_for(32, 32 * 4, 16_384, 16_384, 32, true, false);
        assert_eq!(hot.bucket_size(), 512);
        assert!(hot.is_large());
        // E < 1: standard-sized.
        let cold = TableLog::sized_for(1_000_000, 5_000_000, 16_384, 160_000, 32, true, false);
        assert_eq!(cold.bucket_size(), 1);
        // Dynamic buckets off: always standard.
        let off = TableLog::sized_for(32, 128, 16_384, 16_384, 32, false, true);
        assert_eq!(off.bucket_size(), 1);
        // Pre-marked popular: large even when E ≤ 1.
        let marked = TableLog::sized_for(1_000_000, 5_000_000, 16_384, 160_000, 32, true, true);
        assert!(marked.is_large());
        // The cap holds for extreme skew (2^16 txns on one row).
        let extreme = TableLog::sized_for(1, 8, 1 << 16, 1 << 16, 32, true, false);
        assert_eq!(extreme.bucket_size(), 512);
    }

    #[test]
    fn parallel_registration_is_deterministic() {
        let items: Vec<u64> = (1..=4_096).collect();
        let run = |threads: usize| {
            let device = Device::new(DeviceConfig::parallel(threads));
            let log = TableLog::new(1 << 13, 32, 1);
            device.launch("reg", &items, |lane, &tid| {
                let _ = log.register_write(lane, (tid % 64) as i64, tid, 1);
            });
            let mins = parking_lot::Mutex::new(Vec::new());
            let device2 = Device::new(DeviceConfig::default());
            device2.launch_indexed("read", 1, |lane| {
                *mins.lock() = (0..64i64).map(|k| log.min_write(lane, k, 1)).collect();
            });
            mins.into_inner()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq, par);
        // Key k's writers are {k+64n}; min is the smallest, i.e. k (or 64 for k=0).
        assert_eq!(seq[1], Some(1));
        assert_eq!(seq[0], Some(64));
    }

    #[test]
    fn take_accesses_resets_on_read() {
        let log = TableLog::new(64, 1, 1);
        on_lane(|lane| {
            let _ = log.register_read(lane, 1, 1, 1);
            let _ = log.register_write(lane, 2, 1, 1);
            let _ = log.register_read(lane, 3, 2, 1);
        });
        assert_eq!(log.take_accesses(), 3);
        // The read consumed the counter: a second take observes zero...
        assert_eq!(log.take_accesses(), 0);
        // ...and only new registrations repopulate it.
        on_lane(|lane| {
            let _ = log.register_write(lane, 4, 3, 1);
        });
        assert_eq!(log.take_accesses(), 1);
    }

    #[test]
    fn probe_cost_charged_per_bucket_inspected() {
        // Regression: `bucket_for` used to charge the probe cost only
        // after iterating past a bucket owned by another key, so hits,
        // fresh claims and first-bucket misses were all free. The charge
        // now lands once per bucket inspected — so even a missing-key
        // lookup on an empty log (one bucket inspected, then "no record
        // this epoch") must cost more than not touching the log at all.
        let cycles_for = |f: &(dyn Fn(&mut Lane<'_>) + Sync)| {
            let device = Device::new(DeviceConfig::default());
            device.launch_indexed("probe", 1, f).sim_ns
        };
        let log = TableLog::new(64, 1, 1);
        let baseline = cycles_for(&|_lane| {});
        let miss = cycles_for(&|lane: &mut Lane<'_>| {
            assert_eq!(log.min_read(lane, 10, 1), None);
        });
        assert!(
            miss > baseline,
            "a one-bucket inspection must charge a probe (miss {miss} vs baseline {baseline})"
        );
    }

    #[test]
    fn ballot_probe_is_cheaper_and_decision_identical() {
        // The probe width is timing-only: the same registrations produce
        // the same minima, but the detect-side scan of a large bucket
        // charges far fewer cycles at warp width than serially.
        let items: Vec<u64> = (1..=2_048).collect();
        let run = |probe_width: usize| {
            let device = Device::new(DeviceConfig::default());
            let log = TableLog::new(64, 512, probe_width);
            device.launch("mark", &items, |lane, &tid| {
                let _ = log.register_write(lane, (tid % 8) as i64, tid, 1);
            });
            let mins = parking_lot::Mutex::new(Vec::new());
            let read = device.launch_indexed("read", 64, |lane| {
                let m = log.min_write(lane, (lane.global_id % 8) as i64, 1);
                mins.lock().push((lane.global_id, m));
            });
            let mut mins = mins.into_inner();
            mins.sort_unstable();
            (mins, read.sim_ns)
        };
        let (serial_mins, serial_ns) = run(1);
        let (ballot_mins, ballot_ns) = run(32);
        assert_eq!(serial_mins, ballot_mins, "probing mode must not change any minimum");
        assert!(
            ballot_ns < serial_ns,
            "cooperative scan must be cheaper: ballot {ballot_ns} vs serial {serial_ns}"
        );
    }

    #[test]
    fn popularity_rebuild_keeps_ballot_probing() {
        use ltpg_storage::TableBuilder;
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("H").columns(["a"]).capacity(8).build());
        let cfg = LtpgConfig { max_batch: 1 << 12, ..LtpgConfig::default() };
        let mut log = ConflictLog::new(&db, &cfg);
        assert_eq!(log.route(t, None).probe_width(), 32);
        // The 8-row table starts large (E = 4096/8 ≫ 1). Observe only a
        // handful of accesses so E drops below 1 and the next begin_batch
        // rebuilds it standard-sized — the rebuild must keep the probe
        // width.
        let device = Device::new(DeviceConfig::default());
        log.begin_batch();
        assert!(log.route(t, None).is_large());
        device.launch_indexed("trickle", 4, |lane| {
            let _ = log.register(lane, &row_write(t, 1), lane.global_id as u64 + 1);
        });
        log.begin_batch();
        assert!(!log.route(t, None).is_large(), "E < 1 must rebuild standard-sized");
        assert_eq!(log.route(t, None).probe_width(), 32, "rebuild dropped the probe width");
    }

    /// A write of the existence cell of row `key`.
    fn row_write(table: TableId, key: i64) -> CellAccess {
        CellAccess {
            table,
            row: key,
            cell: LogCell::Row { col: None, key: crate::engine::cell_key(key, None) },
            kind: AccessKind::Write,
        }
    }

    #[test]
    fn epoch_wrap_wipes_stale_slots() {
        use ltpg_storage::TableBuilder;
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a"]).capacity(64).build());
        // Standard-sized buckets: every TID of a key lands in one slot.
        let mut cfg = LtpgConfig::default();
        cfg.opts.dynamic_buckets = false;
        let mut log = ConflictLog::new(&db, &cfg);
        let device = Device::new(DeviceConfig::default());
        let w = row_write(t, 5);
        let register = |log: &ConflictLog, tid: u64| {
            device.launch_indexed("reg", 1, |lane| assert!(log.register(lane, &w, tid)));
        };
        let min = |log: &ConflictLog| {
            let out = parking_lot::Mutex::new(None);
            device.launch_indexed("min", 1, |lane| *out.lock() = log.min_write(lane, &w));
            out.into_inner()
        };
        log.epoch = LAST_EPOCH - 1;
        log.begin_batch();
        assert_eq!(log.epoch(), LAST_EPOCH);
        register(&log, 3);
        // The last epoch's slot encodes below every epoch-1 value: without
        // the wipe it would win the atomicMin and hide TID 9.
        log.begin_batch();
        assert_eq!(log.epoch(), 1, "numbering restarts at 1");
        assert_eq!(min(&log), None, "the wrap must leave no record behind");
        register(&log, 9);
        assert_eq!(min(&log), Some(9));
    }

    #[test]
    fn large_buckets_reduce_atomic_serialization() {
        let items: Vec<u64> = (1..=2_048).collect();
        let run = |s_u: usize| {
            let device = Device::new(DeviceConfig::default());
            let log = TableLog::new(64, s_u, 1);
            let r = device.launch("hot", &items, |lane, &tid| {
                let _ = log.register_write(lane, 1, tid, 1);
            });
            r.atomic_serial_depth
        };
        let standard = run(1);
        let large = run(32);
        assert!(large < standard / 8, "standard {standard} vs large {large}");
    }

    #[test]
    fn split_routing_and_adaptation() {
        use ltpg_storage::TableBuilder;
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("W").columns(["a", "b"]).capacity(32).build());
        let mut cfg = LtpgConfig { max_batch: 1 << 12, ..LtpgConfig::default() };
        cfg.delayed_cols.insert((t, ColId(1)));
        let mut log = ConflictLog::new(&db, &cfg);
        log.begin_batch();
        // Column 1 routes to its split log; column 0 to the row log.
        assert!(std::ptr::eq(log.route(t, Some(ColId(0))), log.route(t, None)));
        assert!(!std::ptr::eq(log.route(t, Some(ColId(1))), log.route(t, None)));
        // The 32-row table with est 4096*8 accesses must be large-bucketed.
        assert!(log.route(t, None).is_large());
        assert!(log.bytes() > 0);
        assert_eq!(log.memory_report().len(), 2);
    }
}
