//! Engine configuration: optimization toggles (the axes of the paper's
//! ablation, Fig. 6b and Table VI), hot-column designations, data
//! synchronization mode, and the simulated-device setup.

use std::collections::HashSet;

use ltpg_gpu_sim::DeviceConfig;
use ltpg_storage::{ColId, TableId};

/// Which of LTPG's optimizations are active. `OptFlags::all()` is the full
/// system; the ablation benches switch subsets off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// Adaptive warp division (§V-B): order lanes so each warp runs one
    /// procedure type.
    pub warp_division: bool,
    /// Dynamic hash buckets (§V-C): large buckets for popular tables.
    /// When off, every bucket has a single slot (`s_u = 1`).
    pub dynamic_buckets: bool,
    /// Logical reordering (§V-D): commit iff ¬WAW ∧ (¬RAW ∨ ¬WAR)
    /// instead of plain ¬WAW ∧ ¬RAW.
    pub logical_reordering: bool,
    /// Row-level conflict-flag splitting (§V-D): designated hot columns
    /// get their own conflict log so the rest of the row is unaffected.
    pub conflict_splitting: bool,
    /// Delayed updates (§V-D): commutative adds to designated hot columns
    /// skip conflict detection and fold at write-back via a warp merge.
    pub delayed_update: bool,
}

impl OptFlags {
    /// Everything on (the paper's default configuration).
    pub fn all() -> Self {
        OptFlags {
            warp_division: true,
            dynamic_buckets: true,
            logical_reordering: true,
            conflict_splitting: true,
            delayed_update: true,
        }
    }

    /// Everything off (the unenhanced baseline of Fig. 6b).
    pub fn none() -> Self {
        OptFlags {
            warp_division: false,
            dynamic_buckets: false,
            logical_reordering: false,
            conflict_splitting: false,
            delayed_update: false,
        }
    }

    /// The high-contention suite only (Table VI's "has optimization" axis
    /// toggles these three together).
    pub fn with_contention_suite(mut self, on: bool) -> Self {
        self.logical_reordering = on;
        self.conflict_splitting = on;
        self.delayed_update = on;
        self
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        Self::all()
    }
}

/// How results return to the host after each batch (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Only the read/write sets and the conflict-flag table are shipped
    /// back (the paper's recommended low-volume mode; its overhead is the
    /// subject of Table V).
    #[default]
    RwSet,
    /// Periodically ship full snapshot deltas at a user-defined interval,
    /// expressed here as bytes per batch.
    Interval {
        /// Bytes of snapshot shipped per batch.
        bytes_per_batch: u64,
    },
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct LtpgConfig {
    /// Optimization toggles.
    pub opts: OptFlags,
    /// Simulated device setup (warp size, memory mode, host parallelism).
    pub device: DeviceConfig,
    /// Result synchronization mode.
    pub sync: SyncMode,
    /// Largest batch the engine will see — sizes the conflict log.
    pub max_batch: usize,
    /// Columns that are *always* maintained commutatively (deterministic
    /// sequencer columns such as TPC-C's `D_NEXT_O_ID`). Independent of
    /// the `delayed_update` flag.
    pub commutative_cols: HashSet<(TableId, ColId)>,
    /// Hot columns covered by conflict splitting + delayed update when
    /// those optimizations are on (TPC-C: `W_YTD`, `D_YTD`).
    pub delayed_cols: HashSet<(TableId, ColId)>,
    /// Tables the operator pre-marks as popular (the engine also detects
    /// popularity at run time from `E = T/D`).
    pub premarked_popular: HashSet<TableId>,
    /// Estimated data accesses per transaction, used to size conflict-log
    /// hash tables before the first batch.
    pub est_accesses_per_txn: usize,
}

impl LtpgConfig {
    /// A configuration with the given optimization flags and defaults for
    /// everything else.
    pub fn with_opts(opts: OptFlags) -> Self {
        LtpgConfig { opts, ..LtpgConfig::default() }
    }

    /// Is this (table, column) treated commutatively for the *current*
    /// flags? (Always-commutative sequencers, plus delayed columns when
    /// the delayed-update optimization is on.)
    pub fn is_commutative(&self, table: TableId, col: ColId) -> bool {
        self.commutative_cols.contains(&(table, col))
            || (self.opts.delayed_update && self.delayed_cols.contains(&(table, col)))
    }

    /// Is this column routed to a dedicated split conflict log?
    pub fn is_split(&self, table: TableId, col: ColId) -> bool {
        self.opts.conflict_splitting && self.delayed_cols.contains(&(table, col))
    }
}

impl Default for LtpgConfig {
    fn default() -> Self {
        LtpgConfig {
            opts: OptFlags::all(),
            device: DeviceConfig::default(),
            sync: SyncMode::default(),
            max_batch: 1 << 14,
            commutative_cols: HashSet::new(),
            delayed_cols: HashSet::new(),
            premarked_popular: HashSet::new(),
            est_accesses_per_txn: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_presets() {
        assert!(OptFlags::all().delayed_update);
        assert!(!OptFlags::none().warp_division);
        let partial = OptFlags::all().with_contention_suite(false);
        assert!(partial.warp_division && partial.dynamic_buckets);
        assert!(!partial.logical_reordering && !partial.delayed_update && !partial.conflict_splitting);
    }

    #[test]
    fn commutativity_respects_flags() {
        let mut cfg = LtpgConfig::default();
        let cell = (TableId(1), ColId(2));
        cfg.delayed_cols.insert(cell);
        assert!(cfg.is_commutative(cell.0, cell.1));
        cfg.opts.delayed_update = false;
        assert!(!cfg.is_commutative(cell.0, cell.1));
        // Sequencer columns stay commutative regardless.
        cfg.commutative_cols.insert(cell);
        assert!(cfg.is_commutative(cell.0, cell.1));
    }

    #[test]
    fn split_routing_requires_flag() {
        let mut cfg = LtpgConfig::default();
        let cell = (TableId(0), ColId(0));
        cfg.delayed_cols.insert(cell);
        assert!(cfg.is_split(cell.0, cell.1));
        cfg.opts.conflict_splitting = false;
        assert!(!cfg.is_split(cell.0, cell.1));
    }
}
