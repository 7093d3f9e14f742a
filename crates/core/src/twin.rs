//! The CPU twin: LTPG's three phases run serially on the host.
//!
//! LTPG's commit decision is a pure function of the pre-batch snapshot,
//! the batch and its TIDs, so a serial executor that derives the same
//! conflict-flag words can take over from a lost device and keep producing
//! the same history. [`CpuTwin`] is that executor, for both servers:
//! `LtpgServer` degrades onto it unscoped (through [`BatchEngine`]), and
//! the sharded server installs one per degraded shard, scoped by an
//! [`ExecScope`] so it registers, detects and writes back only the cells
//! its shard owns while still executing every transaction of its
//! sub-batch in full (remote rows resolve through the scope's remote
//! view).
//!
//! The twin mirrors the engine's split-phase protocol: [`CpuTwin::prepare`]
//! executes, registers and detects against the snapshot; the caller may
//! read and OR-merge the flag words ([`CpuPrepared::flag_word`] /
//! [`CpuPrepared::set_flag_word`]); [`CpuTwin::finish`] applies the commit
//! rule and writes back. Staging, the cell walk, the detection rule and the
//! commit rule are the engine's own ([`stage_effects`],
//! [`for_each_cell_access`], [`crate::CellAccess::conflict_flags`],
//! [`commit_decision`]); only the conflict log differs — exact `BTreeMap`
//! min-TID cells in place of hashed buckets. The maps never run out of room, so the twin never
//! raises `LOG_FULL`: under extreme load the GPU log can force-abort
//! transactions the twin would admit (see DESIGN.md for that capacity
//! caveat). Workloads below that capacity decide identically.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use ltpg_baselines::CpuCostModel;
use ltpg_storage::{ColId, Database, TableError, TableId};
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{execute_speculative, execute_speculative_on, Mutation, TxnEffects};
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::LtpgConfig;
use crate::engine::{
    commit_decision, flag, for_each_cell_access, stage_effects, AccessKind, ExecScope, LogCell,
    ScopedStore, Staged,
};

/// Exact min-TID maps standing in for the GPU conflict log, keyed by the
/// same log cells.
#[derive(Default)]
struct MinTidLog {
    read_min: BTreeMap<(TableId, LogCell), u64>,
    write_min: BTreeMap<(TableId, LogCell), u64>,
}

/// Record `tid` at `k`, keeping the minimum.
fn note_min(map: &mut BTreeMap<(TableId, LogCell), u64>, k: (TableId, LogCell), tid: u64) {
    map.entry(k).and_modify(|m| *m = (*m).min(tid)).or_insert(tid);
}

/// Per-transaction result of the twin's execute phase.
struct ExecOutcome {
    normal: Vec<Mutation>,
    delayed: Vec<(TableId, ColId, i64, i64)>,
    effects: TxnEffects,
}

/// State carried between [`CpuTwin::prepare`] and [`CpuTwin::finish`] —
/// the CPU analogue of [`crate::PreparedBatch`].
pub struct CpuPrepared {
    outcomes: Vec<Option<ExecOutcome>>,
    flags: Vec<u32>,
    /// Simulated prepare time: two phase barriers plus per-op execute and
    /// detect work spread over the worker pool.
    prep_ns: f64,
    wall_start: Instant,
}

impl CpuPrepared {
    /// Conflict-flag word of transaction `i` (batch order). See [`flag`]
    /// for the bit set.
    pub fn flag_word(&self, i: usize) -> u32 {
        self.flags[i]
    }

    /// Overwrite the flag word of transaction `i` with the cross-shard
    /// merged word.
    pub fn set_flag_word(&mut self, i: usize, word: u32) {
        self.flags[i] = word;
    }

    /// Simulated nanoseconds of the prepare phase.
    pub fn sim_ns(&self) -> f64 {
        self.prep_ns
    }
}

/// Serial executor producing LTPG-identical flag words and commit
/// decisions.
pub struct CpuTwin {
    db: Database,
    cfg: LtpgConfig,
    cost: CpuCostModel,
    /// Tables containing at least one commutatively-maintained column
    /// (union of both column sets, independent of the flag — the engine's
    /// delete force-abort rule).
    commutative_tables: HashSet<TableId>,
}

impl CpuTwin {
    /// A twin over `db` (the whole database, or one shard's slice) with
    /// the engine configuration it stands in for.
    pub fn new(db: Database, cfg: LtpgConfig) -> Self {
        let commutative_tables = cfg
            .commutative_cols
            .iter()
            .chain(cfg.delayed_cols.iter())
            .map(|&(t, _)| t)
            .collect();
        CpuTwin { db, cfg, cost: CpuCostModel::xeon30(), commutative_tables }
    }

    /// Consume the twin, returning its database.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Move the database out, leaving the twin empty — for callers that
    /// hand the live state to a successor executor in place.
    pub fn take_database(&mut self) -> Database {
        std::mem::take(&mut self.db)
    }

    /// Execute + register + detect the batch against the snapshot (no
    /// database mutation). With a scope, remote reads resolve through
    /// `scope.remote` and registration/detection cover only owned cells.
    pub fn prepare(&mut self, batch: &Batch, scope: Option<&ExecScope<'_>>) -> CpuPrepared {
        let wall_start = Instant::now();
        let n = batch.len();
        let scoped_store =
            scope.and_then(|s| s.remote).map(|remote| ScopedStore { local: &self.db, remote });
        let mut flags = vec![0u32; n];
        let mut outcomes: Vec<Option<ExecOutcome>> = Vec::with_capacity(n);
        let mut log = MinTidLog::default();
        let mut work_ops = 0u64;

        // ---- Execute + min-TID registration (scoped). ----
        for (idx, txn) in batch.txns.iter().enumerate() {
            work_ops += txn.ops.len() as u64;
            let speculated = match &scoped_store {
                Some(store) => execute_speculative_on(store, txn),
                None => execute_speculative(&self.db, txn),
            };
            let fx = match speculated {
                Err(_) => {
                    flags[idx] |= flag::USER;
                    outcomes.push(None);
                    continue;
                }
                Ok(fx) => fx,
            };
            let tid = txn.tid.0;
            let Staged { normal, delayed, forced } =
                stage_effects(&self.cfg, &self.commutative_tables, &fx);
            if forced {
                flags[idx] |= flag::FORCED;
                outcomes.push(Some(ExecOutcome {
                    normal: Vec::new(),
                    delayed: Vec::new(),
                    effects: fx,
                }));
                continue;
            }
            for_each_cell_access(&self.db, &fx, &normal, |a| {
                if !a.owned_by(scope) {
                    return;
                }
                let k = (a.table, a.cell);
                if a.kind != AccessKind::Write {
                    note_min(&mut log.read_min, k, tid);
                }
                if a.kind != AccessKind::Read {
                    note_min(&mut log.write_min, k, tid);
                }
            });
            outcomes.push(Some(ExecOutcome { normal, delayed, effects: fx }));
        }

        // ---- Conflict detection over owned cells. ----
        for (idx, out) in outcomes.iter().enumerate() {
            let Some(out) = out else { continue };
            if flags[idx] & (flag::USER | flag::FORCED) != 0 {
                continue;
            }
            let tid = batch.txns[idx].tid.0;
            for_each_cell_access(&self.db, &out.effects, &out.normal, |a| {
                if a.owned_by(scope) {
                    let k = (a.table, a.cell);
                    flags[idx] |= a.conflict_flags(tid, |writer| {
                        let mins = if writer { &log.write_min } else { &log.read_min };
                        mins.get(&k).copied()
                    });
                }
            });
        }

        // Execute + detect span two of the three phase barriers; per-op
        // work spreads over the worker pool. Reporting only — decisions
        // never depend on simulated time.
        let per_op = self.cost.index_ns + self.cost.read_ns + self.cost.write_ns;
        let work_ns = work_ops as f64 * per_op / self.cost.workers as f64;
        let prep_ns = 2.0 * self.cost.barrier_ns + work_ns;
        CpuPrepared { outcomes, flags, prep_ns, wall_start }
    }

    /// Apply the commit rule over the (possibly merged) flag words and
    /// write back the owned mutations of committing transactions of the
    /// prepared `batch`. Returns the batch report — simulated cost from a
    /// coarse serial-CPU model: three phase barriers (two in prepare, one
    /// here) plus per-op work across the worker pool; reporting only — and
    /// the finish phase's simulated ns.
    pub fn finish(
        &mut self,
        batch: &Batch,
        prepared: CpuPrepared,
        scope: Option<&ExecScope<'_>>,
    ) -> (BatchReport, f64) {
        let CpuPrepared { outcomes, flags, prep_ns, wall_start } = prepared;
        let owns_row = |t: TableId, k: i64| scope.is_none_or(|s| (s.owns_row)(t, k));
        let reordering = self.cfg.opts.logical_reordering;
        let committed: Vec<bool> = flags.iter().map(|&f| commit_decision(reordering, f)).collect();
        let committing = || {
            outcomes
                .iter()
                .zip(&committed)
                .filter_map(|(out, &c)| if c { out.as_ref() } else { None })
        };
        for out in committing() {
            for m in &out.normal {
                match m {
                    Mutation::Update { table, key, .. }
                    | Mutation::Add { table, key, .. }
                    | Mutation::Insert { table, key, .. }
                    | Mutation::Delete { table, key }
                        if !owns_row(*table, *key) => {}
                    Mutation::Update { table, key, col, value } => {
                        let t = self.db.table(*table);
                        if let Some(rid) = t.lookup(*key) {
                            t.set(rid, *col, *value);
                        }
                    }
                    Mutation::Add { table, key, col, delta } => {
                        let t = self.db.table(*table);
                        if let Some(rid) = t.lookup(*key) {
                            t.add(rid, *col, *delta);
                        }
                    }
                    Mutation::Insert { table, key, values } => {
                        match self.db.table(*table).insert(*key, values) {
                            Ok(_) => {}
                            // Mirrors the GPU engine's invariants: a
                            // committed duplicate means WAW detection is
                            // broken; capacity is provisioned at load time.
                            Err(TableError::Duplicate(_)) => unreachable!(
                                "committed duplicate insert: WAW detection failed for key {key}"
                            ),
                            Err(TableError::Full) => panic!(
                                "table {} out of insert headroom",
                                self.db.table(*table).schema().name
                            ),
                        }
                    }
                    Mutation::Delete { table, key } => {
                        self.db.table(*table).delete(*key);
                    }
                }
            }
        }
        // Delayed-update merge over owned cells, in sorted cell order.
        let mut merge_map: HashMap<(TableId, ColId, i64), i64> = HashMap::new();
        for out in committing() {
            for &(t, c, k, d) in &out.delayed {
                if owns_row(t, k) {
                    let e = merge_map.entry((t, c, k)).or_insert(0);
                    *e = e.wrapping_add(d);
                }
            }
        }
        let mut merged: Vec<((TableId, ColId, i64), i64)> = merge_map.into_iter().collect();
        merged.sort_unstable_by_key(|(cell, _)| *cell);
        for ((t, c, k), sum) in merged {
            let table = self.db.table(t);
            if let Some(rid) = table.lookup(k) {
                table.add(rid, c, sum);
            }
        }
        let (mut committed_tids, mut aborted) = (Vec::new(), Vec::new());
        for (txn, &c) in batch.txns.iter().zip(&committed) {
            if c {
                committed_tids.push(txn.tid);
            } else {
                aborted.push(txn.tid);
            }
        }
        let finish_ns = self.cost.barrier_ns;
        let sim_ns = prep_ns + finish_ns;
        let report = BatchReport {
            committed: committed_tids,
            aborted,
            sim_ns,
            critical_path_ns: sim_ns,
            transfer_ns: 0.0,
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SnapshotBatch,
        };
        (report, finish_ns)
    }
}

impl BatchEngine for CpuTwin {
    fn name(&self) -> &'static str {
        "LTPG-CPU-fallback"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let prepared = self.prepare(batch, None);
        self.finish(batch, prepared, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::TableBuilder;
    use ltpg_txn::{IrOp, ProcId, Src, TidGen, Txn};

    fn build_db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..8 {
            db.table(t).insert(k, &[10, 0]).unwrap();
        }
        (db, t)
    }

    /// Column `b` of `t` is a delayed-update hot column; every
    /// optimization (delayed update, logical reordering) is on.
    fn delayed_cfg(t: TableId) -> LtpgConfig {
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        cfg
    }

    fn run(twin: &mut CpuTwin, txns: Vec<Txn>) -> BatchReport {
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut tids);
        twin.execute_batch(&batch)
    }

    #[test]
    fn commutative_adds_all_commit_and_merge() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let txns: Vec<Txn> = (0..16)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Add {
                        table: t,
                        key: Src::Const(3),
                        col: ColId(1),
                        delta: Src::Const(i + 1),
                    }],
                )
            })
            .collect();
        let report = run(&mut twin, txns);
        assert_eq!(report.committed.len(), 16, "delayed adds never conflict");
        let db = twin.into_database();
        let rid = db.table(t).lookup(3).unwrap();
        assert_eq!(db.table(t).get(rid, ColId(1)), (1..=16).sum::<i64>());
    }

    #[test]
    fn forced_aborts_mirror_the_gpu_rules() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let update_hot = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Update { table: t, key: Src::Const(0), col: ColId(1), val: Src::Const(5) }],
        );
        let delete_on_commutative_table =
            Txn::new(ProcId(0), vec![], vec![IrOp::Delete { table: t, key: Src::Const(1) }]);
        let read_hot = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Read { table: t, key: Src::Const(2), col: ColId(1), out: 0 }],
        );
        let plain_update = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Update { table: t, key: Src::Const(4), col: ColId(0), val: Src::Const(9) }],
        );
        let report =
            run(&mut twin, vec![update_hot, delete_on_commutative_table, read_hot, plain_update]);
        assert_eq!(report.aborted.len(), 3, "hot-column update/delete/read are force-aborted");
        assert_eq!(report.committed.len(), 1, "the plain update is unaffected");
    }

    #[test]
    fn waw_aborts_all_but_the_minimum_tid() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let txns: Vec<Txn> = (0..6)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update {
                        table: t,
                        key: Src::Const(5),
                        col: ColId(0),
                        val: Src::Const(100 + i),
                    }],
                )
            })
            .collect();
        let report = run(&mut twin, txns);
        assert_eq!(report.committed.len(), 1);
        assert_eq!(report.aborted.len(), 5);
        let min_tid =
            report.committed.iter().chain(report.aborted.iter()).map(|x| x.0).min().unwrap();
        assert_eq!(report.committed[0].0, min_tid, "deterministic: the minimum TID wins");
    }

    #[test]
    fn raw_rule_depends_on_logical_reordering() {
        // txn A (lower TID) writes key 6; txn B reads key 6 (RAW on B) and
        // writes nothing read by A. With reordering, B commits (no WAR);
        // without, RAW alone aborts B.
        let mk = || {
            vec![
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Update {
                        table: TableId(0),
                        key: Src::Const(6),
                        col: ColId(0),
                        val: Src::Const(1),
                    }],
                ),
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Read { table: TableId(0), key: Src::Const(6), col: ColId(0), out: 0 }],
                ),
            ]
        };
        let (db, t) = build_db();
        let mut reordering = CpuTwin::new(db, delayed_cfg(t));
        assert_eq!(run(&mut reordering, mk()).committed.len(), 2);

        let (db2, t2) = build_db();
        let mut cfg = delayed_cfg(t2);
        cfg.opts.logical_reordering = false;
        let mut strict = CpuTwin::new(db2, cfg);
        let report = run(&mut strict, mk());
        assert_eq!(report.committed.len(), 1, "without reordering, RAW aborts the reader");
    }

    #[test]
    fn duplicate_insert_is_a_user_abort() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let dup = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Insert {
                table: t,
                key: Src::Const(0),
                values: vec![Src::Const(1), Src::Const(1)],
            }],
        );
        let report = run(&mut twin, vec![dup]);
        assert_eq!(report.committed.len(), 0);
        assert_eq!(report.aborted.len(), 1);
    }

    #[test]
    fn unscoped_twin_matches_the_gpu_engine_decisions() {
        let (db, t) = build_db();
        let txns: Vec<Txn> = (0..6)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![
                        IrOp::Read { table: t, key: Src::Const(i), col: ColId(0), out: 0 },
                        IrOp::Update {
                            table: t,
                            key: Src::Const(5),
                            col: ColId(0),
                            val: Src::Const(100 + i),
                        },
                    ],
                )
            })
            .collect();
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut tids);

        let mut gpu = crate::LtpgEngine::new(db.deep_clone(), LtpgConfig::default());
        let gpu_report = gpu.execute_batch_report(&batch);

        let mut cpu = CpuTwin::new(db, LtpgConfig::default());
        let prepared = cpu.prepare(&batch, None);
        let (cpu_report, _) = cpu.finish(&batch, prepared, None);
        assert_eq!(cpu_report.committed, gpu_report.report.committed);
        assert_eq!(
            cpu.database().state_digest(),
            gpu.database().state_digest(),
            "same commits must leave the same state"
        );
    }
}
