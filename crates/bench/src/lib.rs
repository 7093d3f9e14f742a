#![warn(missing_docs)]

//! # ltpg-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index), plus Criterion micro-benchmarks. This library holds
//! the shared machinery: the engine factory over all nine systems, the
//! batch-stream runner with abort requeuing, scale handling, and result
//! printing/serialization.
//!
//! ## Scales
//!
//! The paper's full grid (64 warehouses, 2¹⁶ batches, 5 000 batches,
//! YCSB at 10⁷ rows) is heavy for a small machine, so every binary runs a
//! **reduced but shape-preserving** grid by default and the full grid with
//! `--full` (or `LTPG_FULL=1`). Reduced runs keep the experiment's axes
//! and its qualitative outcome; EXPERIMENTS.md records both.

use std::io::Write as _;
use std::time::Instant;

use ltpg::{LtpgConfig, LtpgEngine, OptFlags};
use ltpg_baselines::{
    AriaEngine, BambooEngine, BohmEngine, CalvinEngine, Dbx1000Engine, GaccoEngine, GputxEngine,
    PwvEngine,
};
use ltpg_storage::Database;
use ltpg_txn::{Batch, BatchEngine, TidGen, Txn};
use ltpg_workloads::tpcc::{cols, TpccTables};
use serde::Serialize;

/// The nine systems of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DBx1000 running TicToc.
    Dbx1000,
    /// Bamboo (2PL with early lock release).
    Bamboo,
    /// BOHM (deterministic MVCC).
    Bohm,
    /// PWV (early write visibility).
    Pwv,
    /// Calvin (deterministic locking).
    Calvin,
    /// Aria (deterministic batch OCC).
    Aria,
    /// GPUTx (T-dependency graph on the simulated GPU).
    Gputx,
    /// GaccO (sorted conflict order on the simulated GPU).
    Gacco,
    /// LTPG (this paper).
    Ltpg,
}

impl SystemKind {
    /// All systems, in Table II row order.
    pub const ALL: [SystemKind; 9] = [
        SystemKind::Dbx1000,
        SystemKind::Bamboo,
        SystemKind::Bohm,
        SystemKind::Pwv,
        SystemKind::Calvin,
        SystemKind::Aria,
        SystemKind::Gputx,
        SystemKind::Gacco,
        SystemKind::Ltpg,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Dbx1000 => "DBx1000",
            SystemKind::Bamboo => "Bamboo",
            SystemKind::Bohm => "BOHM",
            SystemKind::Pwv => "PWV",
            SystemKind::Calvin => "Calvin",
            SystemKind::Aria => "Aria",
            SystemKind::Gputx => "GPUTx",
            SystemKind::Gacco => "GaccO",
            SystemKind::Ltpg => "LTPG",
        }
    }

    /// The batch size each system naturally runs at (GPU systems want
    /// device-saturating batches; CPU deterministic systems use small
    /// batches; nondeterministic CPU systems just stream).
    pub fn preferred_batch(self, gpu_batch: usize) -> usize {
        match self {
            SystemKind::Ltpg | SystemKind::Gacco | SystemKind::Gputx => gpu_batch,
            SystemKind::Aria => gpu_batch.min(256),
            SystemKind::Calvin | SystemKind::Bohm | SystemKind::Pwv => gpu_batch.min(1_024),
            SystemKind::Dbx1000 | SystemKind::Bamboo => gpu_batch.min(2_048),
        }
    }
}

/// The LTPG configuration used for TPC-C throughout the harness:
/// `D_NEXT_O_ID` is a sequencer (always commutative); `W_YTD` and `D_YTD`
/// are the designated hot columns for splitting + delayed update; the
/// WAREHOUSE and DISTRICT tables are pre-marked popular.
pub fn ltpg_tpcc_config(tables: &TpccTables, max_batch: usize, opts: OptFlags) -> LtpgConfig {
    let mut cfg = LtpgConfig::with_opts(opts);
    cfg.max_batch = max_batch;
    cfg.est_accesses_per_txn = 12;
    cfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
    cfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    cfg.delayed_cols.insert((tables.district, cols::D_YTD));
    cfg.premarked_popular.insert(tables.warehouse);
    cfg.premarked_popular.insert(tables.district);
    cfg
}

/// Build an engine of `kind` over `db` (TPC-C layout).
pub fn build_tpcc_engine(
    kind: SystemKind,
    db: Database,
    tables: &TpccTables,
    max_batch: usize,
) -> Box<dyn BatchEngine> {
    match kind {
        SystemKind::Ltpg => {
            Box::new(LtpgEngine::new(db, ltpg_tpcc_config(tables, max_batch, OptFlags::all())))
        }
        SystemKind::Gacco => Box::new(GaccoEngine::new(db)),
        SystemKind::Gputx => Box::new(GputxEngine::new(db)),
        SystemKind::Aria => Box::new(AriaEngine::new(db)),
        SystemKind::Calvin => Box::new(CalvinEngine::new(db)),
        SystemKind::Bohm => Box::new(BohmEngine::new(db)),
        SystemKind::Pwv => Box::new(PwvEngine::new(db)),
        SystemKind::Dbx1000 => Box::new(Dbx1000Engine::new(db)),
        SystemKind::Bamboo => Box::new(BambooEngine::new(db)),
    }
}

/// Aggregate outcome of running a transaction stream through an engine.
#[derive(Debug, Clone, Serialize)]
pub struct RunOutcome {
    /// Batches executed.
    pub batches: usize,
    /// Fresh transactions admitted.
    pub admitted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Abort events (a transaction may abort several times).
    pub abort_events: u64,
    /// Total simulated time, ns.
    pub sim_ns: f64,
    /// Mean per-batch simulated latency, ns (serial sum of phases).
    pub mean_batch_ns: f64,
    /// Mean per-batch *critical-path* latency, ns: the steady-state cost a
    /// batch adds under phase pipelining. Equals `mean_batch_ns` for
    /// engines without phase overlap; strictly lower for LTPG. Latency
    /// tables/figures report this one to avoid overstating pipelined
    /// latency.
    pub mean_critical_ns: f64,
    /// Mean per-batch transfer latency, ns (GPU engines).
    pub mean_transfer_ns: f64,
    /// Mean per-batch commit rate.
    pub mean_commit_rate: f64,
    /// Host wall-clock for the whole run, ns.
    pub wall_ns: u64,
}

impl RunOutcome {
    /// Committed transactions per second of simulated time.
    pub fn tps(&self) -> f64 {
        if self.sim_ns <= 0.0 {
            0.0
        } else {
            self.committed as f64 / (self.sim_ns * 1e-9)
        }
    }

    /// TPS in the paper's Table II unit (10⁶ TXs/s).
    pub fn mtps(&self) -> f64 {
        self.tps() / 1e6
    }
}

/// Run `batches` batches of `batch_size` through `engine`. Fresh
/// transactions come from `gen`; aborted ones requeue into the next batch
/// with their original TIDs.
pub fn run_stream(
    engine: &mut dyn BatchEngine,
    gen: &mut dyn FnMut(usize) -> Vec<Txn>,
    tids: &mut TidGen,
    batches: usize,
    batch_size: usize,
) -> RunOutcome {
    let wall = Instant::now();
    let mut requeued: Vec<Txn> = Vec::new();
    let mut out = RunOutcome {
        batches,
        admitted: 0,
        committed: 0,
        abort_events: 0,
        sim_ns: 0.0,
        mean_batch_ns: 0.0,
        mean_critical_ns: 0.0,
        mean_transfer_ns: 0.0,
        mean_commit_rate: 0.0,
        wall_ns: 0,
    };
    for _ in 0..batches {
        let fresh_n = batch_size.saturating_sub(requeued.len());
        let fresh = gen(fresh_n);
        out.admitted += fresh.len() as u64;
        let batch = Batch::assemble(std::mem::take(&mut requeued), fresh, tids);
        let report = engine.execute_batch(&batch);
        engine.record_telemetry(ltpg_telemetry::global(), &report);
        out.committed += report.committed.len() as u64;
        out.abort_events += report.aborted.len() as u64;
        out.sim_ns += report.sim_ns;
        out.mean_batch_ns += report.sim_ns;
        out.mean_critical_ns += report.critical_path_ns;
        out.mean_transfer_ns += report.transfer_ns;
        out.mean_commit_rate += report.commit_rate(batch.len());
        requeued = report
            .aborted
            .iter()
            .map(|tid| batch.by_tid(*tid).expect("aborted tid").clone())
            .collect();
    }
    let b = batches.max(1) as f64;
    out.mean_batch_ns /= b;
    out.mean_critical_ns /= b;
    out.mean_transfer_ns /= b;
    out.mean_commit_rate /= b;
    out.wall_ns = wall.elapsed().as_nanos() as u64;
    out
}

/// Whether the paper-scale grid was requested (`--full` or `LTPG_FULL=1`).
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full") || std::env::var("LTPG_FULL").is_ok_and(|v| v == "1")
}

/// Print an aligned table: a header row and data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |row: &[String]| {
        row.iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Result-file stem for a bench binary: smoke runs write to a separate
/// `<base>_smoke` stem so a CI smoke pass can never clobber a committed
/// full-run record under `results/`.
///
/// `results/` is the **single canonical location** for every benchmark
/// artifact. Bench binaries must route all record emission through
/// [`write_json`] (which only writes under `results/`) and must never
/// write a copy at the repository root — a root-level duplicate silently
/// drifts from the canonical record the moment either copy is
/// regenerated, and CI regression guards only ever read `results/`.
pub fn results_name(base: &str, smoke: bool) -> String {
    if smoke {
        format!("{base}_smoke")
    } else {
        base.to_string()
    }
}

/// The per-batch latency a table or figure should quote for `out`, in
/// microseconds: the steady-state *critical-path* cost (what one more
/// batch adds under phase pipelining), not the serial phase sum — see
/// [`RunOutcome::mean_critical_ns`].
pub fn latency_us(out: &RunOutcome) -> f64 {
    out.mean_critical_ns / 1e3
}

/// Write an experiment record as JSON under `results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let body = serde_json::to_string_pretty(value).expect("serialize experiment record");
            let _ = f.write_all(body.as_bytes());
            println!("[results written to {}]", path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_workloads::{TpccConfig, TpccGenerator};

    #[test]
    fn every_system_runs_a_small_tpcc_stream() {
        let cfg = TpccConfig::new(1, 50).with_headroom(4_096);
        let (db0, tables, _gen) = TpccGenerator::new(cfg.clone());
        for kind in SystemKind::ALL {
            let db = db0.deep_clone();
            let mut engine = build_tpcc_engine(kind, db, &tables, 128);
            let mut gen = TpccGenerator::from_parts(cfg.clone(), tables);
            let mut tids = TidGen::new();
            let out = run_stream(
                &mut *engine,
                &mut |n| gen.gen_batch(n),
                &mut tids,
                3,
                64,
            );
            assert!(out.committed > 0, "{} committed nothing", kind.name());
            assert!(out.sim_ns > 0.0, "{} accounted no time", kind.name());
            assert!(
                out.mean_critical_ns > 0.0 && out.mean_critical_ns <= out.mean_batch_ns + 1e-9,
                "{}: critical path must be positive and never exceed the serial sum",
                kind.name()
            );
            assert!(
                out.committed + out.abort_events >= out.admitted,
                "{} lost transactions",
                kind.name()
            );
        }
    }

    #[test]
    fn smoke_results_use_a_separate_stem() {
        assert_eq!(results_name("shard_scaling", false), "shard_scaling");
        assert_eq!(results_name("shard_scaling", true), "shard_scaling_smoke");
        assert_eq!(results_name("BENCH_front", true), "BENCH_front_smoke");
    }

    #[test]
    fn quoted_latency_is_the_critical_path() {
        let out = RunOutcome {
            batches: 1,
            admitted: 0,
            committed: 0,
            abort_events: 0,
            sim_ns: 0.0,
            mean_batch_ns: 9_000.0,
            mean_critical_ns: 5_000.0,
            mean_transfer_ns: 0.0,
            mean_commit_rate: 0.0,
            wall_ns: 0,
        };
        assert!((latency_us(&out) - 5.0).abs() < 1e-12, "must quote critical path, not serial sum");
    }

    #[test]
    fn preferred_batches_cap_cpu_engines() {
        assert_eq!(SystemKind::Ltpg.preferred_batch(1 << 14), 1 << 14);
        assert_eq!(SystemKind::Aria.preferred_batch(1 << 14), 256);
        assert_eq!(SystemKind::Dbx1000.preferred_batch(1 << 14), 2_048);
    }
}
