#![warn(missing_docs)]

//! # LTPG — Large-batch Transaction Processing on GPUs
//!
//! Reproduction of the LTPG engine (Wei et al., ICDE 2024): a GPU-resident
//! OLTP engine that executes large transaction batches under **deterministic
//! optimistic concurrency control** in three device kernels —
//!
//! 1. **Execute** — every transaction runs speculatively against the
//!    device-resident snapshot, buffering writes in local sets and
//!    registering its TID in the conflict log (`atomicMin` per accessed
//!    row).
//! 2. **Conflict detection** — each access checks the recorded minimum
//!    read/write TIDs for WAW / RAW / WAR conflicts and flags its
//!    transaction.
//! 3. **Write-back** — transactions that pass the deterministic commit rule
//!    apply their local write sets; the rest abort and re-enter a later
//!    batch with their original TID.
//!
//! Unlike GPUTx/GaccO there is **no pre-declared read/write set and no
//! dependency graph** — that is the paper's headline claim, and this crate
//! reproduces the machinery that makes it viable:
//!
//! * [`conflict::ConflictLog`] — dynamic hash buckets (§V-C): popular
//!   tables get `s_u = ⌈E/WS⌉·WS`-slot buckets so TID registration spreads
//!   over slots instead of serializing on one atomic.
//! * adaptive warp division (§V-B) — lanes are ordered so each 32-lane warp
//!   runs one procedure type, eliminating intra-warp divergence.
//! * the high-contention suite (§V-D) — Aria-style logical reordering
//!   (commit iff ¬WAW ∧ (¬RAW ∨ ¬WAR)), row-level conflict-flag splitting
//!   (hot columns get their own conflict log), and delayed updates
//!   (commutative hot-column adds skip conflict detection entirely and
//!   fold at write-back via an intra-warp merge).
//! * [`pipeline::PipelinedRunner`] — batch-to-batch overlap of upload /
//!   compute / download (§V-E), with aborts of batch *n−1* re-entering at
//!   batch *n+2*.
//!
//! The "GPU" is the functional SIMT simulator of [`ltpg_gpu_sim`]; see
//! DESIGN.md for why that substitution preserves the paper's behaviour.
//!
//! ## Quick example
//!
//! ```
//! use ltpg::{LtpgConfig, LtpgEngine};
//! use ltpg_storage::{Database, TableBuilder};
//! use ltpg_txn::{Batch, IrOp, ProcId, Src, TidGen, Txn};
//!
//! let mut db = Database::new();
//! let t = db.add_table(TableBuilder::new("T").column("v").capacity(16).build());
//! db.table(t).insert(1, &[10]).unwrap();
//!
//! let mut engine = LtpgEngine::new(db, LtpgConfig::default());
//! let mut tids = TidGen::new();
//! let txn = Txn::new(
//!     ProcId(0),
//!     vec![],
//!     vec![IrOp::Update { table: t, key: Src::Const(1), col: ltpg_storage::ColId(0), val: Src::Const(42) }],
//! );
//! let batch = Batch::assemble(vec![], vec![txn], &mut tids);
//! let report = engine.execute_batch_report(&batch);
//! assert_eq!(report.report.committed.len(), 1);
//! ```

pub mod adaptive;
pub mod config;
pub mod conflict;
pub mod engine;
pub mod exec;
pub mod faults;
pub mod pipeline;
pub mod recovery;
pub mod server;
pub mod stats;
pub mod twin;
mod util;

pub use adaptive::{AdaptiveEngine, AdaptivePolicy, BatchProfile, EngineChoice};
pub use config::{LtpgConfig, OptFlags, SyncMode};
pub use conflict::ConflictLog;
pub use engine::{
    cell_key, commit_decision, flag, for_each_cell_access, stage_effects, AccessKind, CellAccess,
    ExecScope, LogCell, LtpgEngine, PreparedBatch, Staged,
};
pub use exec::Executor;
pub use faults::{
    FaultHorizon, FaultInjector, FaultPlan, PromotionCrashpoint, ReplicaChaos, WalDamage,
    WalDamageReport,
};
pub use pipeline::{PipelineOutcome, PipelinedRunner};
#[cfg(feature = "qa-inject")]
pub use engine::qa_inject;
pub use recovery::{
    DurabilityManager, RecoveryError, RecoveryOptions, RecoveryOutcome, RecoveryStats, TailPolicy,
};
pub use server::{
    AdmissionQueue, BatchSummary, LtpgServer, ServerConfig, ServerError, ServerStats,
};
pub use stats::{FaultStats, LtpgBatchStats};
pub use twin::{CpuPrepared, CpuTwin};
