//! Canonical metric names.
//!
//! Every crate that reports a quantity refers to it through these constants
//! so the JSONL export keys stay consistent across the stack and tests can
//! assert on them without string drift. The prefix encodes the layer that
//! owns the metric: `gpu.*` (simulated device), `ltpg.*` (the LTPG engine),
//! `server.*` (tick/retry/degradation loop), `wal.*` (durability), `faults.*`
//! (the dashboard-alertable fault counters mirrored by `FaultStats`) and
//! `engine.<name>.*` (the per-`BatchEngine` hook, including CPU baselines).

// --- simulated device -------------------------------------------------------

/// Counter: kernel launches completed on the simulated device.
pub const GPU_KERNEL_LAUNCHES: &str = "gpu.kernel.launches";
/// Histogram: simulated nanoseconds per kernel launch.
pub const GPU_KERNEL_NS: &str = "gpu.kernel.ns";
/// Counter: bytes copied host-to-device.
pub const GPU_BYTES_H2D: &str = "gpu.bytes_h2d";
/// Counter: bytes copied device-to-host.
pub const GPU_BYTES_D2H: &str = "gpu.bytes_d2h";
/// Histogram: simulated nanoseconds per transfer (either direction).
pub const GPU_TRANSFER_NS: &str = "gpu.transfer.ns";
/// Counter: global-memory atomic operations executed by kernels.
pub const GPU_ATOMIC_OPS: &str = "gpu.atomic.ops";
/// Counter: cumulative atomic serialization depth (conflict stalls).
pub const GPU_ATOMIC_SERIAL_DEPTH: &str = "gpu.atomic.serial_depth";
/// Counter: warps that diverged at least once during a launch.
pub const GPU_DIVERGENT_WARPS: &str = "gpu.divergent_warps";
/// Counter: demand page faults (unified-memory oversubscription).
pub const GPU_PAGE_FAULTS: &str = "gpu.page_faults";
/// Counter: explicit device synchronizations.
pub const GPU_SYNCS: &str = "gpu.syncs";

// --- LTPG engine ------------------------------------------------------------

/// Histogram: simulated ns spent uploading a batch (H2D).
pub const LTPG_PHASE_H2D_NS: &str = "ltpg.phase.h2d_ns";
/// Histogram: simulated ns in the execute phase.
pub const LTPG_PHASE_EXECUTE_NS: &str = "ltpg.phase.execute_ns";
/// Histogram: simulated ns in the conflict-detection phase.
pub const LTPG_PHASE_DETECT_NS: &str = "ltpg.phase.detect_ns";
/// Histogram: simulated ns in the writeback phase.
pub const LTPG_PHASE_WRITEBACK_NS: &str = "ltpg.phase.writeback_ns";
/// Histogram: simulated ns in device synchronization between phases.
pub const LTPG_PHASE_SYNC_NS: &str = "ltpg.phase.sync_ns";
/// Histogram: simulated ns spent downloading results (D2H).
pub const LTPG_PHASE_D2H_NS: &str = "ltpg.phase.d2h_ns";
/// Histogram: simulated ns spent in per-batch device allocation
/// (cudaMalloc-class). Zero in steady state once arena reuse is on.
pub const LTPG_PHASE_ALLOC_NS: &str = "ltpg.phase.alloc_ns";
/// Counter: per-batch host/device buffer allocations that were *not*
/// absorbed by the engine's reusable arena (watermark growth events).
/// Flat across steady-state ticks when arena reuse is on.
pub const LTPG_ALLOC_EVENTS: &str = "ltpg.alloc_events";
/// Histogram: naive serial per-batch latency (sum of all phases).
pub const LTPG_BATCH_TOTAL_NS: &str = "ltpg.batch.total_ns";
/// Histogram: pipelined per-batch critical-path latency.
pub const LTPG_BATCH_CRITICAL_NS: &str = "ltpg.batch.critical_ns";
/// Counter: bytes uploaded per batch, accumulated.
pub const LTPG_BYTES_H2D: &str = "ltpg.bytes_h2d";
/// Counter: bytes downloaded per batch, accumulated.
pub const LTPG_BYTES_D2H: &str = "ltpg.bytes_d2h";
/// Counter: delayed (commutative) operations merged at writeback.
pub const LTPG_DELAYED_OPS_APPLIED: &str = "ltpg.delayed_ops_applied";
/// Gauge: bytes currently allocated to the device-resident conflict log.
pub const LTPG_CONFLICT_LOG_BYTES: &str = "ltpg.conflict_log.bytes";
/// Counter: conflict-log bucket registrations (host-observed accesses).
pub const LTPG_CONFLICT_LOG_ACCESSES: &str = "ltpg.conflict_log.accesses";

// --- abort-reason taxonomy --------------------------------------------------

/// Counter: transactions aborted because they lost a WAW/RAW race.
pub const ABORT_CONFLICT_LOSER: &str = "ltpg.aborts.conflict_loser";
/// Counter: transactions aborted because the conflict log ran out of slots.
pub const ABORT_LOG_EXHAUSTED: &str = "ltpg.aborts.log_exhausted";
/// Counter: transactions force-aborted for reading a commutatively-delayed value.
pub const ABORT_DELAYED_READ: &str = "ltpg.aborts.delayed_read";
/// Counter: transactions whose RAW∧WAR pattern defeated logical reordering.
pub const ABORT_REORDER_REJECTED: &str = "ltpg.aborts.reorder_rejected";
/// Counter: transactions aborted by user logic (explicit abort).
pub const ABORT_USER: &str = "ltpg.aborts.user";

/// All abort-reason counters, in export order. Handy for summaries and tests.
pub const ABORT_REASONS: [&str; 5] = [
    ABORT_CONFLICT_LOSER,
    ABORT_LOG_EXHAUSTED,
    ABORT_DELAYED_READ,
    ABORT_REORDER_REJECTED,
    ABORT_USER,
];

// --- server -----------------------------------------------------------------

/// Counter: server ticks that executed a batch.
pub const SERVER_TICKS: &str = "server.ticks";
/// Counter: batches executed by the server (incl. degraded ones).
pub const SERVER_BATCHES: &str = "server.batches";
/// Counter: transactions committed by the server.
pub const SERVER_COMMITTED: &str = "server.committed";
/// Counter: abort events observed by the server.
pub const SERVER_ABORT_EVENTS: &str = "server.abort_events";
/// Histogram: per-batch simulated latency as observed by the server
/// (includes retry backoff pauses).
pub const SERVER_BATCH_NS: &str = "server.batch_ns";
/// Gauge: transactions admitted but not yet executed.
pub const SERVER_PENDING: &str = "server.pending";
/// Counter: checkpoints taken.
pub const SERVER_CHECKPOINTS: &str = "server.checkpoints";

// --- durability -------------------------------------------------------------

/// Counter: frames appended to the write-ahead log.
pub const WAL_FRAMES_APPENDED: &str = "wal.frames_appended";
/// Counter: bytes appended to the write-ahead log.
pub const WAL_BYTES_APPENDED: &str = "wal.bytes_appended";
/// Counter: frames replayed during crash recovery.
pub const WAL_FRAMES_REPLAYED: &str = "wal.recovery.frames_replayed";
/// Counter: torn-tail bytes truncated during crash recovery.
pub const WAL_BYTES_TRUNCATED: &str = "wal.recovery.bytes_truncated";

// --- fault counters (mirrored by `FaultStats`) ------------------------------

/// Counter: transient device faults absorbed by retrying (uploads, downloads
/// and whole-attempt retries alike).
pub const FAULT_TRANSIENT_RETRIES: &str = "faults.transient_retries";
/// Counter: simulated nanoseconds spent in retry backoff (stored as integer ns).
pub const FAULT_BACKOFF_NS: &str = "faults.backoff_ns";
/// Counter: simulated nanoseconds of extra transfer time charged by in-place
/// retries of transient download faults (the wasted PCIe round trips). Like
/// [`FAULT_BACKOFF_NS`] this is fault-induced delay: consumers that need a
/// fault-invariant view of engine time (the ingestion front-end's steady
/// clock) subtract both.
pub const FAULT_RETRY_PENALTY_NS: &str = "faults.retry_penalty_ns";
/// Counter: torn WAL frames dropped during degraded recovery.
pub const FAULT_FRAMES_TRUNCATED: &str = "faults.frames_truncated";
/// Counter: bytes truncated from the WAL during degraded recovery.
pub const FAULT_BYTES_TRUNCATED: &str = "faults.bytes_truncated";
/// Counter: graceful degradations to the CPU twin (`ltpg::CpuTwin`).
pub const FAULT_FALLBACK_ACTIVATIONS: &str = "faults.fallback_activations";

/// All fault counters, in export order.
pub const FAULT_COUNTERS: [&str; 6] = [
    FAULT_TRANSIENT_RETRIES,
    FAULT_BACKOFF_NS,
    FAULT_RETRY_PENALTY_NS,
    FAULT_FRAMES_TRUNCATED,
    FAULT_BYTES_TRUNCATED,
    FAULT_FALLBACK_ACTIVATIONS,
];

// --- differential QA harness (`ltpg-qa`) ------------------------------------

/// Counter: fuzz cases generated and executed.
pub const QA_CASES: &str = "qa.cases";
/// Counter: transactions generated across all fuzz cases.
pub const QA_TXNS: &str = "qa.txns";
/// Counter: cases whose execution paths diverged (before shrinking).
pub const QA_DIVERGENCES: &str = "qa.divergences";
/// Counter: shrink candidates evaluated while minimizing divergent cases.
pub const QA_SHRINK_STEPS: &str = "qa.shrink.steps";
/// Counter: minimized repro files written.
pub const QA_REPROS_WRITTEN: &str = "qa.repros_written";

// --- sharded multi-device execution -----------------------------------------

/// Counter: sharded-server ticks that executed a batch.
pub const SHARD_TICKS: &str = "shard.ticks";
/// Counter: transactions routed to exactly one shard.
pub const SHARD_SINGLE_TXNS: &str = "shard.route.single_txns";
/// Counter: transactions routed to several (but not all) shards.
pub const SHARD_CROSS_TXNS: &str = "shard.route.cross_txns";
/// Counter: transactions broadcast to every shard (undeclarable access sets
/// or writes to replicated tables).
pub const SHARD_BROADCAST_TXNS: &str = "shard.route.broadcast_txns";
/// Histogram: per-tick simulated ns a shard spent waiting at the merge
/// barrier for the slowest participant (max prepare time minus its own).
pub const SHARD_MERGE_STALL_NS: &str = "shard.merge.stall_ns";
/// Histogram: per-tick simulated critical-path ns across all shards
/// (slowest shard's prepare + finish).
pub const SHARD_TICK_NS: &str = "shard.tick_ns";
/// Gauge: shards currently degraded to the CPU twin.
pub const SHARD_DEGRADED: &str = "shard.degraded";

// --- ingestion front-end (`ltpg-front`) --------------------------------------

/// Counter: transactions offered to the front-end by clients (open-loop
/// arrivals, before any admission decision).
pub const FRONT_SUBMITTED: &str = "front.submitted";
/// Counter: transactions admitted past rate limiting and queue bounds.
pub const FRONT_ADMITTED: &str = "front.admitted";
/// Counter: admitted transactions committed by the engine (each once).
pub const FRONT_COMMITTED: &str = "front.committed";
/// Counter: transactions shed by a per-client rate limit.
pub const FRONT_SHED_RATE_LIMITED: &str = "front.shed.rate_limited";
/// Counter: transactions shed because the submitting client's bounded
/// channel was full — the per-client backpressure signal.
pub const FRONT_SHED_BACKPRESSURE: &str = "front.shed.backpressure";
/// Counter: transactions shed because the global unsealed-queue bound was
/// reached (aggregate overload, regardless of client).
pub const FRONT_SHED_QUEUE_FULL: &str = "front.shed.queue_full";
/// Counter: queued transactions shed after waiting longer than the queue
/// timeout without being sealed into a batch.
pub const FRONT_SHED_TIMED_OUT: &str = "front.shed.timed_out";
/// Counter: batches sealed (size-, deadline- and drain-triggered alike).
pub const FRONT_BATCHES_SEALED: &str = "front.batches_sealed";
/// Counter: batches sealed because they reached the configured size.
pub const FRONT_SEALS_SIZE: &str = "front.seal.size";
/// Counter: batches sealed because the oldest member hit the deadline.
pub const FRONT_SEALS_DEADLINE: &str = "front.seal.deadline";
/// Counter: batches force-sealed while draining the pipeline at shutdown.
pub const FRONT_SEALS_DRAIN: &str = "front.seal.drain";
/// Histogram: transactions per sealed batch (fill level).
pub const FRONT_BATCH_FILL: &str = "front.batch_fill";
/// Histogram: simulated ns a transaction waited between arrival and its
/// batch sealing.
pub const FRONT_QUEUE_WAIT_NS: &str = "front.queue_wait_ns";
/// Histogram: simulated ns from a transaction's arrival to its commit
/// (end-to-end latency through streamer → batcher → engine, including
/// abort/re-execution rounds).
pub const FRONT_E2E_NS: &str = "front.e2e_ns";
/// Gauge: transactions queued in the front-end (client channels plus the
/// open batch), i.e. admitted but not yet dispatched.
pub const FRONT_QUEUE_DEPTH: &str = "front.queue_depth";

/// Every shed-path counter, in export order. The conservation invariant
/// extends over these: `committed + pending + Σ shed == submitted`.
pub const FRONT_SHED_COUNTERS: [&str; 4] = [
    FRONT_SHED_RATE_LIMITED,
    FRONT_SHED_BACKPRESSURE,
    FRONT_SHED_QUEUE_FULL,
    FRONT_SHED_TIMED_OUT,
];

// --- competing schedulers (`ltpg-baselines`) ---------------------------------

/// Histogram: optimistic-execution waves Block-STM needed per batch (1 =
/// everything validated on the first try).
pub const BLOCKSTM_WAVES: &str = "blockstm.waves";
/// Counter: transaction-wave deferrals — a transaction whose reads were
/// invalidated by an earlier transaction's writes and had to re-execute in
/// a later wave. The per-batch deferral fraction is the scheduler's
/// RAW-pressure signal (blind writes never defer).
pub const BLOCKSTM_DEFERRALS: &str = "blockstm.deferrals";
/// Histogram: conflict-graph depth (layer count) per address-graph batch
/// (1 = the whole batch ran as a single parallel layer).
pub const ADDRGRAPH_LAYERS: &str = "addrgraph.layers";
/// Counter: transactions with undeclarable access sets that the
/// address-graph scheduler ran as serial barrier layers.
pub const ADDRGRAPH_UNDECLARED: &str = "addrgraph.undeclared_txns";

// --- adaptive concurrency control (`ltpg::AdaptiveEngine`) -------------------

/// Counter: batches the adaptive policy routed to the LTPG engine.
pub const ADAPTIVE_CHOICE_LTPG: &str = "adaptive.choice.ltpg";
/// Counter: batches the adaptive policy routed to Block-STM.
pub const ADAPTIVE_CHOICE_BLOCKSTM: &str = "adaptive.choice.blockstm";
/// Counter: batches the adaptive policy routed to the address-graph
/// scheduler.
pub const ADAPTIVE_CHOICE_ADDRGRAPH: &str = "adaptive.choice.addrgraph";
/// Counter: batches where the adaptive policy picked a different engine
/// than the previous batch.
pub const ADAPTIVE_SWITCHES: &str = "adaptive.switches";

/// All adaptive per-engine choice counters, in export order.
pub const ADAPTIVE_CHOICES: [&str; 3] =
    [ADAPTIVE_CHOICE_LTPG, ADAPTIVE_CHOICE_BLOCKSTM, ADAPTIVE_CHOICE_ADDRGRAPH];

// --- elastic sharding (`ltpg-shard` rebalance) -------------------------------

/// Counter: rebalance plans applied at a cutover boundary.
pub const REBALANCE_PLANS_APPLIED: &str = "rebalance.plans_applied";
/// Counter: range splits executed (one per Split op applied).
pub const REBALANCE_SPLITS: &str = "rebalance.splits";
/// Counter: range merges executed (one per Merge op applied).
pub const REBALANCE_MERGES: &str = "rebalance.merges";
/// Counter: range moves executed (one per Move op applied).
pub const REBALANCE_MOVES: &str = "rebalance.moves";
/// Counter: wholesale rule replacements executed (one per SetRule op).
pub const REBALANCE_SET_RULES: &str = "rebalance.set_rules";
/// Counter: rows copied between shard slices at cutover boundaries.
pub const REBALANCE_ROWS_MIGRATED: &str = "rebalance.rows_migrated";
/// Counter: plans emitted by the load-driven planner (scheduled plans,
/// whether or not they have cut over yet).
pub const REBALANCE_PLANNER_EMITTED: &str = "rebalance.planner.emitted";
/// Histogram: wall-clock ns spent applying one cutover (slice rebuild,
/// row migration, engine reinstall, checkpoint, replica re-attach).
pub const REBALANCE_CUTOVER_NS: &str = "rebalance.cutover_ns";
/// Gauge: 1 while a plan is scheduled but has not cut over, else 0.
pub const REBALANCE_PENDING: &str = "rebalance.pending";

// --- replication & failover (`ltpg-replica`) --------------------------------

/// Counter: standbys promoted to primary (failover cutovers).
pub const REPLICA_PROMOTIONS: &str = "replica.promotions";
/// Counter: primaries demoted out of service (device loss or health
/// verdict) plus standby rows dropped as dead.
pub const REPLICA_DEMOTIONS: &str = "replica.demotions";
/// Counter: recovered devices re-promoted from the CPU twin back to a GPU
/// engine, or re-enlisted into the standby pool.
pub const REPLICA_REPROMOTIONS: &str = "replica.repromotions";
/// Counter: batches applied to standbys by catch-up replay (both the
/// steady-state trickle and promotion-time catch-up).
pub const REPLICA_CATCHUP_BATCHES: &str = "replica.catchup_batches";
/// Counter: heartbeat probes that went unanswered (dropped or dead).
pub const REPLICA_HEARTBEAT_MISSES: &str = "replica.heartbeat.misses";
/// Histogram: simulated ns from loss detection to a promoted standby
/// ready to serve (catch-up replay included).
pub const REPLICA_FAILOVER_NS: &str = "replica.failover_ns";
/// Histogram: per-observation standby lag behind the logged tail, in
/// batches (recorded once per standby per tick).
pub const REPLICA_LAG_BATCHES: &str = "replica.lag_batches";
/// Gauge: standby rows currently alive and promotable.
pub const REPLICA_STANDBYS: &str = "replica.standbys";

/// Per-standby lag gauge name: `replica.standby.<row>.lag_batches`.
/// Dynamic (allocated) names are supported by the registry; this helper
/// keeps the format in one place.
pub fn replica_standby_lag_gauge(row: usize) -> String {
    format!("replica.standby.{row}.lag_batches")
}
