//! Closed-loop workloads (`tpcc-mix50`, `ycsb-b-lowskew`): one
//! `LtpgServer`, its inbox topped up to one full batch before every tick.
//!
//! The untraced run drives `LtpgServer::submit_all` / `try_tick`. The
//! traced run drives the same tick sequence through the crates' public
//! calls (`Batch::assemble` → `DurabilityManager::log_batch` →
//! `LtpgEngine::try_prepare_batch` → `try_finish_batch` → requeue with the
//! server's delay) and times each call as a span. Both must produce the
//! same per-tick commit sets and final state digest.

use std::collections::VecDeque;
use std::sync::Arc;

use ltpg::{DurabilityManager, LtpgConfig, LtpgEngine, LtpgServer, OptFlags, ServerConfig};
use ltpg_bench::ltpg_tpcc_config;
use ltpg_storage::Database;
use ltpg_telemetry::Registry;
use ltpg_txn::oracle::check_snapshot_serializable;
use ltpg_txn::{Batch, BatchEngine, Tid, TidGen, Txn};
use ltpg_workloads::tpcc::check_invariants;
use ltpg_workloads::{
    TpccConfig, TpccGenerator, TpccTables, YcsbConfig, YcsbGenerator, YcsbWorkload,
};

use crate::measure::{
    fnv, quantile, scaled_wall_metrics, EngineCounts, Gate, Metric, Reference, Spans, WallClock,
};
use crate::{Outcome, RunArgs, SETUP_REPS};

/// Transactions per batch (the server default).
pub const BATCH: usize = 1 << 12;
/// TPC-C warehouses.
pub const TPCC_WAREHOUSES: i64 = 8;
/// TPC-C NewOrder share, percent (the rest is Payment).
pub const TPCC_NEWORDER_PCT: u8 = 50;
/// Rows of insert headroom for ORDERS / NEW_ORDER and HISTORY (ORDER_LINE
/// gets 15x). NewOrder inserts one ORDERS row and Payment one HISTORY row,
/// so at a 50/50 mix a run may submit up to 1.9x this many transactions:
/// every insert fits however fast the program gets, and a faster program
/// only ends its timed phase early.
pub const TPCC_HEADROOM: usize = 1 << 18;
/// YCSB records.
pub const YCSB_RECORDS: u64 = 1_000_000;
/// YCSB Zipf exponent.
pub const YCSB_ALPHA: f64 = 0.5;
/// Ticks drained after the timed phase before leftovers count as failed.
const MAX_DRAIN_TICKS: usize = 10_000;
/// Ticks the serializability oracle checks in traced runs: the first
/// batch, and the first one carrying requeued aborts (pipelined delay 2).
const ORACLE_TICKS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    TpccMix50,
    YcsbBLowSkew,
}

impl Closed {
    /// Ticks in the simulated-clock window. Every simulated metric and
    /// count is taken over the first this-many ticks, so it depends on the
    /// seed alone, never on how many ticks the wall-clock budget allowed.
    pub fn sim_ticks(self) -> usize {
        match self {
            Closed::TpccMix50 => 12,
            Closed::YcsbBLowSkew => 48,
        }
    }

    fn max_submitted(self) -> u64 {
        match self {
            Closed::TpccMix50 => TPCC_HEADROOM as u64 * 19 / 10,
            Closed::YcsbBLowSkew => u64::MAX,
        }
    }

    pub fn params(self) -> String {
        match self {
            Closed::TpccMix50 => format!(
                "{{\"warehouses\":{TPCC_WAREHOUSES},\"neworder_pct\":{TPCC_NEWORDER_PCT},\"batch\":{BATCH},\"opt_flags\":\"all\",\"server\":\"LtpgServer default\",\"loop\":\"closed, inbox topped up to one batch per tick\",\"sim_window_ticks\":{}}}",
                self.sim_ticks()
            ),
            Closed::YcsbBLowSkew => format!(
                "{{\"ycsb\":\"B\",\"records\":{YCSB_RECORDS},\"ops_per_txn\":10,\"zipf_alpha\":{YCSB_ALPHA},\"batch\":{BATCH},\"server\":\"LtpgServer default\",\"loop\":\"closed, inbox topped up to one batch per tick\",\"sim_window_ticks\":{}}}",
                self.sim_ticks()
            ),
        }
    }
}

/// Input source for one run. Generation runs with the wall clock stopped.
enum Gen {
    Tpcc(TpccGenerator),
    Ycsb(YcsbGenerator),
}

impl Gen {
    fn txns(&mut self, n: usize) -> Vec<Txn> {
        match self {
            Gen::Tpcc(g) => g.gen_batch(n),
            Gen::Ycsb(g) => g.gen_batch(n),
        }
    }
}

/// The initial database, engine configuration and input stream of a
/// seed. Building the database is set-up; the generator only draws.
fn build(kind: Closed, seed: u64) -> (Database, LtpgConfig, Gen, Option<TpccTables>) {
    match kind {
        Closed::TpccMix50 => {
            let cfg = TpccConfig::new(TPCC_WAREHOUSES, TPCC_NEWORDER_PCT)
                .with_headroom(TPCC_HEADROOM)
                .with_seed(seed);
            let (db, tables, gen) = TpccGenerator::new(cfg);
            let ecfg = ltpg_tpcc_config(&tables, BATCH, OptFlags::all());
            (db, ecfg, Gen::Tpcc(gen), Some(tables))
        }
        Closed::YcsbBLowSkew => {
            let cfg = YcsbConfig::new(YcsbWorkload::B, YCSB_RECORDS)
                .with_alpha(YCSB_ALPHA)
                .with_seed(seed);
            let (db, _table, gen) = YcsbGenerator::new(cfg);
            let ecfg = LtpgConfig {
                max_batch: BATCH,
                ..LtpgConfig::default()
            };
            (db, ecfg, Gen::Ycsb(gen), None)
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        batch_size: BATCH,
        ..ServerConfig::default()
    }
}

/// What one tick did.
struct TickOut {
    committed: Vec<Tid>,
    sim_ns: f64,
}

/// A server shape the closed loop can drive.
trait Target {
    fn inbox_len(&self) -> usize;
    fn next_tid(&self) -> u64;
    /// Submit `txns` and run one tick (the timed step).
    fn step(&mut self, txns: Vec<Txn>) -> Result<Option<TickOut>, String>;
    /// One tick without submissions (the post-run drain).
    fn tick(&mut self) -> Result<Option<TickOut>, String>;
    /// Called once, right after the last tick of the simulated window.
    fn sim_window_end(&mut self) {}
    fn state_digest(&self) -> u64;
}

impl Target for LtpgServer {
    fn inbox_len(&self) -> usize {
        LtpgServer::inbox_len(self)
    }
    fn next_tid(&self) -> u64 {
        LtpgServer::next_tid(self)
    }
    fn step(&mut self, txns: Vec<Txn>) -> Result<Option<TickOut>, String> {
        self.submit_all(txns);
        Target::tick(self)
    }
    fn tick(&mut self) -> Result<Option<TickOut>, String> {
        self.try_tick().map_err(|e| e.to_string()).map(|s| {
            s.map(|s| TickOut {
                committed: s.committed,
                sim_ns: s.sim_ns,
            })
        })
    }
    fn state_digest(&self) -> u64 {
        self.database().state_digest()
    }
}

/// The server's tick sequence driven call by call, each call a span.
/// Mirrors `LtpgServer::try_tick` for a fault-free run with the default
/// `ServerConfig` (pipelined requeue, no periodic checkpoints).
struct TracedServer {
    engine: LtpgEngine,
    durability: DurabilityManager,
    tids: TidGen,
    inbox: VecDeque<Txn>,
    requeue: VecDeque<Vec<Txn>>,
    cfg: ServerConfig,
    reg: Arc<Registry>,
    spans: Spans,
    tracing: bool,
    ticks: u64,
    /// Per executed batch: (prepare sim ns, total sim ns, lanes, aborted).
    batches: Vec<(f64, f64, usize, usize)>,
    window_counts: Option<EngineCounts>,
    window_batches: usize,
    window_wal_bytes: u64,
    /// The last executed batch, kept for the oracle replay.
    last_batch: Option<Batch>,
}

impl TracedServer {
    fn new(db: Database, ecfg: LtpgConfig, cfg: ServerConfig) -> Self {
        let durability = DurabilityManager::new(&db);
        let reg = Registry::new_shared();
        TracedServer {
            engine: LtpgEngine::with_telemetry(db, ecfg, Arc::clone(&reg)),
            durability,
            tids: TidGen::new(),
            inbox: VecDeque::new(),
            requeue: VecDeque::new(),
            cfg,
            reg,
            spans: Spans::new(),
            tracing: true,
            ticks: 0,
            batches: Vec::new(),
            window_counts: None,
            window_batches: 0,
            window_wal_bytes: 0,
            last_batch: None,
        }
    }

    /// Time `f` as a child of `parent` when tracing.
    fn span<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.tracing {
            return f(self);
        }
        let start = self.spans.now();
        let r = f(self);
        let end = self.spans.now();
        self.spans
            .push(self.ticks, Some(parent), name, start, end, 0.0);
        r
    }

    fn tick_inner(&mut self, root: usize) -> Result<Option<TickOut>, String> {
        let due = self.requeue.pop_front().unwrap_or_default();
        if due.is_empty() && self.inbox.is_empty() {
            if self.requeue.iter().all(Vec::is_empty) {
                return Ok(None);
            }
            return Ok(Some(TickOut {
                committed: Vec::new(),
                sim_ns: 0.0,
            }));
        }
        let batch = self.span(root, "txn.assemble", |s| {
            let mut fresh = Vec::new();
            while fresh.len() + due.len() < s.cfg.batch_size {
                match s.inbox.pop_front() {
                    Some(t) => fresh.push(t),
                    None => break,
                }
            }
            Batch::assemble(due, fresh, &mut s.tids)
        });
        self.span(root, "wal.append", |s| s.durability.log_batch(&batch));
        let prepared = self
            .span(root, "engine.prepare", |s| {
                s.engine.try_prepare_batch(&batch, None)
            })
            .map_err(|e| format!("prepare: {e:?}"))?;
        let prep_sim = prepared.sim_ns();
        let out = self
            .span(root, "engine.finish", |s| {
                s.engine.try_finish_batch(&batch, prepared, None)
            })
            .map_err(|e| format!("finish: {e:?}"))?;
        if self.tracing {
            let n = self.spans.spans.len();
            self.spans.spans[n - 2].sim_ns = prep_sim;
            self.spans.spans[n - 1].sim_ns = out.report.sim_ns - prep_sim;
        }
        let report = out.report;
        self.span(root, "server.requeue", |s| {
            s.engine.record_telemetry(&s.reg, &report);
            if !report.aborted.is_empty() {
                let delay = if s.cfg.pipelined { 2 } else { 1 };
                while s.requeue.len() < delay {
                    s.requeue.push_back(Vec::new());
                }
                let retry: Vec<Txn> = report
                    .aborted
                    .iter()
                    .map(|tid| batch.by_tid(*tid).expect("aborted tid in batch").clone())
                    .collect();
                s.requeue[delay - 1].extend(retry);
            }
        });
        self.batches
            .push((prep_sim, report.sim_ns, batch.len(), report.aborted.len()));
        if !self.tracing {
            self.last_batch = Some(batch);
        }
        Ok(Some(TickOut {
            committed: report.committed,
            sim_ns: report.sim_ns,
        }))
    }

    fn run_tick(&mut self, txns: Option<Vec<Txn>>) -> Result<Option<TickOut>, String> {
        let root = self.spans.open(self.ticks, None, "server.tick");
        if let Some(txns) = txns {
            self.span(root, "server.submit", |s| s.inbox.extend(txns));
        }
        let r = self.tick_inner(root);
        if self.tracing {
            self.spans.close(root);
        } else {
            self.spans.spans.truncate(root);
        }
        self.ticks += 1;
        r
    }
}

impl Target for TracedServer {
    fn inbox_len(&self) -> usize {
        self.inbox.len()
    }
    fn next_tid(&self) -> u64 {
        self.tids.peek()
    }
    fn step(&mut self, txns: Vec<Txn>) -> Result<Option<TickOut>, String> {
        self.run_tick(Some(txns))
    }
    fn tick(&mut self) -> Result<Option<TickOut>, String> {
        self.tracing = false;
        self.run_tick(None)
    }
    fn sim_window_end(&mut self) {
        self.window_counts = Some(EngineCounts::read(&self.reg));
        self.window_batches = self.batches.len();
        self.window_wal_bytes = self.durability.log_bytes();
    }
    fn state_digest(&self) -> u64 {
        self.engine.database().state_digest()
    }
}

/// When the timed phase ends.
enum Stop {
    /// After `seconds` of wall clock inside the program, and not before
    /// the simulated window is complete.
    Wall { seconds: f64 },
    /// After exactly this many ticks (the traced replay of an untraced run).
    Ticks(usize),
}

/// Everything one closed-loop run observed.
#[derive(Default)]
struct RunLog {
    first_tid: u64,
    submitted: u64,
    submit_wall_ns: Vec<u64>,
    submit_sim_ns: Vec<f64>,
    committed: Vec<bool>,
    n_committed: u64,
    /// Commits of TIDs never submitted, or committed twice.
    bad_commits: u64,
    /// Ticks after which `next_tid != first + submitted - inbox`.
    bad_tid_map: u64,
    errors: Vec<String>,
    tick_digests: Vec<u64>,
    timed_ticks: usize,
    wall_ns: u64,
    committed_timed: u64,
    wall_lat_ms: Vec<f64>,
    sim_lat_us: Vec<f64>,
    sim_window_committed: u64,
    sim_window_ns: f64,
    final_digest: u64,
}

impl RunLog {
    fn record(&mut self, out: &TickOut, wall_ns: Option<u64>, sim_now: f64, in_window: bool) {
        let mut d = 0u64;
        for tid in &out.committed {
            d = fnv(d, &tid.0.to_le_bytes());
            let idx = tid.0.wrapping_sub(self.first_tid);
            if idx >= self.submitted || self.committed[idx as usize] {
                self.bad_commits += 1;
                continue;
            }
            let i = idx as usize;
            self.committed[i] = true;
            self.n_committed += 1;
            if let Some(w) = wall_ns {
                self.wall_lat_ms
                    .push((w - self.submit_wall_ns[i]) as f64 / 1e6);
                self.committed_timed += 1;
            }
            if in_window {
                self.sim_lat_us
                    .push((sim_now - self.submit_sim_ns[i]) / 1e3);
                self.sim_window_committed += 1;
            }
        }
        self.tick_digests
            .push(fnv(d, &(out.committed.len() as u64).to_le_bytes()));
        if in_window {
            self.sim_window_ns += out.sim_ns;
        }
    }
}

fn drive<T: Target>(
    t: &mut T,
    gen: &mut Gen,
    stop: Stop,
    sim_ticks: usize,
    max_submitted: u64,
    mut reference: Option<&mut Reference>,
) -> RunLog {
    let mut log = RunLog {
        first_tid: t.next_tid(),
        ..RunLog::default()
    };
    let mut clock = WallClock::default();
    let mut sim_now = 0.0f64;
    loop {
        let ticks = log.tick_digests.len();
        let go = match stop {
            Stop::Wall { seconds } => {
                (clock.now_ns() as f64) < seconds * 1e9 && log.submitted < max_submitted
                    || ticks < sim_ticks
            }
            Stop::Ticks(k) => ticks < k,
        };
        if !go {
            break;
        }
        let need = BATCH.saturating_sub(t.inbox_len());
        let txns = gen.txns(need);
        clock.start();
        let at = clock.now_ns();
        let r = t.step(txns);
        let done = clock.now_ns();
        clock.stop();
        if let Some(r) = reference.as_deref_mut() {
            r.sample();
        }
        log.submit_wall_ns
            .resize(log.submit_wall_ns.len() + need, at);
        log.submit_sim_ns
            .resize(log.submit_sim_ns.len() + need, sim_now);
        log.committed.resize(log.committed.len() + need, false);
        log.submitted += need as u64;
        match r {
            Ok(Some(out)) => {
                sim_now += out.sim_ns;
                log.record(&out, Some(done), sim_now, ticks < sim_ticks);
            }
            Ok(None) => {
                log.errors.push("server idle with a full inbox".to_string());
                break;
            }
            Err(e) => {
                log.errors.push(e);
                break;
            }
        }
        if t.next_tid() != log.first_tid + log.submitted - t.inbox_len() as u64 {
            log.bad_tid_map += 1;
        }
        if log.tick_digests.len() == sim_ticks {
            t.sim_window_end();
        }
    }
    log.timed_ticks = log.tick_digests.len();
    log.wall_ns = clock.now_ns();
    if log.errors.is_empty() {
        for _ in 0..MAX_DRAIN_TICKS {
            match t.tick() {
                Ok(Some(out)) => {
                    sim_now += out.sim_ns;
                    log.record(&out, None, sim_now, false);
                }
                Ok(None) => break,
                Err(e) => {
                    log.errors.push(e);
                    break;
                }
            }
        }
    }
    log.final_digest = t.state_digest();
    log
}

/// Gates every run checks: TID accounting and, for TPC-C, the
/// consistency conditions.
fn gates(log: &RunLog, db: &Database, tables: Option<&TpccTables>) -> Vec<Gate> {
    let mut g = vec![
        Gate {
            name: "commits_were_submitted_once",
            ok: log.bad_commits == 0,
            detail: format!("{} unknown or repeated commits", log.bad_commits),
        },
        Gate {
            name: "tid_is_first_plus_submit_index",
            ok: log.bad_tid_map == 0,
            detail: format!("{} ticks broke the FIFO TID mapping", log.bad_tid_map),
        },
        Gate {
            name: "no_server_errors",
            ok: log.errors.is_empty(),
            detail: log.errors.join("; "),
        },
    ];
    if let Some(t) = tables {
        let r = check_invariants(db, t, TPCC_WAREHOUSES);
        g.push(Gate {
            name: "tpcc_invariants",
            ok: r.is_ok(),
            detail: r.err().map_or_else(String::new, |e| e.to_string()),
        });
    }
    g
}

fn failed(log: &RunLog) -> u64 {
    let f = log.submitted - log.n_committed;
    if log.errors.is_empty() {
        f
    } else {
        f.max(1)
    }
}

/// `--trace 0`: set-up timing plus one untraced timed run.
pub fn run_e2e(kind: Closed, args: &RunArgs) -> Outcome {
    let mut reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        reference.sample();
        let t0 = std::time::Instant::now();
        let (db, ecfg, gen, tables) = build(kind, args.seed);
        let server = LtpgServer::new(db, ecfg, server_config());
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((server, gen, tables));
    }
    let (mut server, mut gen, tables) = built.expect("at least one set-up");
    let log = drive(
        &mut server,
        &mut gen,
        Stop::Wall {
            seconds: args.seconds,
        },
        kind.sim_ticks(),
        kind.max_submitted(),
        Some(&mut reference),
    );
    let gates = gates(&log, server.database(), tables.as_ref());
    let mut wall = log.wall_lat_ms.clone();
    let (mut metrics, raw) = scaled_wall_metrics(
        log.committed_timed,
        log.wall_ns,
        &mut wall,
        &mut setup_s,
        &mut reference,
    );
    let mut sim = log.sim_lat_us.clone();
    metrics.extend([
        Metric {
            name: "sim_mtps",
            value: log.sim_window_committed as f64 / log.sim_window_ns * 1e3,
            unit: "Mtxn/s",
        },
        Metric {
            name: "txn_sim_us_p50",
            value: quantile(&mut sim, 0.50),
            unit: "us",
        },
        Metric {
            name: "txn_sim_us_p99",
            value: quantile(&mut sim, 0.99),
            unit: "us",
        },
    ]);
    Outcome {
        attempted: log.submitted,
        failed: failed(&log),
        metrics,
        gates,
        notes: vec![
            format!(
                "timed ticks {}, wall {:.3} s",
                log.timed_ticks,
                log.wall_ns as f64 / 1e9
            ),
            format!(
                "samples: txn_wall_ms n={} (timed phase), txn_sim_us n={} (first {} ticks)",
                log.wall_lat_ms.len(),
                log.sim_lat_us.len(),
                kind.sim_ticks()
            ),
            format!("set-up runs {}, each {:?} s", setup_s.len(), setup_s),
            raw,
        ],
        spans: None,
    }
}

/// Re-run the first `ORACLE_TICKS` ticks of the seed's closed loop and
/// check each batch's committed set with the snapshot-serializability
/// oracle against the pre-batch database and the engine's write-back.
fn oracle_gate(kind: Closed, seed: u64) -> Gate {
    let (db, ecfg, mut gen, _) = build(kind, seed);
    let mut t = TracedServer::new(db, ecfg, server_config());
    t.tracing = false;
    let mut problems = Vec::new();
    let mut checked = 0usize;
    for _ in 0..ORACLE_TICKS {
        let pre = t.engine.database().deep_clone();
        let txns = gen.txns(BATCH.saturating_sub(t.inbox.len()));
        let out = match t.step(txns) {
            Ok(Some(out)) => out,
            other => {
                problems.push(format!("tick failed: {:?}", other.err()));
                break;
            }
        };
        let batch = t
            .last_batch
            .take()
            .expect("untraced ticks keep their batch");
        let committed: Vec<&Txn> = out
            .committed
            .iter()
            .filter_map(|tid| batch.by_tid(*tid))
            .collect();
        checked += committed.len();
        if let Err(v) = check_snapshot_serializable(&pre, &committed, t.engine.database()) {
            problems.push(format!("{v:?}"));
        }
    }
    Gate {
        name: "oracle_serializable",
        ok: problems.is_empty(),
        detail: format!(
            "{checked} commits of the first {ORACLE_TICKS} ticks checked{}",
            problems
                .iter()
                .map(|p| format!("; {p}"))
                .collect::<String>()
        ),
    }
}

/// `--trace 1`: an untraced run of half the wall budget, then the traced
/// replay of exactly its ticks; per-layer metrics from the replay,
/// checked against the run.
pub fn run_traced(kind: Closed, args: &RunArgs) -> Outcome {
    let (db, ecfg, mut gen, tables) = build(kind, args.seed);
    let mut server = LtpgServer::new(db, ecfg, server_config());
    let base = drive(
        &mut server,
        &mut gen,
        Stop::Wall {
            seconds: args.seconds / 2.0,
        },
        kind.sim_ticks(),
        kind.max_submitted(),
        None,
    );
    let mut all = gates(&base, server.database(), tables.as_ref());
    drop(server);

    let (db, ecfg, mut gen, tables) = build(kind, args.seed);
    let mut traced = TracedServer::new(db, ecfg, server_config());
    let log = drive(
        &mut traced,
        &mut gen,
        Stop::Ticks(base.timed_ticks),
        kind.sim_ticks(),
        kind.max_submitted(),
        None,
    );
    all.extend(
        gates(&log, traced.engine.database(), tables.as_ref())
            .into_iter()
            .map(|mut g| {
                g.detail = format!("traced run: {}", g.detail);
                g
            }),
    );
    let same_ticks = log.tick_digests == base.tick_digests;
    all.push(Gate {
        name: "traced_equals_untraced",
        ok: same_ticks && log.final_digest == base.final_digest,
        detail: format!(
            "{} vs {} ticks, per-tick commit sets {}, state digest {:#x} vs {:#x}",
            log.tick_digests.len(),
            base.tick_digests.len(),
            if same_ticks { "equal" } else { "differ" },
            log.final_digest,
            base.final_digest
        ),
    });

    let metrics = layer_metrics(&traced, &log, &base);
    let spans = traced.spans.to_jsonl();
    drop(traced);
    all.push(oracle_gate(kind, args.seed));
    Outcome {
        attempted: base.submitted + log.submitted,
        failed: failed(&base) + failed(&log),
        metrics,
        gates: all,
        notes: vec![format!(
            "untraced {} ticks in {:.3} s; traced replay {:.3} s",
            base.timed_ticks,
            base.wall_ns as f64 / 1e9,
            log.wall_ns as f64 / 1e9
        )],
        spans: Some(spans),
    }
}

fn layer_metrics(t: &TracedServer, log: &RunLog, base: &RunLog) -> Vec<Metric> {
    let s = &t.spans;
    // Spans exist for the timed ticks only (the drain runs untraced), and
    // every timed tick executes a batch.
    let timed_n = s
        .spans
        .iter()
        .filter(|x| x.name == "engine.prepare")
        .count();
    let timed_batches = timed_n.max(1) as f64;
    let per_batch_ms = |name: &str| s.total_ns(name) as f64 / 1e6 / timed_batches;
    let prep_wall = s.total_ns("engine.prepare") as f64;
    let fin_wall = s.total_ns("engine.finish") as f64;
    let sim_of = |name: &str| {
        s.spans
            .iter()
            .filter(|x| x.name == name)
            .map(|x| x.sim_ns)
            .sum::<f64>()
    };
    let (prep_sim_all, fin_sim_all) = (sim_of("engine.prepare"), sim_of("engine.finish"));
    let lanes_timed: usize = t.batches[..timed_n].iter().map(|b| b.2).sum();
    let w = &t.batches[..t.window_batches];
    let w_lanes: usize = w.iter().map(|b| b.2).sum();
    let w_aborted: usize = w.iter().map(|b| b.3).sum();
    let wn = w.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut ticks = s.durations_ms("server.tick");

    let mut m = vec![
        Metric {
            name: "server.tick_ms_p50",
            value: quantile(&mut ticks, 0.50),
            unit: "ms",
        },
        Metric {
            name: "server.tick_ms_p90",
            value: quantile(&mut ticks, 0.90),
            unit: "ms",
        },
        Metric {
            name: "server.requeue_frac",
            value: ratio(w_aborted as f64, w_lanes as f64),
            unit: "ratio",
        },
        Metric {
            name: "txn.assemble_ms",
            value: per_batch_ms("txn.assemble"),
            unit: "ms",
        },
        Metric {
            name: "wal.append_ms",
            value: per_batch_ms("wal.append"),
            unit: "ms",
        },
        Metric {
            name: "wal.bytes_per_txn",
            value: ratio(t.window_wal_bytes as f64, w_lanes as f64),
            unit: "B",
        },
        Metric {
            name: "checkpoint.ms",
            value: 0.0,
            unit: "ms",
        },
        Metric {
            name: "checkpoint.count",
            value: 0.0,
            unit: "count",
        },
        Metric {
            name: "engine.prepare_ms",
            value: prep_wall / 1e6 / timed_batches,
            unit: "ms",
        },
        Metric {
            name: "engine.finish_ms",
            value: fin_wall / 1e6 / timed_batches,
            unit: "ms",
        },
        Metric {
            name: "engine.wall_us_per_txn",
            value: ratio((prep_wall + fin_wall) / 1e3, lanes_timed as f64),
            unit: "us",
        },
        Metric {
            name: "engine.wall_per_sim",
            value: ratio(prep_wall + fin_wall, prep_sim_all + fin_sim_all),
            unit: "ratio",
        },
        Metric {
            name: "engine.prepare_wall_per_sim",
            value: ratio(prep_wall, prep_sim_all),
            unit: "ratio",
        },
        Metric {
            name: "engine.finish_wall_per_sim",
            value: ratio(fin_wall, fin_sim_all),
            unit: "ratio",
        },
        Metric {
            name: "engine.prepare_sim_us",
            value: w.iter().map(|b| b.0).sum::<f64>() / 1e3 / wn,
            unit: "us",
        },
        Metric {
            name: "engine.finish_sim_us",
            value: w.iter().map(|b| b.1 - b.0).sum::<f64>() / 1e3 / wn,
            unit: "us",
        },
        Metric {
            name: "engine.commit_ratio",
            value: ratio((w_lanes - w_aborted) as f64, w_lanes as f64),
            unit: "ratio",
        },
        Metric {
            name: "trace.unattributed_frac",
            value: s.unattributed_frac(),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_frac",
            value: ratio(log.wall_ns as f64, base.wall_ns as f64) - 1.0,
            unit: "ratio",
        },
    ];
    t.window_counts.unwrap_or_default().metrics(&mut m);
    m
}
