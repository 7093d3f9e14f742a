//! The open-loop workload (`sharded-open`): a `Fleet` of clients offers
//! YCSB-A transactions on the simulated clock to a `FrontEnd` feeding a
//! 4-shard `ShardedServer` with checkpoints and one standby row.
//!
//! The front end owns the server, so the benchmark sees ticks through a
//! `TickSink` wrapper of its own. Each offered transaction carries its
//! offer index in `Txn::tid` (a placeholder the server overwrites when it
//! assigns the real TID), and the wrapper mirrors the server's FIFO TID
//! assignment to map every commit back to its offer.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use ltpg::{DurabilityManager, LtpgConfig, ServerConfig};
use ltpg_front::{Fleet, FleetConfig, FrontConfig, FrontEnd, TickOutcome, TickSink};
use ltpg_replica::ReplicaConfig;
use ltpg_shard::{ycsb_partitioner, Router, ShardedServer};
use ltpg_storage::{Database, TableId};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{Batch, Tid, TidGen, Txn};
use ltpg_workloads::{YcsbConfig, YcsbGenerator, YcsbWorkload};

use crate::measure::{
    fnv, histogram_quantile, quantile, scaled_wall_metrics, EngineCounts, Gate, Metric, Reference,
    Spans, WallClock,
};
use crate::{Outcome, RunArgs, SETUP_REPS};

pub const RECORDS: u64 = 1_000_000;
pub const ALPHA: f64 = 0.4;
pub const SHARDS: u32 = 4;
pub const CROSS_PCT: u32 = 10;
pub const BATCH: usize = 1 << 12;
pub const CHECKPOINT_EVERY: usize = 16;
pub const CLIENTS: u32 = 20_000;
pub const CLIENT_SKEW: f64 = 1.1;
/// Offered load, txn per simulated second: about 0.8x the lossless
/// capacity of this configuration (`--calibrate` measures it).
pub const OFFERED_TPS: f64 = 45.0e6;
/// Seal a partial batch this long after it opened, simulated ns.
pub const SEAL_DEADLINE_NS: u64 = 300_000;
/// Arrivals in the simulated-clock window: simulated metrics and counts
/// are read right after this many offers, so they depend on the seed
/// alone.
pub const SIM_ARRIVALS: u64 = 1 << 16;
/// Arrivals generated (clock stopped) and then offered (clock running)
/// per chunk.
const CHUNK: usize = 1024;
const MAX_DRAIN_TICKS: usize = 10_000;
/// Transactions routed when timing `Router::route`.
const ROUTE_SAMPLE: usize = 1 << 16;
/// Batches logged and assembled when timing `log_batch` / `assemble`.
const REPLAY_BATCHES: usize = 4;

pub fn params() -> String {
    format!(
        "{{\"ycsb\":\"A\",\"records\":{RECORDS},\"zipf_alpha\":{ALPHA},\"shards\":{SHARDS},\"cross_shard_pct\":{CROSS_PCT},\"batch\":{BATCH},\"checkpoint_every\":{CHECKPOINT_EVERY},\"standby_rows\":1,\"clients\":{CLIENTS},\"client_skew\":{CLIENT_SKEW},\"offered_tps\":{OFFERED_TPS},\"seal_deadline_ns\":{SEAL_DEADLINE_NS},\"loop\":\"open on the simulated clock\",\"sim_window_arrivals\":{SIM_ARRIVALS}}}"
    )
}

fn ycsb_config(seed: u64) -> YcsbConfig {
    YcsbConfig::new(YcsbWorkload::A, RECORDS)
        .with_alpha(ALPHA)
        .with_seed(seed)
        .with_partitions(SHARDS, CROSS_PCT)
}

/// The engine sized for the batch it runs.
fn engine_config() -> LtpgConfig {
    LtpgConfig {
        max_batch: BATCH,
        ..LtpgConfig::default()
    }
}

fn front_config() -> FrontConfig {
    FrontConfig::new(BATCH, SEAL_DEADLINE_NS)
}

/// What the sink wrapper observed, shared with the offer loop.
#[derive(Default)]
struct Shared {
    clock: WallClock,
    /// Wall-clock time of each offer, by offer index.
    offer_wall_ns: Vec<u64>,
    /// Offer index of each submitted transaction, by TID − first TID.
    tags: Vec<u64>,
    first_tid: u64,
    committed: Vec<bool>,
    n_committed: u64,
    bad_commits: u64,
    bad_tid_map: u64,
    errors: Vec<String>,
    tick_digests: Vec<u64>,
    sim_ns: f64,
    wall_lat_ms: Vec<f64>,
    tracing: bool,
    spans: Option<Spans>,
    /// Parent span for sink ticks (the current chunk's offers span).
    parent: Option<usize>,
    sink_ns: u64,
    tick_ms: Vec<f64>,
}

struct Sink {
    server: ShardedServer,
    shared: Rc<RefCell<Shared>>,
}

impl TickSink for Sink {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        let t0 = Instant::now();
        {
            let mut sh = self.shared.borrow_mut();
            sh.tags.extend(txns.iter().map(|t| t.tid.0));
        }
        self.server.submit_all(txns);
        self.shared.borrow_mut().sink_ns += t0.elapsed().as_nanos() as u64;
    }

    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        let t0 = Instant::now();
        let span_start = self.shared.borrow().spans.as_ref().map(Spans::now);
        let r = self.server.try_tick();
        let wall = t0.elapsed().as_nanos() as u64;
        let mut sh = self.shared.borrow_mut();
        sh.sink_ns += wall;
        let s = match r {
            Ok(Some(s)) => s,
            Ok(None) => return None,
            Err(e) => {
                sh.errors.push(e.to_string());
                return None;
            }
        };
        let now = sh.clock.running().then(|| sh.clock.now_ns());
        let mut d = 0u64;
        for tid in &s.committed {
            d = fnv(d, &tid.0.to_le_bytes());
            let idx = tid.0.wrapping_sub(sh.first_tid) as usize;
            let Some(&tag) = sh.tags.get(idx) else {
                sh.bad_commits += 1;
                continue;
            };
            let tag = tag as usize;
            if tag >= sh.committed.len() || sh.committed[tag] {
                sh.bad_commits += 1;
                continue;
            }
            sh.committed[tag] = true;
            sh.n_committed += 1;
            if let Some(now) = now {
                let lat = (now - sh.offer_wall_ns[tag]) as f64 / 1e6;
                sh.wall_lat_ms.push(lat);
            }
        }
        sh.tick_digests
            .push(fnv(d, &(s.committed.len() as u64).to_le_bytes()));
        sh.sim_ns += s.sim_ns;
        let expect = sh.first_tid + sh.tags.len() as u64 - self.server.inbox_len() as u64;
        if self.server.next_tid() != expect {
            sh.bad_tid_map += 1;
        }
        if sh.tracing {
            sh.tick_ms.push(wall as f64 / 1e6);
            let trace = sh.tick_digests.len() as u64 - 1;
            let parent = sh.parent;
            let sim = s.sim_ns;
            if let (Some(spans), Some(start)) = (sh.spans.as_mut(), span_start) {
                let end = spans.now();
                spans.push(trace, parent, "shard.tick", start, end, sim);
            }
        }
        Some(TickOutcome {
            committed: s.committed,
            aborted: s.aborted,
            sim_ns: s.sim_ns,
        })
    }

    fn queued(&self) -> usize {
        self.server.pending()
    }

    fn next_tid(&self) -> u64 {
        self.server.next_tid()
    }

    fn fault_delay_ns(&self) -> f64 {
        TickSink::fault_delay_ns(&self.server)
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.server.telemetry())
    }
}

/// Set-up: build the database, the sharded server with its standby row,
/// and the front end.
fn setup(seed: u64, shared: &Rc<RefCell<Shared>>) -> (FrontEnd<Sink>, TableId) {
    let cfg = ycsb_config(seed);
    let (db, table, _gen) = YcsbGenerator::new(cfg.clone());
    let part = ycsb_partitioner(SHARDS, table, &cfg);
    let mut server = ShardedServer::new(
        db,
        part,
        engine_config(),
        ServerConfig {
            batch_size: BATCH,
            checkpoint_every: Some(CHECKPOINT_EVERY),
            ..ServerConfig::default()
        },
    );
    server.attach_replicas(&ReplicaConfig::default());
    shared.borrow_mut().first_tid = server.next_tid();
    let fe = FrontEnd::new(
        Sink {
            server,
            shared: Rc::clone(shared),
        },
        front_config(),
    );
    (fe, table)
}

/// Simulated-window readings, taken right after offer `SIM_ARRIVALS`.
#[derive(Default)]
struct Window {
    committed: u64,
    sim_ns: f64,
    e2e_p50_ns: f64,
    e2e_p99_ns: f64,
    e2e_n: u64,
    queue_wait_p50_ns: f64,
    fill_mean: f64,
    seal_deadline_frac: f64,
    shed: [u64; 4],
    cross_frac: f64,
    merge_stall_ns_per_tick: f64,
    busy_imbalance: f64,
    lanes: u64,
    aborts: u64,
    checkpoints: u64,
    catchup_batches: u64,
    lag_mean: f64,
    wal_bytes: u64,
    engine: EngineCounts,
}

fn read_window(fe: &FrontEnd<Sink>, wal_bytes_at_start: u64) -> Window {
    let reg = fe.telemetry();
    let server = &fe.sink().server;
    let st = server.stats();
    let fs = fe.stats();
    let shard_regs: Vec<&Registry> = (0..server.shard_count())
        .map(|s| server.shard_telemetry(s).as_ref())
        .collect();
    let busy: Vec<f64> = shard_regs
        .iter()
        .map(|r| r.histogram(names::LTPG_BATCH_TOTAL_NS).sum() as f64)
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let fill = reg.histogram(names::FRONT_BATCH_FILL);
    let lag = server.telemetry().histogram(names::REPLICA_LAG_BATCHES);
    let sh = fe.sink().shared.borrow();
    Window {
        committed: sh.n_committed,
        sim_ns: sh.sim_ns,
        e2e_p50_ns: histogram_quantile(reg, names::FRONT_E2E_NS, 0.50),
        e2e_p99_ns: histogram_quantile(reg, names::FRONT_E2E_NS, 0.99),
        e2e_n: reg.histogram(names::FRONT_E2E_NS).count(),
        queue_wait_p50_ns: histogram_quantile(reg, names::FRONT_QUEUE_WAIT_NS, 0.50),
        fill_mean: fill.sum() as f64 / fill.count().max(1) as f64,
        seal_deadline_frac: fs.seals_deadline as f64 / fs.batches_sealed.max(1) as f64,
        shed: [
            fs.shed_rate_limited,
            fs.shed_backpressure,
            fs.shed_queue_full,
            fs.shed_timed_out,
        ],
        cross_frac: st.cross_shard_fraction(),
        merge_stall_ns_per_tick: st.merge_stall_ns / st.batches.max(1) as f64,
        busy_imbalance: if mean_busy > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean_busy
        } else {
            0.0
        },
        lanes: st.committed + st.abort_events,
        aborts: st.abort_events,
        checkpoints: st.batches / CHECKPOINT_EVERY as u64,
        catchup_batches: server
            .telemetry()
            .counter_value(names::REPLICA_CATCHUP_BATCHES),
        lag_mean: lag.sum() as f64 / lag.count().max(1) as f64,
        wal_bytes: wal_bytes() - wal_bytes_at_start,
        engine: EngineCounts::sum(shard_regs),
    }
}

/// WAL bytes appended process-wide (the WAL publishes to the global
/// registry).
fn wal_bytes() -> u64 {
    ltpg_telemetry::global().counter_value(names::WAL_BYTES_APPENDED)
}

/// One open-loop run and what it observed.
struct OpenLog {
    offered: u64,
    shed: u64,
    wall_ns: u64,
    offer_call_ns: u64,
    sink_ns_timed: u64,
    sealed_timed: u64,
    window: Window,
    tick_digests: Vec<u64>,
    final_digest: u64,
    gates: Vec<Gate>,
    n_committed: u64,
    wall_lat_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    spans: Option<Spans>,
}

enum Stop {
    Wall { seconds: f64 },
    Arrivals(u64),
}

fn drive(
    fe: &mut FrontEnd<Sink>,
    table: TableId,
    shared: &Rc<RefCell<Shared>>,
    seed: u64,
    stop: Stop,
    tracing: bool,
    mut reference: Option<&mut Reference>,
) -> OpenLog {
    let mut fleet = Fleet::new(FleetConfig {
        clients: CLIENTS,
        offered_tps: OFFERED_TPS,
        skew: CLIENT_SKEW,
        seed,
    });
    let mut gen = YcsbGenerator::from_parts(ycsb_config(seed), table);
    let wal_at_start = wal_bytes();
    {
        let mut sh = shared.borrow_mut();
        sh.tracing = tracing;
        sh.spans = tracing.then(Spans::new);
    }
    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut offer_call_ns = 0u64;
    let mut window = None;
    let mut chunk_no = 0u64;
    loop {
        let go = match stop {
            Stop::Wall { seconds } => {
                (shared.borrow().clock.now_ns() as f64) < seconds * 1e9 || offered < SIM_ARRIVALS
            }
            Stop::Arrivals(n) => offered < n,
        };
        if !go {
            break;
        }
        let mut n = CHUNK as u64;
        if let Stop::Arrivals(total) = stop {
            n = n.min(total - offered);
        }
        if window.is_none() {
            n = n.min(SIM_ARRIVALS - offered);
        }
        let chunk: Vec<_> = (0..n)
            .map(|i| {
                let a = fleet.next_arrival();
                let mut t = gen.gen_txn();
                t.tid = Tid(offered + i);
                (a, t)
            })
            .collect();
        let spans_at = {
            let mut sh = shared.borrow_mut();
            sh.committed.resize((offered + n) as usize, false);
            sh.clock.start();
            // Per chunk: a root span and one aggregate child holding the
            // summed wall of its offer calls (a span per offer would swamp
            // the store); sink ticks nest under the aggregate.
            let parent = sh.spans.as_mut().map(|sp| {
                let root = sp.open(chunk_no, None, "front.chunk");
                (root, sp.open(chunk_no, Some(root), "front.offers"))
            });
            sh.parent = parent.map(|p| p.1);
            parent
        };
        let mut chunk_offer_ns = 0u64;
        for (a, t) in chunk {
            {
                let mut sh = shared.borrow_mut();
                let now = sh.clock.now_ns();
                sh.offer_wall_ns.push(now);
            }
            let accepted = if tracing {
                let t0 = Instant::now();
                let ok = fe.offer(a.client, a.at_ns, t);
                chunk_offer_ns += t0.elapsed().as_nanos() as u64;
                ok
            } else {
                fe.offer(a.client, a.at_ns, t)
            };
            if !accepted {
                shed += 1;
            }
        }
        offered += n;
        offer_call_ns += chunk_offer_ns;
        {
            let mut sh = shared.borrow_mut();
            sh.clock.stop();
            if let (Some((root, offers)), Some(sp)) = (spans_at, sh.spans.as_mut()) {
                let start = sp.spans[offers].start_ns;
                sp.spans[offers].end_ns = start + chunk_offer_ns;
                sp.close(root);
            }
        }
        if let Some(r) = reference.as_deref_mut() {
            r.sample();
        }
        chunk_no += 1;
        if offered == SIM_ARRIVALS && window.is_none() {
            window = Some(read_window(fe, wal_at_start));
        }
    }
    let (wall_ns, sink_ns_timed) = {
        let mut sh = shared.borrow_mut();
        sh.tracing = false;
        (sh.clock.now_ns(), sh.sink_ns)
    };
    let sealed_timed = fe.stats().batches_sealed;
    fe.finish(MAX_DRAIN_TICKS);

    let conserves = fe.conserves() && fe.pending() == 0;
    let fs = fe.stats().clone();
    let mut sh = shared.borrow_mut();
    let gates = vec![
        Gate {
            name: "front_conserves_and_drained",
            ok: conserves,
            detail: format!(
                "submitted {} committed {} shed {} pending {}",
                fs.submitted,
                fs.committed,
                fs.shed(),
                fe.pending()
            ),
        },
        Gate {
            name: "commits_were_submitted_once",
            ok: sh.bad_commits == 0 && sh.n_committed == fs.committed,
            detail: format!(
                "{} unknown or repeated commits; {} mapped vs {} counted by the front",
                sh.bad_commits, sh.n_committed, fs.committed
            ),
        },
        Gate {
            name: "tid_is_first_plus_submit_index",
            ok: sh.bad_tid_map == 0,
            detail: format!("{} ticks broke the FIFO TID mapping", sh.bad_tid_map),
        },
        Gate {
            name: "no_server_errors",
            ok: sh.errors.is_empty(),
            detail: sh.errors.join("; "),
        },
    ];
    let server = &fe.sink().server;
    let mut digest = 0u64;
    for s in 0..server.shard_count() {
        digest = fnv(digest, &server.database(s).state_digest().to_le_bytes());
    }
    OpenLog {
        offered,
        shed,
        wall_ns,
        offer_call_ns,
        sink_ns_timed,
        sealed_timed,
        window: window.unwrap_or_default(),
        tick_digests: std::mem::take(&mut sh.tick_digests),
        final_digest: digest,
        gates,
        n_committed: sh.n_committed,
        wall_lat_ms: std::mem::take(&mut sh.wall_lat_ms),
        tick_ms: std::mem::take(&mut sh.tick_ms),
        spans: sh.spans.take(),
    }
}

fn failed(log: &OpenLog) -> u64 {
    log.offered - log.n_committed
}

/// `--trace 0`: set-up timing plus one untraced timed run.
pub fn run_e2e(args: &RunArgs) -> Outcome {
    let mut reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        reference.sample();
        let shared = Rc::new(RefCell::new(Shared::default()));
        let t0 = Instant::now();
        let (fe, table) = setup(args.seed, &shared);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((fe, table, shared));
    }
    let (mut fe, table, shared) = built.expect("at least one set-up");
    let wall_budget = Stop::Wall {
        seconds: args.seconds,
    };
    let log = drive(
        &mut fe,
        table,
        &shared,
        args.seed,
        wall_budget,
        false,
        Some(&mut reference),
    );
    drop(fe);
    let w = &log.window;
    let mut wall = log.wall_lat_ms.clone();
    let (mut metrics, raw) = scaled_wall_metrics(
        wall.len() as u64,
        log.wall_ns,
        &mut wall,
        &mut setup_s,
        &mut reference,
    );
    metrics.extend([
        Metric {
            name: "sim_mtps",
            value: w.committed as f64 / w.sim_ns * 1e3,
            unit: "Mtxn/s",
        },
        Metric {
            name: "txn_sim_us_p50",
            value: w.e2e_p50_ns / 1e3,
            unit: "us",
        },
        Metric {
            name: "txn_sim_us_p99",
            value: w.e2e_p99_ns / 1e3,
            unit: "us",
        },
    ]);
    Outcome {
        attempted: log.offered,
        failed: failed(&log),
        metrics,
        gates: log.gates,
        notes: vec![
            format!(
                "offered {} ({} shed), wall {:.3} s, {} ticks",
                log.offered,
                log.shed,
                log.wall_ns as f64 / 1e9,
                log.tick_digests.len()
            ),
            format!(
                "samples: txn_wall_ms n={} (offer to commit, timed phase); txn_sim_us n={} from the front.e2e_ns log histogram (bucket resolution <=25%, interpolated) over the first {SIM_ARRIVALS} arrivals",
                log.wall_lat_ms.len(),
                w.e2e_n
            ),
            format!("set-up runs {}, each {:?} s", setup_s.len(), setup_s),
            raw,
        ],
        spans: None,
    }
}

/// `--trace 1`: an untraced run of half the wall budget, then a traced
/// run over exactly as many arrivals; per-layer metrics from the traced
/// run.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let shared = Rc::new(RefCell::new(Shared::default()));
    let (mut fe, table) = setup(args.seed, &shared);
    let half = Stop::Wall {
        seconds: args.seconds / 2.0,
    };
    let base = drive(&mut fe, table, &shared, args.seed, half, false, None);
    drop(fe);
    let shared = Rc::new(RefCell::new(Shared::default()));
    let (mut fe, table) = setup(args.seed, &shared);
    let log = drive(
        &mut fe,
        table,
        &shared,
        args.seed,
        Stop::Arrivals(base.offered),
        true,
        None,
    );

    let mut gates = base.gates.clone();
    gates.extend(log.gates.iter().cloned().map(|mut g| {
        g.detail = format!("traced run: {}", g.detail);
        g
    }));
    let same_ticks = log.tick_digests == base.tick_digests;
    gates.push(Gate {
        name: "traced_equals_untraced",
        ok: same_ticks && log.final_digest == base.final_digest,
        detail: format!(
            "{} vs {} ticks, per-tick commit sets {}, slice digest {:#x} vs {:#x}",
            log.tick_digests.len(),
            base.tick_digests.len(),
            if same_ticks { "equal" } else { "differ" },
            log.final_digest,
            base.final_digest
        ),
    });

    let replay = replay_calls(&fe.sink().server, table, args.seed);
    drop(fe);
    let metrics = layer_metrics(&log, &base, &replay);
    Outcome {
        attempted: base.offered + log.offered,
        failed: failed(&base) + failed(&log),
        metrics,
        gates,
        notes: vec![format!(
            "untraced {} arrivals in {:.3} s; traced {:.3} s",
            base.offered,
            base.wall_ns as f64 / 1e9,
            log.wall_ns as f64 / 1e9
        )],
        spans: log.spans.as_ref().map(Spans::to_jsonl),
    }
}

/// Wall of calls the sharded server makes inside its tick, which the
/// benchmark cannot wrap from outside: timed here on the same public
/// functions and the run's own data, after the run.
struct Replay {
    route_us_per_txn: f64,
    assemble_ms: f64,
    wal_append_ms: f64,
    checkpoint_ms: f64,
}

fn replay_calls(server: &ShardedServer, table: TableId, seed: u64) -> Replay {
    let mut gen = YcsbGenerator::from_parts(ycsb_config(seed), table);
    let txns = gen.gen_batch(ROUTE_SAMPLE);
    let router = Router::new(server.partitioner().clone());
    let t0 = Instant::now();
    let mut cross = 0usize;
    for t in &txns {
        cross += usize::from(std::hint::black_box(router.route(t)).is_cross());
    }
    let route_ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(cross);

    let mut tids = TidGen::new();
    let mut dur = DurabilityManager::new(&Database::new());
    let (mut assemble_ns, mut log_ns) = (0u128, 0u128);
    for chunk in txns.chunks(BATCH).take(REPLAY_BATCHES) {
        let t0 = Instant::now();
        let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tids);
        let t1 = Instant::now();
        dur.log_batch(&batch);
        log_ns += t1.elapsed().as_nanos();
        assemble_ns += (t1 - t0).as_nanos();
    }
    let batches = txns.chunks(BATCH).take(REPLAY_BATCHES).count().max(1) as f64;

    let mut ckpt_ns = 0u128;
    for s in 0..server.shard_count() {
        let db = server.database(s);
        let mut dm = DurabilityManager::new(&Database::new());
        let t0 = Instant::now();
        dm.checkpoint(db);
        ckpt_ns += t0.elapsed().as_nanos();
    }
    Replay {
        route_us_per_txn: route_ns / 1e3 / txns.len().max(1) as f64,
        assemble_ms: assemble_ns as f64 / 1e6 / batches,
        wal_append_ms: log_ns as f64 / 1e6 / batches,
        checkpoint_ms: ckpt_ns as f64 / 1e6,
    }
}

fn layer_metrics(log: &OpenLog, base: &OpenLog, replay: &Replay) -> Vec<Metric> {
    let w = &log.window;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let front_self_ns = log.offer_call_ns.saturating_sub(log.sink_ns_timed) as f64;
    let mut tick_ms = log.tick_ms.clone();
    let mut m = vec![
        Metric {
            name: "front.self_ms",
            value: front_self_ns / 1e6 / log.sealed_timed.max(1) as f64,
            unit: "ms",
        },
        Metric {
            name: "front.self_us_per_offer",
            value: front_self_ns / 1e3 / log.offered.max(1) as f64,
            unit: "us",
        },
        Metric {
            name: "front.shed.rate_limited",
            value: w.shed[0] as f64,
            unit: "count",
        },
        Metric {
            name: "front.shed.backpressure",
            value: w.shed[1] as f64,
            unit: "count",
        },
        Metric {
            name: "front.shed.queue_full",
            value: w.shed[2] as f64,
            unit: "count",
        },
        Metric {
            name: "front.shed.timed_out",
            value: w.shed[3] as f64,
            unit: "count",
        },
        Metric {
            name: "front.batch_fill_mean",
            value: w.fill_mean,
            unit: "txn",
        },
        Metric {
            name: "front.seal_deadline_frac",
            value: w.seal_deadline_frac,
            unit: "ratio",
        },
        Metric {
            name: "front.queue_wait_sim_us_p50",
            value: w.queue_wait_p50_ns / 1e3,
            unit: "us",
        },
        Metric {
            name: "shard.tick_ms_p50",
            value: quantile(&mut tick_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "shard.route_us_per_txn",
            value: replay.route_us_per_txn,
            unit: "us",
        },
        Metric {
            name: "shard.cross_frac",
            value: w.cross_frac,
            unit: "ratio",
        },
        Metric {
            name: "shard.merge_stall_sim_us",
            value: w.merge_stall_ns_per_tick / 1e3,
            unit: "us",
        },
        Metric {
            name: "shard.busy_imbalance",
            value: w.busy_imbalance,
            unit: "ratio",
        },
        Metric {
            name: "server.requeue_frac",
            value: ratio(w.aborts as f64, w.lanes as f64),
            unit: "ratio",
        },
        Metric {
            name: "txn.assemble_ms",
            value: replay.assemble_ms,
            unit: "ms",
        },
        Metric {
            name: "wal.append_ms",
            value: replay.wal_append_ms,
            unit: "ms",
        },
        Metric {
            name: "wal.bytes_per_txn",
            value: ratio(w.wal_bytes as f64, w.lanes as f64),
            unit: "B",
        },
        Metric {
            name: "checkpoint.ms",
            value: replay.checkpoint_ms,
            unit: "ms",
        },
        Metric {
            name: "checkpoint.count",
            value: w.checkpoints as f64,
            unit: "count",
        },
        Metric {
            name: "engine.commit_ratio",
            value: ratio((w.lanes - w.aborts) as f64, w.lanes as f64),
            unit: "ratio",
        },
        Metric {
            name: "replica.catchup_batches",
            value: w.catchup_batches as f64,
            unit: "count",
        },
        Metric {
            name: "replica.lag_batches_mean",
            value: w.lag_mean,
            unit: "batches",
        },
        Metric {
            name: "trace.unattributed_frac",
            value: log.spans.as_ref().map_or(0.0, Spans::unattributed_frac),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_frac",
            value: ratio(log.wall_ns as f64, base.wall_ns as f64) - 1.0,
            unit: "ratio",
        },
    ];
    w.engine.metrics(&mut m);
    m
}

/// `--calibrate`: lossless capacity of this configuration on the
/// simulated clock, offering a backlog at t = 0 (as `front_bench` does).
pub fn calibrate(seed: u64) -> f64 {
    let shared = Rc::new(RefCell::new(Shared::default()));
    let (mut fe, table) = setup(seed, &shared);
    let mut gen = YcsbGenerator::from_parts(ycsb_config(seed), table);
    let n = 64 * BATCH;
    shared.borrow_mut().committed.resize(n, false);
    for i in 0..n {
        let mut t = gen.gen_txn();
        t.tid = Tid(i as u64);
        shared.borrow_mut().offer_wall_ns.push(0);
        fe.offer(0, 0, t);
    }
    fe.finish(MAX_DRAIN_TICKS);
    fe.stats().committed as f64 / fe.dispatcher().engine_free_ns() * 1e9
}
