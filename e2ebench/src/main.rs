//! The repository's benchmark: every end-to-end metric of one workload
//! (`--trace 0`), or its per-layer metrics on both clocks from a traced
//! run (`--trace 1`). See README.md in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tpcc-mix50 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness gate makes the command exit with code 1.

mod closed;
mod measure;
mod open;

use std::collections::BTreeMap;
use std::path::Path;

use closed::Closed;
use measure::{fnv, peak_rss_mb, Gate, Metric};

/// The seed runs use unless told otherwise, and the seed held out for
/// validating a later claim (never used while tuning a change).
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7_919;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 3] = ["tpcc-mix50", "ycsb-b-lowskew", "sharded-open"];

/// Metrics printed with `--trace 0`, in order, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_tps", "txn/s"),
    ("txn_wall_ms_p50", "ms"),
    ("txn_wall_ms_p99", "ms"),
    ("sim_mtps", "Mtxn/s"),
    ("txn_sim_us_p50", "us"),
    ("txn_sim_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed with `--trace 1`, in order, with units. A layer a
/// workload does not cross reads 0 there.
const PER_LAYER: [(&str, &str); 54] = [
    ("front.self_ms", "ms"),
    ("front.self_us_per_offer", "us"),
    ("front.shed.rate_limited", "count"),
    ("front.shed.backpressure", "count"),
    ("front.shed.queue_full", "count"),
    ("front.shed.timed_out", "count"),
    ("front.batch_fill_mean", "txn"),
    ("front.seal_deadline_frac", "ratio"),
    ("front.queue_wait_sim_us_p50", "us"),
    ("shard.tick_ms_p50", "ms"),
    ("shard.route_us_per_txn", "us"),
    ("shard.cross_frac", "ratio"),
    ("shard.merge_stall_sim_us", "us"),
    ("shard.busy_imbalance", "ratio"),
    ("server.tick_ms_p50", "ms"),
    ("server.tick_ms_p90", "ms"),
    ("server.requeue_frac", "ratio"),
    ("txn.assemble_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_txn", "B"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.count", "count"),
    ("engine.prepare_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.wall_us_per_txn", "us"),
    ("engine.wall_per_sim", "ratio"),
    ("engine.prepare_wall_per_sim", "ratio"),
    ("engine.finish_wall_per_sim", "ratio"),
    ("engine.prepare_sim_us", "us"),
    ("engine.finish_sim_us", "us"),
    ("engine.sim.h2d_us", "us"),
    ("engine.sim.execute_us", "us"),
    ("engine.sim.detect_us", "us"),
    ("engine.sim.writeback_us", "us"),
    ("engine.sim.sync_us", "us"),
    ("engine.sim.d2h_us", "us"),
    ("engine.sim.alloc_us", "us"),
    ("engine.commit_ratio", "ratio"),
    ("engine.aborts.conflict_loser", "count"),
    ("engine.aborts.log_exhausted", "count"),
    ("engine.aborts.delayed_read", "count"),
    ("engine.aborts.reorder_rejected", "count"),
    ("engine.delayed_ops", "count"),
    ("engine.conflict_log_accesses", "count"),
    ("gpu.kernel_launches", "count"),
    ("gpu.atomic_ops", "count"),
    ("gpu.atomic_serial_depth", "count"),
    ("gpu.divergent_warps", "count"),
    ("gpu.bytes_h2d", "count"),
    ("gpu.bytes_d2h", "count"),
    ("replica.catchup_batches", "count"),
    ("replica.lag_batches_mean", "batches"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub gates: Vec<Gate>,
    pub notes: Vec<String>,
    /// Spans as JSON lines (traced runs).
    pub spans: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       e2ebench --calibrate [--seed N]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (RunArgs, bool) {
    let mut args = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut calibrate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = v,
            "--seed" => args.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !calibrate && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    (args, calibrate)
}

/// Source revision: the git commit when run inside a git checkout,
/// otherwise a digest of the sources the benchmark builds.
fn source_rev() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        if let Some(r) = head.strip_prefix("ref: ") {
            if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(r)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
            if let Some(l) = packed.lines().find(|l| l.ends_with(r)) {
                return l.split(' ').next().unwrap_or("unknown").to_string();
            }
        } else {
            return head.to_string();
        }
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("e2ebench/src"), &mut files);
    files.extend(["Cargo.toml", "Cargo.lock", "e2ebench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut h = 0u64;
    for f in &files {
        h = fnv(h, f.to_string_lossy().as_bytes());
        h = fnv(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn provenance(args: &RunArgs) -> String {
    let params = match args.workload.as_str() {
        "tpcc-mix50" => Closed::TpccMix50.params(),
        "ycsb-b-lowskew" => Closed::YcsbBLowSkew.params(),
        _ => open::params(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"record\":\"provenance\",\"rev\":{},\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"workload\":{},\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{},\"trace\":{},\"setup_reps\":{SETUP_REPS},\"parallel_host_threads\":1,\"params\":{params}}}",
        json_str(&source_rev()),
        json_str(env!("E2E_RUSTC_VERSION")),
        json_str(env!("E2E_PROFILE")),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
    )
}

/// The metrics the contract names for this mode, in order, taken from
/// what the run produced (0 for a layer the workload does not cross).
fn select(mode: &[(&'static str, &'static str)], produced: &[Metric]) -> Vec<Metric> {
    let by_name: BTreeMap<&str, &Metric> = produced.iter().map(|m| (m.name, m)).collect();
    for m in produced {
        let known = mode.iter().find(|(n, _)| *n == m.name);
        assert!(
            known.is_some_and(|(_, u)| *u == m.unit),
            "metric {} ({}) not listed",
            m.name,
            m.unit
        );
    }
    mode.iter()
        .map(|&(name, unit)| Metric {
            name,
            value: by_name.get(name).map_or(0.0, |m| m.value),
            unit,
        })
        .collect()
}

/// Both clocks side by side for the layers that have both.
fn print_layer_table(m: &[Metric]) {
    let get = |n: &str| m.iter().find(|x| x.name == n).map_or(0.0, |x| x.value);
    println!("layer            wall ms/batch   sim us/batch   wall/sim");
    for (layer, wall, sim, ratio) in [
        (
            "engine.prepare",
            "engine.prepare_ms",
            "engine.prepare_sim_us",
            "engine.prepare_wall_per_sim",
        ),
        (
            "engine.finish",
            "engine.finish_ms",
            "engine.finish_sim_us",
            "engine.finish_wall_per_sim",
        ),
    ] {
        println!(
            "{layer:<16} {:>13.4} {:>14.2} {:>10.1}",
            get(wall),
            get(sim),
            get(ratio)
        );
    }
    for (layer, wall) in [
        ("txn.assemble", "txn.assemble_ms"),
        ("wal.append", "wal.append_ms"),
        ("server.tick p50", "server.tick_ms_p50"),
        ("shard.tick p50", "shard.tick_ms_p50"),
        ("front.self", "front.self_ms"),
    ] {
        println!("{layer:<16} {:>13.4} {:>14} {:>10}", get(wall), "-", "-");
    }
    println!(
        "sim phases us/batch: h2d {:.2} execute {:.2} detect {:.2} writeback {:.2} sync {:.2} d2h {:.2} alloc {:.2}",
        get("engine.sim.h2d_us"),
        get("engine.sim.execute_us"),
        get("engine.sim.detect_us"),
        get("engine.sim.writeback_us"),
        get("engine.sim.sync_us"),
        get("engine.sim.d2h_us"),
        get("engine.sim.alloc_us"),
    );
    println!(
        "layer-sum check: unattributed {:.4} of traced tick wall, tracing overhead {:+.4}",
        get("trace.unattributed_frac"),
        get("trace.overhead_frac")
    );
}

fn main() {
    let (args, calibrate) = parse_args();
    if calibrate {
        let cap = open::calibrate(args.seed);
        println!(
            "sharded-open lossless capacity, seed {}: {cap:.0} txn/s simulated (0.8x = {:.0})",
            args.seed,
            cap * 0.8
        );
        return;
    }
    println!("{}", provenance(&args));

    let mut out = match (args.workload.as_str(), args.trace) {
        ("tpcc-mix50", false) => closed::run_e2e(Closed::TpccMix50, &args),
        ("tpcc-mix50", true) => closed::run_traced(Closed::TpccMix50, &args),
        ("ycsb-b-lowskew", false) => closed::run_e2e(Closed::YcsbBLowSkew, &args),
        ("ycsb-b-lowskew", true) => closed::run_traced(Closed::YcsbBLowSkew, &args),
        (_, false) => open::run_e2e(&args),
        (_, true) => open::run_traced(&args),
    };
    if !args.trace {
        out.metrics.push(Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        });
    }
    let metrics = select(
        if args.trace { &PER_LAYER } else { &END_TO_END },
        &out.metrics,
    );

    for n in &out.notes {
        println!("note: {n}");
    }
    for g in &out.gates {
        println!(
            "gate {:<40} {}  {}",
            g.name,
            if g.ok { "ok  " } else { "FAIL" },
            g.detail
        );
    }
    if args.trace {
        print_layer_table(&metrics);
    }
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &out.spans {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }

    let correct = out.gates.iter().all(|g| g.ok);
    let failed = if correct {
        out.failed
    } else {
        out.failed.max(1)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
