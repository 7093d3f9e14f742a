//! Measurement plumbing shared by every workload: the paused-when-idle
//! wall clock, exact-sample percentiles, spans, and the metric record.

use std::time::Instant;

use ltpg_telemetry::{names, Registry};

/// A host wall clock that only runs while the benchmark is inside calls
/// into the program. Input generation happens with the clock stopped, so
/// neither throughput nor latency pays for the load generator.
#[derive(Debug, Default)]
pub struct WallClock {
    acc_ns: u64,
    seg: Option<Instant>,
}

impl WallClock {
    pub fn start(&mut self) {
        debug_assert!(self.seg.is_none(), "clock already running");
        self.seg = Some(Instant::now());
    }

    pub fn stop(&mut self) {
        if let Some(s) = self.seg.take() {
            self.acc_ns += s.elapsed().as_nanos() as u64;
        }
    }

    pub fn running(&self) -> bool {
        self.seg.is_some()
    }

    /// Accumulated running time, ns.
    pub fn now_ns(&self) -> u64 {
        self.acc_ns + self.seg.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }
}

/// Words in the reference kernel's buffer: 64 MiB, larger than the
/// shared caches, like the tables the program's host work waits on.
const REF_WORDS: u64 = 8 << 20;
/// Dependent random read-modify-writes per reference sample.
const REF_STEPS: usize = 100_000;
/// Time of one reference sample on the nominal machine, ns: a 2-vCPU
/// Xeon VM at its typical speed. Only a scale; it never changes.
const REF_NOMINAL_NS: f64 = 4.0e6;

/// The host's speed, sampled during a run. The host this benchmark runs
/// on is shared: its speed drifts by about ±20% over tens of seconds, far
/// more than the change a wall-clock gate must see. A fixed kernel —
/// dependent random accesses over a buffer larger than the caches, which
/// is what the program's host work mostly waits on — is timed after every
/// tick with the wall clock stopped, and wall metrics are scaled by its
/// median to what they would read on the nominal machine.
pub struct Reference {
    buf: Vec<u64>,
    state: u64,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            buf: (0..REF_WORDS).collect(),
            state: 1,
            samples: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let n = self.buf.len() as u64;
        let mut x = self.state;
        for _ in 0..REF_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (((x >> 17) ^ self.buf[(x % n) as usize]) % n) as usize;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        self.state = x;
        std::hint::black_box(&self.buf);
        self.samples.push(t0.elapsed().as_nanos() as f64);
    }

    /// How much slower than nominal the host ran: median sample over the
    /// nominal sample time. Scaled wall time = raw wall time / slowness.
    pub fn slowness(&mut self) -> f64 {
        median(&mut self.samples) / REF_NOMINAL_NS
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// The end-to-end wall metrics. Those of the timed phase are scaled to
/// the nominal host: throughput multiplied by the run's slowness,
/// latencies divided by it. Set-up is mostly allocation and page faults,
/// which the reference kernel does not track, so `setup_s` stays raw.
/// Returns the metrics with a note giving the raw values and the scale.
pub fn scaled_wall_metrics(
    committed: u64,
    wall_ns: u64,
    lat_ms: &mut [f64],
    setup_s: &mut [f64],
    reference: &mut Reference,
) -> (Vec<Metric>, String) {
    let slow = reference.slowness();
    let tps = committed as f64 / (wall_ns as f64 / 1e9);
    let p50 = quantile(lat_ms, 0.50);
    let p99 = quantile(lat_ms, 0.99);
    let setup = median(setup_s);
    let note = format!(
        "raw wall: wall_tps {tps:.1} txn/s, txn_wall_ms p50 {p50:.3} p99 {p99:.3} (n={}); host slowness {slow:.4} (median of {} reference samples)",
        lat_ms.len(),
        reference.samples()
    );
    let m = vec![
        Metric {
            name: "wall_tps",
            value: tps * slow,
            unit: "txn/s",
        },
        Metric {
            name: "txn_wall_ms_p50",
            value: p50 / slow,
            unit: "ms",
        },
        Metric {
            name: "txn_wall_ms_p99",
            value: p99 / slow,
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: setup,
            unit: "s",
        },
    ];
    (m, note)
}

/// Nearest-rank quantile of exact samples (`q` in 0..=1).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Quantile of a program log histogram (`ltpg_telemetry::Histogram`),
/// interpolated linearly inside the bucket that holds the rank. The
/// buckets are at most 25% wide, which bounds the error.
pub fn histogram_quantile(reg: &Registry, name: &str, q: f64) -> f64 {
    let snap = reg.histogram(name).snapshot();
    if snap.count == 0 {
        return 0.0;
    }
    let rank = (q * snap.count as f64).clamp(1.0, snap.count as f64);
    let mut seen = 0u64;
    for &(lower, n) in &snap.buckets {
        if (seen + n) as f64 >= rank {
            let upper = bucket_upper(lower).min(snap.max);
            let frac = (rank - seen as f64) / n as f64;
            return lower as f64 + (upper.saturating_sub(lower)) as f64 * frac;
        }
        seen += n;
    }
    snap.max as f64
}

/// Upper bound of the telemetry histogram bucket starting at `lower`
/// (exact buckets below 4, then four sub-buckets per octave).
fn bucket_upper(lower: u64) -> u64 {
    if lower < 4 {
        return lower;
    }
    let oct = 63 - lower.leading_zeros();
    lower + (1u64 << (oct - 2)) - 1
}

/// One timed span: trace id is the batch (or chunk) id, `parent` indexes
/// the enclosing span in the same recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated time attributed to the span, ns (0 when the layer has no
    /// simulated cost of its own).
    pub sim_ns: f64,
}

/// In-memory span store. Spans are written out once, at the end.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (for children).
    pub fn push(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        sim_ns: f64,
    ) -> usize {
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns,
            end_ns,
            sim_ns,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Spans::close`].
    pub fn open(&mut self, trace: u64, parent: Option<usize>, name: &'static str) -> usize {
        let t = self.now();
        self.push(trace, parent, name, t, t, 0.0)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Total wall of every span named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Wall durations of every span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Share of root-span wall not covered by any direct child span.
    pub fn unattributed_frac(&self) -> f64 {
        let mut root = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            match s.parent {
                None => root += s.end_ns - s.start_ns,
                Some(p) if self.spans[p].parent.is_none() => covered += s.end_ns - s.start_ns,
                Some(_) => {}
            }
        }
        if root == 0 {
            return 0.0;
        }
        (root.saturating_sub(covered)) as f64 / root as f64
    }

    /// JSON lines, one span per line, ids = positions.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"wall_ns\":{},\"sim_ns\":{}}}\n",
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns,
                s.sim_ns
            ));
        }
        out
    }
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A correctness gate: its verdict and what it saw.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Counters and simulated phase sums the engine and device publish,
/// summed over one or more registries (one per shard).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub batches: u64,
    pub h2d_ns: u64,
    pub execute_ns: u64,
    pub detect_ns: u64,
    pub writeback_ns: u64,
    pub sync_ns: u64,
    pub d2h_ns: u64,
    pub alloc_ns: u64,
    pub aborts_conflict_loser: u64,
    pub aborts_log_exhausted: u64,
    pub aborts_delayed_read: u64,
    pub aborts_reorder_rejected: u64,
    pub delayed_ops: u64,
    pub conflict_log_accesses: u64,
    pub kernel_launches: u64,
    pub atomic_ops: u64,
    pub atomic_serial_depth: u64,
    pub divergent_warps: u64,
    pub bytes_h2d: u64,
    pub bytes_d2h: u64,
}

impl EngineCounts {
    pub fn read(reg: &Registry) -> Self {
        let h = |n: &str| reg.histogram(n).sum();
        let c = |n: &str| reg.counter_value(n);
        EngineCounts {
            batches: reg.histogram(names::LTPG_BATCH_TOTAL_NS).count(),
            h2d_ns: h(names::LTPG_PHASE_H2D_NS),
            execute_ns: h(names::LTPG_PHASE_EXECUTE_NS),
            detect_ns: h(names::LTPG_PHASE_DETECT_NS),
            writeback_ns: h(names::LTPG_PHASE_WRITEBACK_NS),
            sync_ns: h(names::LTPG_PHASE_SYNC_NS),
            d2h_ns: h(names::LTPG_PHASE_D2H_NS),
            alloc_ns: h(names::LTPG_PHASE_ALLOC_NS),
            aborts_conflict_loser: c(names::ABORT_CONFLICT_LOSER),
            aborts_log_exhausted: c(names::ABORT_LOG_EXHAUSTED),
            aborts_delayed_read: c(names::ABORT_DELAYED_READ),
            aborts_reorder_rejected: c(names::ABORT_REORDER_REJECTED),
            delayed_ops: c(names::LTPG_DELAYED_OPS_APPLIED),
            conflict_log_accesses: c(names::LTPG_CONFLICT_LOG_ACCESSES),
            kernel_launches: c(names::GPU_KERNEL_LAUNCHES),
            atomic_ops: c(names::GPU_ATOMIC_OPS),
            atomic_serial_depth: c(names::GPU_ATOMIC_SERIAL_DEPTH),
            divergent_warps: c(names::GPU_DIVERGENT_WARPS),
            bytes_h2d: c(names::GPU_BYTES_H2D),
            bytes_d2h: c(names::GPU_BYTES_D2H),
        }
    }

    pub fn sum<'a>(regs: impl IntoIterator<Item = &'a Registry>) -> Self {
        regs.into_iter()
            .map(Self::read)
            .fold(Self::default(), |a, b| a.plus(&b))
    }

    fn plus(&self, o: &Self) -> Self {
        EngineCounts {
            batches: self.batches + o.batches,
            h2d_ns: self.h2d_ns + o.h2d_ns,
            execute_ns: self.execute_ns + o.execute_ns,
            detect_ns: self.detect_ns + o.detect_ns,
            writeback_ns: self.writeback_ns + o.writeback_ns,
            sync_ns: self.sync_ns + o.sync_ns,
            d2h_ns: self.d2h_ns + o.d2h_ns,
            alloc_ns: self.alloc_ns + o.alloc_ns,
            aborts_conflict_loser: self.aborts_conflict_loser + o.aborts_conflict_loser,
            aborts_log_exhausted: self.aborts_log_exhausted + o.aborts_log_exhausted,
            aborts_delayed_read: self.aborts_delayed_read + o.aborts_delayed_read,
            aborts_reorder_rejected: self.aborts_reorder_rejected + o.aborts_reorder_rejected,
            delayed_ops: self.delayed_ops + o.delayed_ops,
            conflict_log_accesses: self.conflict_log_accesses + o.conflict_log_accesses,
            kernel_launches: self.kernel_launches + o.kernel_launches,
            atomic_ops: self.atomic_ops + o.atomic_ops,
            atomic_serial_depth: self.atomic_serial_depth + o.atomic_serial_depth,
            divergent_warps: self.divergent_warps + o.divergent_warps,
            bytes_h2d: self.bytes_h2d + o.bytes_h2d,
            bytes_d2h: self.bytes_d2h + o.bytes_d2h,
        }
    }

    /// The engine/gpu per-layer metrics over this window: simulated phase
    /// times per executed batch (per shard batch when summed over
    /// shards), and exact counts.
    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let per_batch = |ns: u64| {
            if self.batches == 0 {
                0.0
            } else {
                ns as f64 / 1e3 / self.batches as f64
            }
        };
        for (name, ns) in [
            ("engine.sim.h2d_us", self.h2d_ns),
            ("engine.sim.execute_us", self.execute_ns),
            ("engine.sim.detect_us", self.detect_ns),
            ("engine.sim.writeback_us", self.writeback_ns),
            ("engine.sim.sync_us", self.sync_ns),
            ("engine.sim.d2h_us", self.d2h_ns),
            ("engine.sim.alloc_us", self.alloc_ns),
        ] {
            out.push(Metric {
                name,
                value: per_batch(ns),
                unit: "us",
            });
        }
        for (name, v) in [
            ("engine.aborts.conflict_loser", self.aborts_conflict_loser),
            ("engine.aborts.log_exhausted", self.aborts_log_exhausted),
            ("engine.aborts.delayed_read", self.aborts_delayed_read),
            (
                "engine.aborts.reorder_rejected",
                self.aborts_reorder_rejected,
            ),
            ("engine.delayed_ops", self.delayed_ops),
            ("engine.conflict_log_accesses", self.conflict_log_accesses),
            ("gpu.kernel_launches", self.kernel_launches),
            ("gpu.atomic_ops", self.atomic_ops),
            ("gpu.atomic_serial_depth", self.atomic_serial_depth),
            ("gpu.divergent_warps", self.divergent_warps),
            ("gpu.bytes_h2d", self.bytes_h2d),
            ("gpu.bytes_d2h", self.bytes_d2h),
        ] {
            out.push(Metric {
                name,
                value: v as f64,
                unit: "count",
            });
        }
    }
}

/// FNV-1a fold, used for commit-set and source digests.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `VmHWM` (peak resident set) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
