//! Deterministic differential fuzzing for the LTPG stack (`ltpg-qa`).
//!
//! A seeded generator ([`gen::generate`]) produces self-contained cases —
//! random schemas, mixed YCSB/TPC-C-fragment schedules with inserts and
//! deletes, batching/sharding/fault/checkpoint configuration — and the
//! runner ([`run::run_case`]) pushes each case through four execution
//! paths that must agree bit-for-bit:
//!
//! * the simulated-GPU [`LtpgEngine`](ltpg::LtpgEngine),
//! * the [`CpuTwin`](ltpg::CpuTwin), compared flag word by flag word,
//! * the single-device vs sharded server pair in lockstep, and
//! * WAL replay of the single device's log,
//!
//! with the serializability oracle auditing every committed batch. Any
//! disagreement is a typed [`Divergence`]; the shrinker ([`shrink::shrink`])
//! minimizes the case by greedy delta-debugging and the repro format
//! ([`repro`]) persists it under `tests/repros/` where a `#[test]` loader
//! replays it forever after.
//!
//! Everything — generation, execution, shrinking — is a pure function of
//! the seed, so `qa_fuzz --start S --seeds N` is exactly reproducible.

#![warn(missing_docs)]

pub mod case;
pub mod gen;
pub mod repro;
pub mod run;
pub mod shrink;

pub use case::{QaCase, ShardRule, TableSpec};
pub use run::{run_case, CaseOutcome, Divergence};
pub use shrink::{shrink, Shrunk};

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ltpg_telemetry::{names, Registry};

/// Options for a fuzzing run.
#[derive(Clone)]
pub struct FuzzOptions {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of consecutive seeds to run.
    pub seeds: u64,
    /// Where to write minimized repro files (`None` disables writing).
    pub repro_dir: Option<PathBuf>,
    /// Telemetry registry for the `qa.*` counters (`None` uses the
    /// process-global registry).
    pub registry: Option<Arc<Registry>>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions { start_seed: 0, seeds: 50, repro_dir: None, registry: None }
    }
}

/// One divergence found (and minimized) during a fuzzing run.
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// Seed of the original case.
    pub seed: u64,
    /// The divergence exhibited by the minimized case.
    pub divergence: Divergence,
    /// The minimized case.
    pub minimized: QaCase,
    /// Candidate evaluations the shrinker spent.
    pub shrink_steps: u64,
    /// Where the repro was written, if a directory was configured.
    pub repro_path: Option<PathBuf>,
}

/// Summary of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Transactions across all cases.
    pub txns: u64,
    /// Every divergence found, minimized.
    pub divergences: Vec<FoundDivergence>,
}

/// Run `opts.seeds` consecutive cases, shrinking and persisting every
/// divergence. Deterministic in `opts`.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let registry =
        opts.registry.clone().unwrap_or_else(|| Arc::clone(ltpg_telemetry::global()));
    let mut report = FuzzReport::default();
    for seed in opts.start_seed..opts.start_seed + opts.seeds {
        let case = gen::generate(seed);
        registry.counter(names::QA_CASES).inc();
        registry.counter(names::QA_TXNS).add(case.txns.len() as u64);
        report.cases += 1;
        report.txns += case.txns.len() as u64;
        if run_case(&case).is_ok() {
            continue;
        }
        registry.counter(names::QA_DIVERGENCES).inc();
        // `run_case` is deterministic, so the shrinker re-observes the
        // divergence on its first evaluation.
        let shrunk = shrink::shrink(&case).expect("divergent case must shrink");
        registry.counter(names::QA_SHRINK_STEPS).add(shrunk.steps);
        let repro_path = opts.repro_dir.as_ref().map(|dir| {
            let path = dir.join(format!("fuzz-seed-{seed}.repro"));
            repro::write_file(&path, &shrunk.case).expect("write repro file");
            registry.counter(names::QA_REPROS_WRITTEN).inc();
            path
        });
        report.divergences.push(FoundDivergence {
            seed,
            divergence: shrunk.divergence,
            minimized: shrunk.case,
            shrink_steps: shrunk.steps,
            repro_path,
        });
    }
    report
}

/// Replay one repro file; `Err` carries the parse failure or divergence.
pub fn replay_file(path: &Path) -> Result<CaseOutcome, String> {
    let case = repro::load_file(path)?;
    run_case(&case).map_err(|d| format!("{}: {d}", path.display()))
}

/// Replay every `*.repro` file in `dir` (sorted by name; an absent or empty
/// directory passes vacuously). Returns the outcomes, or a message naming
/// every file that failed.
pub fn replay_dir(dir: &Path) -> Result<Vec<(PathBuf, CaseOutcome)>, String> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "repro"))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    let mut outcomes = Vec::with_capacity(files.len());
    let mut failures = Vec::new();
    for path in files {
        match replay_file(&path) {
            Ok(outcome) => outcomes.push((path, outcome)),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(outcomes)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        for seed in [0u64, 1, 7, 1234] {
            assert_eq!(gen::generate(seed), gen::generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn generated_cases_round_trip_through_repro_format() {
        for seed in 0..20u64 {
            let case = gen::generate(seed);
            let text = repro::to_text(&case);
            let parsed = repro::from_text(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(case, parsed, "seed {seed} did not round-trip");
        }
    }

    #[test]
    fn smoke_seeds_run_clean() {
        let report = fuzz(&FuzzOptions {
            start_seed: 0,
            seeds: 10,
            repro_dir: None,
            registry: Some(Registry::new_shared()),
        });
        assert_eq!(report.cases, 10);
        assert!(report.txns > 0);
        if let Some(d) = report.divergences.first() {
            panic!("seed {} diverged: {}", d.seed, d.divergence);
        }
    }

    #[test]
    fn fuzz_records_telemetry() {
        let reg = Registry::new_shared();
        let _ = fuzz(&FuzzOptions {
            start_seed: 100,
            seeds: 3,
            repro_dir: None,
            registry: Some(Arc::clone(&reg)),
        });
        assert_eq!(reg.counter_value(names::QA_CASES), 3);
        assert!(reg.counter_value(names::QA_TXNS) > 0);
    }

    #[test]
    fn repro_parser_rejects_malformed_input() {
        assert!(repro::from_text("").is_err(), "empty file");
        assert!(repro::from_text("version 2\n").is_err(), "future version");
        assert!(
            repro::from_text("version 1\ntable T0 cols=1 capacity=8 ordered=false rule=hash\nrow 0 1 = 2 3\n")
                .is_err(),
            "row wider than table"
        );
        assert!(
            repro::from_text("version 1\ntable T0 cols=1 capacity=8 ordered=false rule=hash\ntxn proc=0\n  op read t=0 key=c:0 col=0 out=0\n")
                .is_err(),
            "unterminated txn"
        );
    }
}
