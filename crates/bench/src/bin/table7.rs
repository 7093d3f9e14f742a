//! **Table VII** — latency (µs) of marking and reading TIDs in the
//! conflict log, standard-sized (`s_u = 1`) vs large-sized (`s_u = 32`)
//! buckets, across thread scale {1024×1024, 512×512} and hash-table size
//! {1, 32, 512}.
//!
//! This is the micro-benchmark behind the dynamic-bucket design: with one
//! slot, concurrent `atomicMin`s on a hot bucket serialize (wait time on
//! the critical path); with 32 slots the atomics spread out.

use ltpg::conflict::TableLog;
use ltpg_gpu_sim::{Device, DeviceConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    threads: usize,
    hash_table: usize,
    bucket_size: usize,
    total_us: f64,
    mark_us: f64,
    read_us: f64,
}

fn run(threads: usize, s_h: usize, s_u: usize) -> (f64, f64) {
    let device = Device::new(DeviceConfig::default());
    // Probe width 1: one lane walks buckets and slots serially.
    let log = TableLog::new(s_h, s_u, 1);
    // Mark: every lane registers its TID against key (lane % s_h) — the
    // distinct-key count equals the hash-table size, as in the paper.
    let mark = device.launch_indexed("mark", threads, |lane| {
        let key = (lane.global_id % s_h) as i64;
        let _ = log.register_write(lane, key, lane.global_id as u64 + 1, 1);
    });
    // Read: every lane reads back the minimum for its key.
    let read = device.launch_indexed("read", threads, |lane| {
        let key = (lane.global_id % s_h) as i64;
        let min = log.min_write(lane, key, 1);
        assert!(min.is_some());
    });
    (mark.sim_ns / 1e3, read.sim_ns / 1e3)
}

fn main() {
    let scales: &[(usize, &str)] = &[(1024 * 1024, "1,024x1,024"), (512 * 512, "512x512")];
    let tables: &[usize] = &[1, 32, 512];
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for &(threads, label) in scales {
        let mut row = vec![label.to_string()];
        for &s_h in tables {
            let mut cell = Vec::new();
            for s_u in [1usize, 32] {
                let (mark, read) = run(threads, s_h, s_u);
                cell.push(format!("({:.0},{:.0},{:.0})", mark + read, mark, read));
                records.push(Cell {
                    threads,
                    hash_table: s_h,
                    bucket_size: s_u,
                    total_us: mark + read,
                    mark_us: mark,
                    read_us: read,
                });
            }
            row.push(cell.join(" "));
        }
        rows.push(row);
    }
    print_table(
        "Table VII — (total, mark, read) latency us; per cell: s_u=1 then s_u=32",
        &[
            "Grid x Block".to_string(),
            "hash table = 1".to_string(),
            "hash table = 32".to_string(),
            "hash table = 512".to_string(),
        ],
        &rows,
    );
    write_json("table7", &records);
}

use ltpg_bench::{print_table, write_json};
