//! Criterion micro-bench: the conflict log's registration and detection
//! paths, standard-sized vs large-sized buckets, cold vs hot keys. This
//! measures *host wall-clock* of the actual data structure (the simulated
//! latencies are Table VII's subject).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ltpg::conflict::TableLog;
use ltpg_gpu_sim::{Device, DeviceConfig};

fn bench_register(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::default());
    let mut group = c.benchmark_group("conflict_log/register_4096");
    for (label, s_u, hot) in
        [("spread_su1", 1usize, false), ("hot_su1", 1, true), ("hot_su32", 32, true)]
    {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut epoch = 1u32;
            b.iter(|| {
                let log = TableLog::new(1 << 13, s_u, 1);
                device.launch_indexed("reg", 4_096, |lane| {
                    let key = if hot { 7 } else { lane.global_id as i64 };
                    let _ = log.register_write(lane, black_box(key), lane.global_id as u64 + 1, epoch);
                });
                epoch += 1;
                black_box(&log);
            });
        });
    }
    group.finish();
}

fn bench_detect(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::default());
    let mut group = c.benchmark_group("conflict_log/min_write_4096");
    for (label, s_u) in [("su1", 1usize), ("su32", 32)] {
        let log = TableLog::new(1 << 13, s_u, 1);
        device.launch_indexed("seed", 4_096, |lane| {
            let _ = log.register_write(lane, (lane.global_id % 512) as i64, lane.global_id as u64 + 1, 1);
        });
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                device.launch_indexed("probe", 4_096, |lane| {
                    let m = log.min_write(lane, (lane.global_id % 512) as i64, 1);
                    black_box(m);
                });
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_register, bench_detect);
criterion_main!(benches);
