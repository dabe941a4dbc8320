//! Criterion benches for the storage engine: append throughput at both
//! ends of the group-commit window (the durability ablation) and
//! point-read latency.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wedge_storage::{LogStore, StoreConfig, SyncPolicy};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wedge-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_append_sync_policies(c: &mut Criterion) {
    let record = vec![0xEEu8; 1088];
    let mut group = c.benchmark_group("append_1kb");
    group.throughput(Throughput::Bytes(record.len() as u64));
    group.sample_size(20);
    // A sync on every append vs. none until rotation: the two ends of the
    // group-commit window.
    for (name, max_batches) in [("every_append", 1), ("unbounded", usize::MAX)] {
        let store = LogStore::open(
            scratch(name),
            StoreConfig {
                sync: SyncPolicy::GroupCommit {
                    max_batches,
                    max_delay: Duration::from_millis(2),
                },
                ..Default::default()
            },
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, s| {
            b.iter(|| s.append(&record).unwrap())
        });
    }
    group.finish();
}

fn bench_batch_append(c: &mut Criterion) {
    let batch: Vec<Vec<u8>> = (0..100).map(|_| vec![0xEEu8; 1088]).collect();
    let store = LogStore::open(scratch("batch"), StoreConfig::default()).unwrap();
    let mut group = c.benchmark_group("append_batch_100x1kb");
    group.throughput(Throughput::Elements(100));
    group.sample_size(20);
    group.bench_function("batch", |b| b.iter(|| store.append_batch(&batch).unwrap()));
    group.finish();
}

fn bench_point_reads(c: &mut Criterion) {
    let store = LogStore::open(scratch("reads"), StoreConfig::default()).unwrap();
    for i in 0..10_000u32 {
        store
            .append(format!("record-{i}-{}", "x".repeat(1000)).as_bytes())
            .unwrap();
    }
    store.sync().unwrap();
    let mut group = c.benchmark_group("point_read_1kb");
    let mut i = 0u64;
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let data = store.read(i % 10_000).unwrap();
            i += 1;
            data
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_append_sync_policies,
    bench_batch_append,
    bench_point_reads
);
criterion_main!(benches);
