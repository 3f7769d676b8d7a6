//! Partition-traffic bench: bytes allocated and wall-clock of the view
//! partition layer by tree depth.
//!
//! A child column carries only its surviving root event ids (4
//! bytes/event) plus sparse scale factors over the immutable root
//! columns. This bench builds the same UDT-ES tree depth-capped at 4, 8
//! and 12, records wall-clock per build, and annotates each measurement
//! with the total bytes the partition layer allocated
//! (`throughput_bytes` in the JSON written by `scripts/bench.sh` →
//! `BENCH_partition.json`). The deeper the tree, the more often every
//! root event is re-partitioned.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use udt_bench::{point_dataset, uncertain};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn config(depth: usize) -> UdtConfig {
    UdtConfig::new(Algorithm::UdtEs)
        .with_postprune(false)
        .with_max_depth(depth)
        // Let nodes split down to single tuples so the depth cap, not
        // the weight floor, decides how deep the partition cascade runs.
        .with_min_node_weight(0.5)
}

fn bench_partition_traffic(c: &mut Criterion) {
    let data = uncertain(&point_dataset("Iris", 1.0), 0.10, 24);
    let mut group = c.benchmark_group("partition_traffic");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &depth in &[4usize, 8, 12] {
        let builder = TreeBuilder::new(config(depth));
        // One instrumented build up front: the partition byte count is
        // deterministic, so it annotates every timed iteration.
        let report = builder.build(&data).expect("build succeeds");
        group.throughput(Throughput::Bytes(report.stats.partition_bytes));
        // The `_view` suffix keeps the ids of the BENCH_partition.json
        // trajectory.
        group.bench_function(&format!("depth{depth:02}_view"), |b| {
            b.iter(|| builder.build(&data).expect("build succeeds"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partition_traffic);
criterion_main!(benches);
