//! Serving-path throughput: one `classify_batch` call per slice with a
//! reused scratch, against the per-call API.
//!
//! Both sides run the same arena walk (`predict_distribution` is
//! `classify_batch` over a one-tuple slice) and produce bit-for-bit
//! identical distributions. The `single_*` arms call the per-call API
//! once per tuple, so every call builds a fresh [`BatchScratch`] (frame
//! stack, pdf-override delta arena, accumulator) and a one-row result;
//! the `batch_*` arms classify the whole slice through one scratch that
//! stays warm across calls. The ratio is what holding a scratch across
//! a batch saves, not a comparison of two engines.
//! `scripts/bench.sh` writes these measurements to `BENCH_classify.json`
//! and prints the per-call-vs-batch ratios.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use udt_bench::baseline_workload;
use udt_tree::classify::{classify_batch, BatchScratch};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn bench_classify_throughput(c: &mut Criterion) {
    let data = baseline_workload(60);
    let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs))
        .build(&data)
        .expect("build succeeds")
        .tree;
    let averaged = data.to_averaged();

    let mut group = c.benchmark_group("classify_throughput");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    // Uncertain tuples: full fractional propagation with pdf restriction.
    group.bench_function("single_uncertain", |b| {
        b.iter(|| {
            data.tuples()
                .iter()
                .map(|t| tree.predict_distribution(t).expect("tree has classes")[0])
                .sum::<f64>()
        });
    });
    group.bench_function("batch_uncertain", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| classify_batch(&tree, data.tuples(), &mut scratch).expect("tree has classes")[0]);
    });

    // Point (averaged) tuples: every split is one-sided, the batch walk
    // never materialises a pdf.
    group.bench_function("single_point", |b| {
        b.iter(|| {
            averaged
                .tuples()
                .iter()
                .map(|t| tree.predict_distribution(t).expect("tree has classes")[0])
                .sum::<f64>()
        });
    });
    group.bench_function("batch_point", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| {
            classify_batch(&tree, averaged.tuples(), &mut scratch).expect("tree has classes")[0]
        });
    });
    group.finish();
}

criterion_group!(benches, bench_classify_throughput);
criterion_main!(benches);
