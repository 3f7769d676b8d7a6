//! Fig. 6 benchmark: tree-construction time of AVG, UDT, UDT-BP, UDT-LP,
//! UDT-GP and UDT-ES on the baseline uncertain workload — plus the
//! columnar-engine acceptance comparison against the checked-in naive
//! baseline.
//!
//! The paper's claim is about the *ordering* (UDT slowest, each pruning
//! stage faster, AVG fastest); absolute times depend on the machine and
//! the synthetic substrate. The `columnar_vs_naive` group measures the
//! engine refactor itself: the naive baseline rebuilds and re-sorts every
//! attribute's events at every node and scores candidates through cloned
//! counters, while the production engine presorts once at the root,
//! partitions stably, and scores over borrowed cumulative rows.
//!
//! Run `scripts/bench.sh` to execute this bench and capture the
//! measurement trajectory in `BENCH_split.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use udt_bench::baseline_workload;
use udt_tree::baseline::{
    naive_build_splits, naive_find_best, naive_pruned_find_best, NaiveAttributeEvents, NaiveSearch,
};
use udt_tree::columns::{self, Scratch};
use udt_tree::fractional::FractionalTuple;
use udt_tree::split::{es, exhaustive::ExhaustiveSearch, SearchStats, SplitSearch};
use udt_tree::{Algorithm, Measure, TreeBuilder, UdtConfig, WorkerPool};

fn bench_split_algorithms(c: &mut Criterion) {
    let data = baseline_workload(40);
    let mut group = c.benchmark_group("fig6_build_time");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for algorithm in Algorithm::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(algorithm.name()),
            &algorithm,
            |b, &algorithm| {
                let builder = TreeBuilder::new(UdtConfig::new(algorithm));
                b.iter(|| builder.build(&data).expect("build succeeds"));
            },
        );
    }
    group.finish();
}

/// The ISSUE acceptance comparison: full tree construction through the
/// columnar engine versus the checked-in naive per-node-rebuild baseline,
/// identical pre-pruning settings, no post-pruning on either side. Two
/// pairings:
///
/// * `udt_es_*` — the paper's flagship pruned algorithm (the production
///   default), where the naive engine's per-node re-sorting, per-position
///   counter allocations and clone-based bound math dominate;
/// * `udt_exhaustive_*` — the plain UDT scan, a lower bound on the
///   speedup since both engines pay the same irreducible entropy
///   evaluations.
fn bench_columnar_vs_naive(c: &mut Criterion) {
    let data = baseline_workload(100);
    let mut group = c.benchmark_group("columnar_vs_naive");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("udt_es_naive_rebuild", |b| {
        b.iter(|| {
            naive_build_splits(
                &data,
                Measure::Entropy,
                NaiveSearch::GlobalPruned(Some(0.10)),
                25,
                2.0,
                1e-6,
            )
        });
    });
    group.bench_function("udt_es_columnar", |b| {
        let builder = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs).with_postprune(false));
        b.iter(|| builder.build(&data).expect("build succeeds"));
    });
    group.bench_function("udt_exhaustive_naive_rebuild", |b| {
        b.iter(|| {
            naive_build_splits(
                &data,
                Measure::Entropy,
                NaiveSearch::Exhaustive,
                25,
                2.0,
                1e-6,
            )
        });
    });
    group.bench_function("udt_exhaustive_columnar", |b| {
        let builder = TreeBuilder::new(UdtConfig::new(Algorithm::Udt).with_postprune(false));
        b.iter(|| builder.build(&data).expect("build succeeds"));
    });
    group.finish();
}

/// The engine-level acceptance comparison: one node's complete split
/// search — prepare the per-attribute scoring structures, then find the
/// best split. The naive engine pays a rebuild (sort + one `ClassCounts`
/// allocation per position) every node; the columnar engine walks its
/// presorted columns linearly into event runs and end-point rows. The
/// root sort is excluded from the columnar side because the production
/// builder pays it exactly once per tree, not per node.
fn bench_node_search_step(c: &mut Criterion) {
    let data = baseline_workload(100);
    let tuples: Vec<FractionalTuple> = data
        .tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect();
    let labels: Vec<u32> = tuples.iter().map(|t| t.label as u32).collect();
    let numerical: Vec<usize> = data.schema().numerical_indices();
    let n_classes = data.n_classes();
    let root = columns::build_root_with(&tuples, &numerical, &WorkerPool::for_concurrency(1));
    let root_state = columns::root_state(&tuples, &root);
    let mut scratch = Scratch::new(tuples.len());
    scratch.load_weights(&root_state);

    let mut group = c.benchmark_group("node_search_step");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("es_naive_rebuild", |b| {
        b.iter(|| {
            let events: Vec<(usize, NaiveAttributeEvents)> = numerical
                .iter()
                .filter_map(|&j| NaiveAttributeEvents::build(&tuples, j, n_classes).map(|e| (j, e)))
                .collect();
            naive_pruned_find_best(&events, Measure::Entropy, Some(0.10))
        });
    });
    group.bench_function("es_columnar", |b| {
        b.iter(|| {
            let events: Vec<(usize, udt_tree::events::AttributeEvents)> = root_state
                .columns
                .iter()
                .zip(&root.columns)
                .filter_map(|(col, root_col)| {
                    columns::events_from_column(col, root_col, &labels, n_classes, &mut scratch)
                        .map(|e| (root_col.attribute, e))
                })
                .collect();
            let mut stats = SearchStats::default();
            es::search().find_best(&events, Measure::Entropy, &mut stats)
        });
    });
    group.bench_function("exhaustive_naive_rebuild", |b| {
        b.iter(|| {
            let events: Vec<(usize, NaiveAttributeEvents)> = numerical
                .iter()
                .filter_map(|&j| NaiveAttributeEvents::build(&tuples, j, n_classes).map(|e| (j, e)))
                .collect();
            naive_find_best(&events, Measure::Entropy)
        });
    });
    group.bench_function("exhaustive_columnar", |b| {
        b.iter(|| {
            let events: Vec<(usize, udt_tree::events::AttributeEvents)> = root_state
                .columns
                .iter()
                .zip(&root.columns)
                .filter_map(|(col, root_col)| {
                    columns::events_from_column(col, root_col, &labels, n_classes, &mut scratch)
                        .map(|e| (root_col.attribute, e))
                })
                .collect();
            let mut stats = SearchStats::default();
            ExhaustiveSearch.find_best(&events, Measure::Entropy, &mut stats)
        });
    });
    group.finish();
}

/// The raw score-kernel axis: pure candidate scoring (no event
/// construction, no search bookkeeping) over prebuilt root matrices,
/// reported as candidates per second. `scalar_f64` is a per-candidate
/// [`score_at`](udt_tree::events::AttributeEvents::score_at) loop (the
/// exact formula), `simd_f64` the batch entry point `score_range_into`,
/// which hands each attribute to the batch kernel. The `_f64` suffix
/// keeps the ids of the BENCH_split.json trajectory.
fn bench_score_kernel(c: &mut Criterion) {
    let data = baseline_workload(100);
    let tuples: Vec<FractionalTuple> = data
        .tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect();
    let n_classes = data.n_classes();
    let events: Vec<udt_tree::events::AttributeEvents> = (0..data.n_attributes())
        .filter_map(|j| udt_tree::events::AttributeEvents::build(&tuples, j, n_classes))
        .collect();
    let candidates: u64 = events.iter().map(|ev| (ev.n_positions() - 1) as u64).sum();
    let finite_sum = |scores: &[f64]| scores.iter().filter(|s| s.is_finite()).sum::<f64>();

    let mut group = c.benchmark_group("score_kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .throughput(criterion::Throughput::Elements(candidates));
    group.bench_function("scalar_f64", |b| {
        let mut scores = Vec::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for ev in &events {
                scores.clear();
                scores.extend((0..ev.n_positions() - 1).map(|i| ev.score_at(i, Measure::Entropy)));
                acc += finite_sum(&scores);
            }
            acc
        });
    });
    group.bench_function("simd_f64", |b| {
        let mut scores = Vec::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for ev in &events {
                ev.score_range_into(0..ev.n_positions() - 1, Measure::Entropy, &mut scores);
                acc += finite_sum(&scores);
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_split_algorithms,
    bench_columnar_vs_naive,
    bench_node_search_step,
    bench_score_kernel
);
criterion_main!(benches);
