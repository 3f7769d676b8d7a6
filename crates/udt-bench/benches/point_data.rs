//! §7.5 benchmark: applying the bounding / end-point-sampling techniques to
//! plain point data. With many tuples, UDT-ES reduces the number of
//! entropy computations relative to the exhaustive classical search.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use udt_bench::point_dataset;
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn bench_point_data(c: &mut Criterion) {
    // A larger point-valued workload (no pdfs): the "Segment" stand-in.
    let data = point_dataset("Segment", 0.3);
    let mut group = c.benchmark_group("section7_5_point_data");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for algorithm in [Algorithm::Udt, Algorithm::UdtGp, Algorithm::UdtEs] {
        group.bench_with_input(
            BenchmarkId::from_parameter(algorithm.name()),
            &algorithm,
            |b, &algorithm| {
                b.iter(|| {
                    TreeBuilder::new(UdtConfig::new(algorithm))
                        .build(&data.to_averaged())
                        .expect("build succeeds")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_point_data);
criterion_main!(benches);
