//! The build-pool determinism contract, property-tested.
//!
//! Builds must be **arena-bit-identical** regardless of how the work is
//! executed: for every thread count (1, 2, 4, 8) × fork depth (0 — every
//! child of the root deferred; 2 — a realistic mid-tree cut; 64 — no
//! forking at all within the depth cap), the work-queue build must
//! equal, bit for bit, the reference build (single thread, a fork depth
//! no node reaches, so no subtree is ever deferred). The
//! split-search counters must match too: no execution schedule may
//! change *what* the search computed, only when and where.
//!
//! Seeded ChaCha8 loops stand in for proptest (the build environment is
//! offline), mirroring the other regression suites in this directory.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use udt_data::synthetic::SyntheticSpec;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_data::Dataset;
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn seeded_dataset(seed: u64, tuples: usize, attributes: usize, s: usize) -> Dataset {
    let mut spec = SyntheticSpec::small(seed);
    spec.tuples = tuples;
    spec.attributes = attributes;
    let point_data = spec.generate().unwrap();
    inject_uncertainty(&point_data, &UncertaintySpec::baseline().with_s(s)).unwrap()
}

fn config(algorithm: Algorithm) -> UdtConfig {
    UdtConfig::new(algorithm)
        .with_postprune(false)
        // Low fork threshold so every fork depth produces real jobs.
        .with_parallel_min_fork_tuples(1)
}

#[test]
fn builds_are_bit_identical_across_thread_counts_forks_and_modes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9d5_001);
    for round in 0..2 {
        let seed: u64 = rng.gen();
        let tuples = 90 + round * 40;
        let data = seeded_dataset(seed, tuples, 4, 12);
        for algorithm in [Algorithm::UdtEs, Algorithm::Udt] {
            let reference = TreeBuilder::new(
                config(algorithm)
                    .with_parallel_cutoff_depth(usize::MAX)
                    .with_threads(1),
            )
            .build(&data)
            .unwrap();
            reference.tree.flat().validate().unwrap();
            for fork_depth in [0usize, 2, 64] {
                for threads in [1usize, 2, 4, 8] {
                    let report = TreeBuilder::new(
                        config(algorithm)
                            .with_parallel_cutoff_depth(fork_depth)
                            .with_threads(threads),
                    )
                    .build(&data)
                    .unwrap();
                    let label =
                        format!("{algorithm:?} seed {seed:#x} fork {fork_depth} threads {threads}");
                    assert_eq!(
                        report.tree.flat(),
                        reference.tree.flat(),
                        "{label}: arena must be bit-identical to the reference"
                    );
                    // The execution schedule may move work between
                    // threads but never change what was computed.
                    assert_eq!(
                        report.stats.entropy_like_calculations(),
                        reference.stats.entropy_like_calculations(),
                        "{label}: search counters must match"
                    );
                    assert_eq!(
                        report.stats.nodes_searched, reference.stats.nodes_searched,
                        "{label}: node counters must match"
                    );
                }
            }
        }
    }
}

// The `UDT_THREADS` env-override equivalence test lives in its own
// test binary (`tests/thread_env.rs`): `std::env::set_var` must not
// race the `std::env::var` reads the builds in this file perform from
// parallel test threads.
