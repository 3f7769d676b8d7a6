//! Serve-path accuracy parity (ISSUE 4 satellite).
//!
//! The evaluation harness (`udt_eval::accuracy::evaluate`) classifies
//! through the in-process batch engine. Production traffic goes through
//! `udt-serve`'s socket + classification gate instead. This test
//! proves the two paths agree *exactly* on a non-trivial uncertain
//! workload: identical per-tuple distributions (to the bit), identical
//! predicted labels, identical accuracy.

use std::sync::Arc;

use udt_data::repository::by_name;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_eval::accuracy::evaluate;
use udt_serve::{Client, ModelRegistry, ServeConfig, Server};
use udt_tree::classify::argmax_class;
use udt_tree::{classify_batch, Algorithm, BatchScratch, TreeBuilder, UdtConfig};

#[test]
fn served_evaluation_matches_the_direct_engine_exactly() {
    // A scaled "Iris"-shaped workload with injected Gaussian pdfs: big
    // enough to produce a real multi-level tree and genuinely fractional
    // classifications.
    let base = by_name("Iris")
        .expect("repository has Iris")
        .generate(0.25)
        .expect("generation succeeds");
    let data = inject_uncertainty(&base, &UncertaintySpec::baseline().with_s(12))
        .expect("uncertainty injection succeeds");
    let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs))
        .build(&data)
        .expect("build succeeds")
        .tree;
    let k = tree.n_classes();

    // Direct engine: what `evaluate` uses internally.
    let direct_result = evaluate(&tree, &data);
    let mut scratch = BatchScratch::new();
    let direct = classify_batch(&tree, data.tuples(), &mut scratch).expect("direct batch");

    // Serving path: same tree behind a loopback socket.
    let registry = Arc::new(ModelRegistry::new());
    registry.insert_tree("iris", tree).expect("fresh name");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(&config, registry).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("clean run"));

    let mut client = Client::connect(addr).expect("connect");
    let (served, served_labels) = client
        .classify_batch("iris", data.tuples())
        .expect("served batch");

    // Bit-for-bit distribution parity, label parity, accuracy parity.
    let mut served_correct = 0usize;
    for (i, tuple) in data.tuples().iter().enumerate() {
        let expected = &direct[i * k..(i + 1) * k];
        for (a, b) in served[i].iter().zip(expected) {
            assert_eq!(a.to_bits(), b.to_bits(), "tuple {i}");
        }
        assert_eq!(served_labels[i], argmax_class(expected), "label {i}");
        if served_labels[i] == tuple.label() {
            served_correct += 1;
        }
    }
    assert_eq!(
        served_correct, direct_result.correct,
        "served accuracy equals evaluate()'s accuracy"
    );
    assert_eq!(direct_result.n, data.len());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
