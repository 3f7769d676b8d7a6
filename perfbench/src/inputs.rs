//! The generated inputs every workload shares, and the checks that a
//! seed produced a workload of the documented shape.
//!
//! The data set is the Table 2 stand-in with its own generator seed;
//! the workload seed picks the train/test splits. Regenerating the data
//! set per seed would move the cluster layout, and with it the tree's
//! size: build time ranged from 160 to 265 ms across four data seeds,
//! more than any bound can absorb. The program under test only ever
//! sees the generated tuples.

use udt_data::repository::by_name;
use udt_data::split::train_test_split;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_data::{Dataset, Tuple};
use udt_obs::trace;
use udt_prob::ErrorModel;

use crate::stats::timed;

/// Table 2 data set the inputs stand in for.
pub const DATASET: &str = "Segment";
/// Share of the published tuple count generated (1,155 of 2,310).
pub const SCALE: f64 = 0.5;
/// Uncertainty width as a share of each attribute's range.
pub const W: f64 = 0.10;
/// Sample points per pdf.
pub const S: usize = 64;
/// Share of the tuples used for training; the rest are held out.
pub const TRAIN_FRACTION: f64 = 0.7;
/// Training sets (splits) a `train_es` run cycles through, so that one
/// run's build time is an average over splits rather than one split's.
pub const FOLDS: usize = 4;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 5;
/// A second seed, kept apart for re-checking a claim made on the first.
pub const CHECK_SEED: u64 = 2009;

/// Shape every seed must produce (Segment at 50 %: 19 attributes,
/// 7 classes, 1,155 tuples split 809 / 346).
const TUPLES: usize = 1155;
const TRAIN_TUPLES: usize = 809;
const ATTRIBUTES: usize = 19;
const CLASSES: usize = 7;

/// Request line sizes measured on [`DEFAULT_SEED`]; every seed must be
/// within [`BYTES_TOLERANCE`] of them, so that a seed cannot silently
/// change how much the codec has to do.
const REF_POINT_REQUEST_BYTES: f64 = 1422.3;
const REF_BATCH_REQUEST_BYTES_PER_TUPLE: f64 = 71781.8;
const BYTES_TOLERANCE: f64 = 0.05;

/// Held-out accuracy (correct, total) of the UDT-ES model on the two
/// documented seeds. Builds are deterministic, so a run on one of these
/// seeds that classifies differently is a wrong answer.
const ACCURACY_REFERENCE: [(u64, usize, usize); 2] =
    [(DEFAULT_SEED, 346, 346), (CHECK_SEED, 346, 346)];

/// Generated inputs plus how long each generation step took.
pub struct Inputs {
    /// Uncertain training sets, one per split; the first is the one the
    /// served model is built from.
    pub folds: Vec<Dataset>,
    /// Uncertain tuples held out of the first training set.
    pub test: Dataset,
    /// The held-out tuples averaged to points.
    pub test_points: Vec<Tuple>,
    pub generate_s: f64,
    pub inject_s: f64,
}

/// The split seed of training set `fold` (the workload seed itself for
/// the first).
fn split_seed(seed: u64, fold: usize) -> u64 {
    seed.wrapping_add((fold as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Generates the point data, injects uncertainty and makes `folds`
/// train/test splits of it.
pub fn make_inputs(seed: u64, folds: usize) -> Result<Inputs, String> {
    let spec = by_name(DATASET).ok_or_else(|| format!("unknown data set {DATASET}"))?;
    let (points, generate_s) = timed(|| {
        let _span = trace::span("data.generate", "perfbench");
        spec.generate(SCALE)
    });
    let points = points.map_err(|e| format!("generate: {e}"))?;
    let uncertainty = UncertaintySpec {
        w: W,
        s: S,
        model: ErrorModel::Gaussian,
    };
    let (uncertain, inject_s) = timed(|| {
        let _span = trace::span("data.inject", "perfbench");
        inject_uncertainty(&points, &uncertainty)
    });
    let uncertain = uncertain.map_err(|e| format!("inject: {e}"))?;
    let mut train = Vec::with_capacity(folds);
    let mut held_out = None;
    for fold in 0..folds {
        let _span = trace::span("data.split", "perfbench");
        let split = train_test_split(&uncertain, TRAIN_FRACTION, split_seed(seed, fold))
            .map_err(|e| format!("split: {e}"))?;
        held_out.get_or_insert(split.test);
        train.push(split.train);
    }
    let test: Dataset = held_out.ok_or("no training set asked for")?;
    let test_points = test.tuples().iter().map(Tuple::to_averaged).collect();
    Ok(Inputs {
        folds: train,
        test,
        test_points,
        generate_s,
        inject_s,
    })
}

/// Everything wrong with the shape of `inputs` and the request sizes it
/// leads to; empty when the workload has the documented shape.
pub fn shape_problems(
    inputs: &Inputs,
    point_request_bytes: f64,
    batch_request_bytes_per_tuple: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |what: &str, got: usize, want: usize| {
        if got != want {
            problems.push(format!("{what}: got {got}, expected {want}"));
        }
    };
    let train = &inputs.folds[0];
    expect("tuples", train.len() + inputs.test.len(), TUPLES);
    expect("training tuples", train.len(), TRAIN_TUPLES);
    expect("attributes", train.n_attributes(), ATTRIBUTES);
    expect("classes", train.n_classes(), CLASSES);
    expect(
        "training samples",
        train.total_samples(),
        TRAIN_TUPLES * ATTRIBUTES * S,
    );
    for (what, got, want) in [
        (
            "point request bytes",
            point_request_bytes,
            REF_POINT_REQUEST_BYTES,
        ),
        (
            "batch request bytes per tuple",
            batch_request_bytes_per_tuple,
            REF_BATCH_REQUEST_BYTES_PER_TUPLE,
        ),
    ] {
        if (got / want - 1.0).abs() > BYTES_TOLERANCE {
            problems.push(format!(
                "{what}: got {got:.0}, expected {want:.0} within {:.0}%",
                BYTES_TOLERANCE * 100.0
            ));
        }
    }
    problems
}

/// A mismatch against the recorded accuracy for `seed`, if it has one.
pub fn accuracy_problem(seed: u64, correct: usize, total: usize) -> Option<String> {
    ACCURACY_REFERENCE
        .iter()
        .find(|(s, _, _)| *s == seed)
        .filter(|&&(_, c, t)| (c, t) != (correct, total))
        .map(|&(_, c, t)| {
            format!("held-out accuracy {correct}/{total} differs from the recorded {c}/{t}")
        })
}
