//! Classification of uncertain test tuples (§3.2).
//!
//! A test tuple, like a training tuple, carries pdfs. Starting at the root
//! with weight 1, the tuple is fractionally divided at every internal node
//! it reaches: the "left" probability `p_L` is the mass of the tested
//! attribute's (current, possibly already restricted) pdf at or below the
//! split point, and the two fractions continue down the corresponding
//! subtrees with weights `w·p_L` and `w·(1 − p_L)` and with the tested
//! attribute's pdf restricted to the matching sub-domain. At a leaf, the
//! accumulated weight is multiplied into the leaf's class distribution.
//! The per-class sums over all leaves form the final distribution `P(c)`.
//!
//! ## One walk
//!
//! [`classify_batch`] is the only classification engine: an
//! explicit-stack walk over the arena for a whole slice of tuples. It
//! reuses every per-tuple buffer (frame stack, pdf-override delta chain,
//! accumulator) in a [`BatchScratch`], and skips pdf materialisation
//! entirely when a split is one-sided (`p_L` snaps to exactly `0.0` or
//! `1.0`, where [`SampledPdf::split_at`] would return an unmodified
//! clone, so reusing the current pdf reference is bit-for-bit exact).
//! Frames are visited in the depth-first, left-to-right order of the
//! recursive definition above, so the floating-point accumulation
//! matches a straightforward recursion to the last ulp;
//! `tests/batch_regression.rs` keeps such a recursion as a test oracle
//! and compares against it with `to_bits` equality.
//!
//! [`predict_distribution`] (one tuple, fresh scratch) is a thin wrapper
//! over the same walk, and so is [`DecisionTree::predict`].

use udt_data::Tuple;
use udt_prob::pdf::MASS_EPSILON;
use udt_prob::SampledPdf;

use crate::counts::WEIGHT_EPSILON;
use crate::flat::{FlatTree, NodeKind};
use crate::node::DecisionTree;
use crate::{Result, TreeError};

/// The most probable class of a distribution (ties resolve to the highest
/// index, matching the historical `predict` behaviour).
pub fn argmax_class(dist: &[f64]) -> usize {
    dist.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Classifies `tuple` with `tree`, returning the probability distribution
/// over class labels: [`classify_batch`] over a one-tuple slice with a
/// fresh scratch. Callers classifying many tuples should hold a
/// [`BatchScratch`] and call `classify_batch` directly.
///
/// Tuples whose arity does not match the tree are classified using the
/// overlapping attributes only (missing attributes send the whole weight
/// down both branches proportionally to the training distribution at that
/// node); in practice the evaluation harness always presents matching
/// tuples, and the mismatch path is exercised by unit tests.
///
/// # Errors
///
/// [`TreeError::NoClasses`] when the tree distinguishes zero classes:
/// there is no distribution to return.
pub fn predict_distribution(tree: &DecisionTree, tuple: &Tuple) -> Result<Vec<f64>> {
    classify_batch(tree, std::slice::from_ref(tuple), &mut BatchScratch::new())
}

// ------------------------------------------------------------ batch engine

/// Sentinel terminating a pdf-override delta chain.
const NO_LINK: u32 = u32::MAX;

/// One pending traversal step: a node, the fractional weight arriving at
/// it, and the head of its pdf-override delta chain.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: u32,
    weight: f64,
    link: u32,
}

/// One pdf restriction along a root→node path. Chains through `parent`
/// form a cactus stack: each frame sees exactly the overrides its own
/// ancestors installed, mirroring the save/restore discipline of a
/// recursive walk with a per-attribute override table. `pdf: None`
/// records a restriction that produced no usable pdf; such an entry
/// falls back to the tuple's original value, as an empty override slot
/// would.
#[derive(Debug)]
struct Delta {
    parent: u32,
    attr: u32,
    pdf: Option<SampledPdf>,
}

/// Reusable per-tuple buffers for [`classify_batch`]: the frame stack, the
/// pdf-override delta arena and the class accumulator. One `BatchScratch`
/// serves any number of `classify_batch` calls against any tree; buffers
/// grow to the high-water mark and are then reused allocation-free.
#[derive(Debug, Default)]
pub struct BatchScratch {
    stack: Vec<Frame>,
    deltas: Vec<Delta>,
    acc: Vec<f64>,
}

impl BatchScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

// Thread-safety audit for the serving layer: each classification slot
// owns a `BatchScratch` that moves from one connection thread to the
// next, and the threads share one `Arc<DecisionTree>` snapshot, so the
// scratch must be `Send` and the tree `Send + Sync`.
// All three hold only owned `Vec`s of plain data, but that is an
// implementation detail a future field could silently break — these
// compile-time assertions turn that into a build error here rather than
// an obscure one inside `udt-serve`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<BatchScratch>();
    assert_send_sync::<FlatTree>();
    assert_send_sync::<DecisionTree>();
};

/// Finds the innermost override for `attr` along the delta chain starting
/// at `link`. `None` means "no ancestor restricted this attribute".
fn lookup(deltas: &[Delta], mut link: u32, attr: u32) -> Option<&Option<SampledPdf>> {
    while link != NO_LINK {
        let d = &deltas[link as usize];
        if d.attr == attr {
            return Some(&d.pdf);
        }
        link = d.parent;
    }
    None
}

/// What a binary split does with the frame currently on top.
enum SplitStep {
    /// No usable pdf: fall back to training proportions.
    Missing,
    /// The pdf lies entirely on one side — descend there with the weight
    /// and pdf unchanged (bit-for-bit what `split_at`'s clamp-and-clone
    /// path produces, without the clone).
    OneSide(u32),
    /// A genuine fractional split, materialised through `split_at`.
    Divide {
        p_left: f64,
        left_pdf: Option<SampledPdf>,
        right_pdf: Option<SampledPdf>,
    },
}

/// Classifies every tuple of `tuples` with `tree`, returning the class
/// distributions as one row-major matrix (`tuples.len() × n_classes`).
///
/// This is the one classification walk (see the [module docs](self)): an
/// explicit-stack arena walk whose per-tuple buffers live in `scratch`
/// and are reused across tuples and calls. A tuple's row does not depend
/// on the rest of the batch or on the scratch's history, so
/// [`predict_distribution`] with a fresh scratch gives the same bits.
///
/// # Errors
///
/// [`TreeError::NoClasses`] when the tree distinguishes zero classes.
pub fn classify_batch(
    tree: &DecisionTree,
    tuples: &[Tuple],
    scratch: &mut BatchScratch,
) -> Result<Vec<f64>> {
    let k = tree.n_classes();
    if k == 0 {
        return Err(TreeError::NoClasses);
    }
    let flat = tree.flat();
    let mut out = Vec::with_capacity(tuples.len() * k);
    scratch.acc.clear();
    scratch.acc.resize(k, 0.0);
    for tuple in tuples {
        scratch.acc.iter_mut().for_each(|p| *p = 0.0);
        classify_one(flat, tuple, scratch);
        let total: f64 = scratch.acc.iter().sum();
        if total > WEIGHT_EPSILON {
            out.extend(scratch.acc.iter().map(|p| p / total));
        } else {
            out.extend(std::iter::repeat_n(1.0 / k as f64, k));
        }
    }
    Ok(out)
}

/// Runs the explicit-stack descent for one tuple, accumulating leaf mass
/// into `scratch.acc`.
fn classify_one(flat: &FlatTree, tuple: &Tuple, scratch: &mut BatchScratch) {
    scratch.stack.clear();
    scratch.deltas.clear();
    scratch.stack.push(Frame {
        node: FlatTree::ROOT as u32,
        weight: 1.0,
        link: NO_LINK,
    });
    while let Some(Frame { node, weight, link }) = scratch.stack.pop() {
        if weight <= WEIGHT_EPSILON {
            continue;
        }
        let node = node as usize;
        match flat.kind(node) {
            NodeKind::Leaf => {
                for (c, p) in flat.distribution_of(node).iter().enumerate() {
                    scratch.acc[c] += weight * p;
                }
            }
            NodeKind::Split => {
                let attribute = flat.attribute(node);
                let z = flat.split_point(node);
                let left = flat.child(node, 0) as u32;
                let right = flat.child(node, 1) as u32;
                let step = {
                    let pdf: Option<&SampledPdf> = if attribute < tuple.arity() {
                        match lookup(&scratch.deltas, link, attribute as u32) {
                            Some(Some(p)) => Some(p),
                            // An ancestor stored an empty restriction, or
                            // nothing was restricted: both resolve to the
                            // tuple's original value.
                            Some(None) | None => tuple.value(attribute).as_numeric(),
                        }
                    } else {
                        None
                    };
                    match pdf {
                        None => SplitStep::Missing,
                        Some(pdf) => {
                            // Same thresholds as `split_at`: below them it
                            // returns (0.0, None, clone) / (1.0, clone,
                            // None), i.e. the weight and pdf continue
                            // unchanged — so the fast path is exact.
                            let p = pdf.prob_le(z);
                            if p <= MASS_EPSILON {
                                SplitStep::OneSide(right)
                            } else if p >= 1.0 - MASS_EPSILON {
                                SplitStep::OneSide(left)
                            } else {
                                let (p_left, left_pdf, right_pdf) = pdf.split_at_with(z, p);
                                SplitStep::Divide {
                                    p_left,
                                    left_pdf,
                                    right_pdf,
                                }
                            }
                        }
                    }
                };
                match step {
                    SplitStep::Missing => {
                        let left_w = flat.total_of(left as usize);
                        let right_w = flat.total_of(right as usize);
                        let denom = (left_w + right_w)
                            .max(flat.total_of(node))
                            .max(WEIGHT_EPSILON);
                        // Left is visited first, so it is pushed last.
                        scratch.stack.push(Frame {
                            node: right,
                            weight: weight * right_w / denom,
                            link,
                        });
                        scratch.stack.push(Frame {
                            node: left,
                            weight: weight * left_w / denom,
                            link,
                        });
                    }
                    SplitStep::OneSide(child) => scratch.stack.push(Frame {
                        node: child,
                        weight,
                        link,
                    }),
                    SplitStep::Divide {
                        p_left,
                        left_pdf,
                        right_pdf,
                    } => {
                        let p_right = 1.0 - p_left;
                        if p_right > WEIGHT_EPSILON {
                            scratch.deltas.push(Delta {
                                parent: link,
                                attr: attribute as u32,
                                pdf: right_pdf,
                            });
                            scratch.stack.push(Frame {
                                node: right,
                                weight: weight * p_right,
                                link: (scratch.deltas.len() - 1) as u32,
                            });
                        }
                        if p_left > WEIGHT_EPSILON {
                            scratch.deltas.push(Delta {
                                parent: link,
                                attr: attribute as u32,
                                pdf: left_pdf,
                            });
                            scratch.stack.push(Frame {
                                node: left,
                                weight: weight * p_left,
                                link: (scratch.deltas.len() - 1) as u32,
                            });
                        }
                    }
                }
            }
            NodeKind::CategoricalSplit => {
                let attribute = flat.attribute(node);
                let children = flat.children_of(node);
                let dist = if attribute < tuple.arity() {
                    tuple.value(attribute).as_categorical()
                } else {
                    None
                };
                match dist {
                    Some(d) => {
                        // Reverse push so category 0 is visited first.
                        for v in (0..children.len()).rev() {
                            let p = d.prob(v);
                            if p > WEIGHT_EPSILON {
                                scratch.stack.push(Frame {
                                    node: children[v],
                                    weight: weight * p,
                                    link,
                                });
                            }
                        }
                    }
                    None => {
                        let total: f64 = children
                            .iter()
                            .map(|&c| flat.total_of(c as usize))
                            .sum::<f64>()
                            .max(flat.total_of(node))
                            .max(WEIGHT_EPSILON);
                        for v in (0..children.len()).rev() {
                            let share = flat.total_of(children[v] as usize) / total;
                            if share > WEIGHT_EPSILON {
                                scratch.stack.push(Frame {
                                    node: children[v],
                                    weight: weight * share,
                                    link,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::ClassCounts;
    use udt_data::{toy, UncertainValue};
    use udt_prob::DiscreteDist;

    /// The two-level tree of the paper's Fig. 1: root split at −1, right
    /// child split at +1. Each leaf stores `(a, b)` as both its counts
    /// and its distribution.
    fn fig1_tree() -> DecisionTree {
        let mut flat = FlatTree::new(2);
        let root = flat.push_split(0, -1.0, &ClassCounts::from_vec(vec![2.0, 2.0]));
        let left = flat.push_leaf_raw(&[0.2, 0.8], &[0.2, 0.8]);
        flat.set_child(root, 0, left);
        let right = flat.push_split(0, 1.0, &ClassCounts::from_vec(vec![1.0, 1.0]));
        flat.set_child(root, 1, right);
        let rl = flat.push_leaf_raw(&[0.8, 0.2], &[0.8, 0.2]);
        flat.set_child(right, 0, rl);
        let rr = flat.push_leaf_raw(&[0.3, 0.7], &[0.3, 0.7]);
        flat.set_child(right, 1, rr);
        DecisionTree::from_flat(flat, 1, vec!["A".into(), "B".into()])
    }

    /// A categorical root with one leaf per `(a, b)` row, stored as both
    /// counts and distribution.
    fn categorical_tree(root_counts: Vec<f64>, leaves: &[[f64; 2]]) -> DecisionTree {
        let mut flat = FlatTree::new(2);
        let root = flat.push_categorical(0, leaves.len(), &ClassCounts::from_vec(root_counts));
        for (v, leaf) in leaves.iter().enumerate() {
            let id = flat.push_leaf_raw(leaf, leaf);
            flat.set_child(root, v, id);
        }
        DecisionTree::from_flat(flat, 1, vec!["A".into(), "B".into()])
    }

    #[test]
    fn fig1_walkthrough_reproduces_the_papers_numbers() {
        // The Fig. 1 test tuple splits 0.3 / 0.7 at the root. Its right
        // fraction then splits again at +1. With the leaf distributions
        // above, the final distribution is a weighted sum of the three
        // leaves; we verify the mechanics: weights sum to 1 and the result
        // matches a hand computation.
        let tree = fig1_tree();
        let tuple = toy::fig1_test_tuple().unwrap();
        let dist = predict_distribution(&tree, &tuple).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Hand computation: p(left)=0.3 → leaf (0.2, 0.8).
        // Right mass 0.7 has conditional pdf over {0, 1, 2} with masses
        // {2/7, 3/7, 2/7}; at the second node p(≤1) = 5/7 → leaf (0.8, 0.2),
        // else 2/7 → leaf (0.3, 0.7).
        let expected_a = 0.3 * 0.2 + 0.7 * (5.0 / 7.0 * 0.8 + 2.0 / 7.0 * 0.3);
        assert!((dist[0] - expected_a).abs() < 1e-9);
        assert!((dist[1] - (1.0 - expected_a)).abs() < 1e-9);
    }

    #[test]
    fn point_tuples_follow_a_single_path() {
        let tree = fig1_tree();
        let t = udt_data::Tuple::from_points(&[-2.0], 0);
        let dist = predict_distribution(&tree, &t).unwrap();
        assert_eq!(dist, vec![0.2, 0.8]);
        let t = udt_data::Tuple::from_points(&[0.5], 0);
        let dist = predict_distribution(&tree, &t).unwrap();
        assert_eq!(dist, vec![0.8, 0.2]);
        let t = udt_data::Tuple::from_points(&[1.5], 0);
        let dist = predict_distribution(&tree, &t).unwrap();
        assert_eq!(dist, vec![0.3, 0.7]);
    }

    #[test]
    fn restriction_is_honoured_on_repeated_tests_of_the_same_attribute() {
        // After the root split at −1, the right fraction's pdf must be the
        // conditional pdf (mass renormalised over values > −1); the second
        // test at +1 then sees 5/7 on its left. If the pdf were NOT
        // restricted, the second test would see 0.6/0.7 instead — this test
        // locks in the correct behaviour.
        let tree = fig1_tree();
        let tuple = toy::fig1_test_tuple().unwrap();
        let dist = predict_distribution(&tree, &tuple).unwrap();
        let wrong_a = 0.3 * 0.2 + 0.7 * (0.6 / 0.7 * 0.8 + 0.1 / 0.7 * 0.3);
        assert!(
            (dist[0] - wrong_a).abs() > 1e-3,
            "pdf restriction must be applied"
        );
    }

    #[test]
    fn missing_attribute_falls_back_to_training_proportions() {
        let tree = fig1_tree();
        // A tuple with no attributes at all: weight is distributed by the
        // training counts stored in the nodes.
        let t = udt_data::Tuple::new(vec![], 0);
        let dist = predict_distribution(&tree, &t).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(dist.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn categorical_tree_distributes_by_category_probability() {
        let tree = categorical_tree(vec![1.0, 1.0], &[[1.0, 0.0], [0.0, 1.0]]);
        let tuple = udt_data::Tuple::new(
            vec![UncertainValue::Categorical(
                DiscreteDist::new(vec![0.3, 0.7]).unwrap(),
            )],
            0,
        );
        let dist = predict_distribution(&tree, &tuple).unwrap();
        assert!((dist[0] - 0.3).abs() < 1e-12);
        assert!((dist[1] - 0.7).abs() < 1e-12);
        // A numeric value hitting a categorical node uses training
        // proportions.
        let t = udt_data::Tuple::from_points(&[5.0], 0);
        let dist = predict_distribution(&tree, &t).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_class_trees_are_rejected_instead_of_returning_empty_uniform() {
        // A hand-assembled degenerate tree over zero classes used to
        // produce `vec![1.0 / n; 0]` silently; it is now an explicit
        // error on every classification path.
        let mut flat = FlatTree::new(0);
        flat.push_leaf(&ClassCounts::new(0));
        let tree = DecisionTree::from_flat(flat, 1, vec![]);
        let t = udt_data::Tuple::from_points(&[0.0], 0);
        assert!(matches!(
            predict_distribution(&tree, &t),
            Err(TreeError::NoClasses)
        ));
        assert!(matches!(tree.predict(&t), Err(TreeError::NoClasses)));
        let mut scratch = BatchScratch::new();
        assert!(matches!(
            classify_batch(&tree, std::slice::from_ref(&t), &mut scratch),
            Err(TreeError::NoClasses)
        ));
    }

    #[test]
    fn batch_matches_single_tuple_bit_for_bit() {
        let tree = fig1_tree();
        let tuples = vec![
            toy::fig1_test_tuple().unwrap(),
            udt_data::Tuple::from_points(&[-2.0], 0),
            udt_data::Tuple::from_points(&[0.5], 0),
            udt_data::Tuple::from_points(&[1.5], 0),
            udt_data::Tuple::new(vec![], 0),
        ];
        let mut scratch = BatchScratch::new();
        let batch = classify_batch(&tree, &tuples, &mut scratch).unwrap();
        assert_eq!(batch.len(), tuples.len() * tree.n_classes());
        for (i, t) in tuples.iter().enumerate() {
            let single = predict_distribution(&tree, t).unwrap();
            let row = &batch[i * tree.n_classes()..(i + 1) * tree.n_classes()];
            for (a, b) in row.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "tuple {i}");
            }
        }
        // The scratch is reusable across calls.
        let again = classify_batch(&tree, &tuples, &mut scratch).unwrap();
        assert_eq!(batch, again);
    }

    #[test]
    fn batch_on_a_categorical_tree_matches_single() {
        let tree = categorical_tree(vec![2.0, 2.0], &[[1.0, 0.5], [0.5, 1.0], [0.5, 0.5]]);
        let tuples = vec![
            udt_data::Tuple::new(
                vec![UncertainValue::Categorical(
                    DiscreteDist::new(vec![0.2, 0.5, 0.3]).unwrap(),
                )],
                0,
            ),
            udt_data::Tuple::from_points(&[5.0], 0),
            udt_data::Tuple::new(vec![], 1),
        ];
        let mut scratch = BatchScratch::new();
        let batch = classify_batch(&tree, &tuples, &mut scratch).unwrap();
        for (i, t) in tuples.iter().enumerate() {
            let single = predict_distribution(&tree, t).unwrap();
            let row = &batch[i * 2..(i + 1) * 2];
            for (a, b) in row.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "tuple {i}");
            }
        }
    }

    #[test]
    fn argmax_resolves_ties_like_the_historical_predict() {
        assert_eq!(argmax_class(&[0.5, 0.5]), 1, "max_by keeps the last max");
        assert_eq!(argmax_class(&[0.7, 0.3]), 0);
        assert_eq!(argmax_class(&[]), 0);
    }
}
