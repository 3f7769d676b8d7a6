//! C4.5-style pessimistic post-pruning.
//!
//! The paper applies "the techniques of prepruning and postpruning"
//! (§4.1, footnote 3) citing C4.5. This module implements pessimistic
//! error pruning on the (fractional) training counts stored in every node:
//! a subtree is replaced by a leaf whenever the leaf's pessimistic error
//! estimate does not exceed the sum of its leaves' pessimistic errors. The
//! pessimistic estimate inflates the observed error rate by `z` standard
//! errors of a binomial proportion (C4.5's 25 % confidence level
//! corresponds to `z ≈ 0.6745`).
//!
//! Pruning operates **directly on the arena**: because children always
//! carry larger indices than their parent (see [`FlatTree`]'s layout
//! invariants), one reverse index loop visits every node after all of its
//! descendants — the same bottom-up order as a children-first recursion,
//! with the per-subtree error sums memoised instead of recomputed. The
//! test module keeps such a recursion over the arena as a reference, and
//! an equivalence test pins the two to each other bit for bit.

use crate::counts::CountsView;
use crate::flat::{FlatTree, NodeKind};
use crate::node::DecisionTree;

/// The pessimistic-error z-factor the builder prunes with: C4.5's
/// default 25 % confidence level.
pub const CONFIDENCE_Z: f64 = 0.6745;

/// Pessimistic (upper-confidence) number of errors for a leaf holding
/// `counts`, using the Wilson-style upper bound on the binomial error rate
/// that C4.5's error-based pruning is built on:
///
/// ```text
/// e = ( f + z²/2N + z·√(f/N − f²/N + z²/4N²) ) / ( 1 + z²/N )
/// ```
///
/// where `f` is the observed error rate and `N` the (fractional) tuple
/// weight at the leaf. Unlike a plain normal approximation this bound is
/// strictly positive even for error-free leaves, which is what makes the
/// pruning favour fewer leaves when a split adds no real information.
fn pessimistic_errors(counts: CountsView<'_>, z: f64) -> f64 {
    let n = counts.total();
    if n <= 0.0 {
        return 0.0;
    }
    let errors = n - counts.get(counts.majority());
    let f = (errors / n).clamp(0.0, 1.0);
    let z2 = z * z;
    let numerator = f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).sqrt();
    let rate = (numerator / (1.0 + z2 / n)).min(1.0);
    n * rate
}

/// Applies pessimistic post-pruning to the arena of `tree`, returning the
/// number of nodes removed.
pub fn prune(tree: &mut DecisionTree, z: f64) -> usize {
    prune_flat(tree.flat_mut(), z)
}

/// Prunes a [`FlatTree`] in place: one reverse pass memoises per-subtree
/// pessimistic errors and marks collapsing nodes, then a single preorder
/// compaction rebuilds the arena without the removed descendants.
pub fn prune_flat(flat: &mut FlatTree, z: f64) -> usize {
    let n = flat.len();
    // err[i]: pessimistic error of the (already pruned) subtree at i.
    let mut err = vec![0.0f64; n];
    // sizes[i]: node count of the (already pruned) subtree at i.
    let mut sizes = vec![1usize; n];
    let mut collapsed = vec![false; n];
    let mut removed = 0usize;
    for i in (0..n).rev() {
        let view = flat.counts_of(i);
        if flat.kind(i) == NodeKind::Leaf {
            err[i] = pessimistic_errors(view, z);
            continue;
        }
        let mut as_subtree = 0.0f64;
        let mut size = 1usize;
        for &c in flat.children_of(i) {
            debug_assert!(c as usize > i, "children must follow their parent");
            as_subtree += err[c as usize];
            size += sizes[c as usize];
        }
        let as_leaf = pessimistic_errors(view, z);
        if as_leaf <= as_subtree + 1e-9 {
            collapsed[i] = true;
            err[i] = as_leaf;
            removed += size - 1;
        } else {
            err[i] = as_subtree;
            sizes[i] = size;
        }
    }
    if removed > 0 {
        *flat = compact(flat, &collapsed);
    }
    removed
}

/// Rebuilds the arena in preorder, replacing every collapsed node by a
/// leaf derived from its training counts and dropping its descendants. Surviving leaves are copied verbatim.
fn compact(flat: &FlatTree, collapsed: &[bool]) -> FlatTree {
    fn copy(flat: &FlatTree, id: usize, collapsed: &[bool], out: &mut FlatTree) -> usize {
        if collapsed[id] {
            return out.push_leaf(&flat.counts_of(id).to_counts());
        }
        match flat.kind(id) {
            NodeKind::Leaf => {
                out.push_leaf_raw(flat.counts_of(id).as_slice(), flat.distribution_of(id))
            }
            NodeKind::Split => {
                let counts = flat.counts_of(id).to_counts();
                let nid = out.push_split(flat.attribute(id), flat.split_point(id), &counts);
                for slot in 0..2 {
                    let c = copy(flat, flat.child(id, slot), collapsed, out);
                    out.set_child(nid, slot, c);
                }
                nid
            }
            NodeKind::CategoricalSplit => {
                let counts = flat.counts_of(id).to_counts();
                let n_children = flat.children_of(id).len();
                let nid = out.push_categorical(flat.attribute(id), n_children, &counts);
                for slot in 0..n_children {
                    let c = copy(flat, flat.child(id, slot), collapsed, out);
                    out.set_child(nid, slot, c);
                }
                nid
            }
        }
    }
    let mut out = FlatTree::new(flat.n_classes());
    copy(flat, FlatTree::ROOT, collapsed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::ClassCounts;

    /// The recursive reference for [`prune_flat`]: prunes the subtree at
    /// `id` children first into a standalone preorder fragment and
    /// recomputes each subtree's pessimistic error from its leaves
    /// instead of memoising it. Returns the fragment and the number of
    /// nodes removed.
    fn prune_reference(flat: &FlatTree, id: usize, z: f64) -> (FlatTree, usize) {
        let mut out = FlatTree::new(flat.n_classes());
        let counts = flat.counts_of(id).to_counts();
        if flat.kind(id) == NodeKind::Leaf {
            out.push_leaf_raw(counts.as_slice(), flat.distribution_of(id));
            return (out, 0);
        }
        let mut removed = 0;
        let children: Vec<FlatTree> = flat
            .children_of(id)
            .iter()
            .map(|&c| {
                let (fragment, r) = prune_reference(flat, c as usize, z);
                removed += r;
                fragment
            })
            .collect();
        let as_subtree: f64 = children
            .iter()
            .map(|c| leaf_errors(c, FlatTree::ROOT, z))
            .sum();
        if pessimistic_errors(counts.as_view(), z) <= as_subtree + 1e-9 {
            out.push_leaf(&counts);
            removed += children.iter().map(FlatTree::len).sum::<usize>();
            return (out, removed);
        }
        let parent = match flat.kind(id) {
            NodeKind::Split => out.push_split(flat.attribute(id), flat.split_point(id), &counts),
            _ => out.push_categorical(flat.attribute(id), children.len(), &counts),
        };
        for (slot, child) in children.iter().enumerate() {
            let c = out.graft(child);
            out.set_child(parent, slot, c);
        }
        (out, removed)
    }

    /// Pessimistic error of the subtree at `id`: the sum over its leaves.
    fn leaf_errors(flat: &FlatTree, id: usize, z: f64) -> f64 {
        match flat.kind(id) {
            NodeKind::Leaf => pessimistic_errors(flat.counts_of(id), z),
            _ => flat
                .children_of(id)
                .iter()
                .map(|&c| leaf_errors(flat, c as usize, z))
                .sum(),
        }
    }

    /// Appends a binary split on attribute 0 with two leaf children;
    /// `counts` holds the split's, the left leaf's and the right leaf's
    /// class counts. Returns the split's id.
    fn push_stump(flat: &mut FlatTree, split: f64, counts: [Vec<f64>; 3]) -> usize {
        let [own, left, right] = counts;
        let id = flat.push_split(0, split, &ClassCounts::from_vec(own));
        let l = flat.push_leaf(&ClassCounts::from_vec(left));
        flat.set_child(id, 0, l);
        let r = flat.push_leaf(&ClassCounts::from_vec(right));
        flat.set_child(id, 1, r);
        id
    }

    fn tree(flat: FlatTree) -> DecisionTree {
        flat.validate().unwrap();
        DecisionTree::from_flat(flat, 1, vec!["a".into(), "b".into()])
    }

    #[test]
    fn pessimistic_errors_increase_with_z_and_errors() {
        let counts = ClassCounts::from_vec(vec![8.0, 2.0]);
        let optimistic = pessimistic_errors(counts.as_view(), 0.0);
        let pessimistic = pessimistic_errors(counts.as_view(), 1.0);
        assert!(
            (optimistic - 2.0).abs() < 1e-9,
            "z = 0 gives the raw error count"
        );
        assert!(pessimistic > optimistic);
        // A pure leaf is charged a small positive pessimistic error (the
        // upper confidence bound on an error rate observed as zero), which
        // is what penalises gratuitous extra leaves.
        let pure = ClassCounts::from_vec(vec![5.0, 0.0]);
        let pure_err = pessimistic_errors(pure.as_view(), 1.0);
        assert!(pure_err > 0.0 && pure_err < 1.0);
        assert_eq!(pessimistic_errors(pure.as_view(), 0.0), 0.0);
        assert_eq!(pessimistic_errors(ClassCounts::new(2).as_view(), 1.0), 0.0);
    }

    #[test]
    fn useless_split_is_collapsed() {
        // Both children predict class 0; the split adds nothing, so it is
        // pruned away.
        let mut flat = FlatTree::new(2);
        push_stump(
            &mut flat,
            1.0,
            [vec![8.0, 2.0], vec![5.0, 1.0], vec![3.0, 1.0]],
        );
        let mut tree = tree(flat);
        let removed = prune(&mut tree, 0.6745);
        assert_eq!(removed, 2);
        assert_eq!(tree.flat().kind(FlatTree::ROOT), NodeKind::Leaf);
        tree.flat().validate().unwrap();
    }

    #[test]
    fn informative_split_is_kept() {
        // The split separates the classes perfectly: pruning must keep it.
        let mut flat = FlatTree::new(2);
        push_stump(
            &mut flat,
            1.0,
            [vec![10.0, 10.0], vec![10.0, 0.0], vec![0.0, 10.0]],
        );
        let mut tree = tree(flat);
        let removed = prune(&mut tree, 0.6745);
        assert_eq!(removed, 0);
        assert_eq!(tree.size(), 3);
    }

    #[test]
    fn pruning_is_bottom_up() {
        // A deep chain whose lower split is useless but whose upper split
        // is informative: only the lower one is collapsed.
        let mut flat = FlatTree::new(2);
        let root = flat.push_split(0, 10.0, &ClassCounts::from_vec(vec![9.0, 11.0]));
        let lower = push_stump(
            &mut flat,
            5.0,
            [vec![9.0, 1.0], vec![5.0, 1.0], vec![4.0, 0.0]],
        );
        flat.set_child(root, 0, lower);
        let right = flat.push_leaf(&ClassCounts::from_vec(vec![0.0, 10.0]));
        flat.set_child(root, 1, right);
        let mut tree = tree(flat);
        let removed = prune(&mut tree, 0.6745);
        assert_eq!(removed, 2);
        assert_eq!(tree.size(), 3);
        assert_eq!(tree.flat().kind(FlatTree::ROOT), NodeKind::Split);
        tree.flat().validate().unwrap();
    }

    #[test]
    fn categorical_subtrees_are_pruned_too() {
        let mut flat = FlatTree::new(2);
        let root = flat.push_categorical(0, 2, &ClassCounts::from_vec(vec![6.0, 2.0]));
        for slot in 0..2 {
            let leaf = flat.push_leaf(&ClassCounts::from_vec(vec![3.0, 1.0]));
            flat.set_child(root, slot, leaf);
        }
        let mut tree = tree(flat);
        let removed = prune(&mut tree, 0.6745);
        assert_eq!(removed, 2);
        assert_eq!(tree.flat().kind(FlatTree::ROOT), NodeKind::Leaf);
    }

    #[test]
    fn arena_pruning_is_equivalent_to_the_boxed_reference() {
        // Train an unpruned tree on realistic uncertain data, then prune
        // it along both paths: the arena pass and the recursive reference
        // must remove the same number of nodes and produce bit-identical
        // arenas, at several confidence levels.
        use crate::config::{Algorithm, UdtConfig};
        use crate::TreeBuilder;
        use udt_data::synthetic::SyntheticSpec;
        use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
        let mut spec = SyntheticSpec::small(7);
        spec.tuples = 80;
        spec.attributes = 3;
        let data = inject_uncertainty(
            &spec.generate().unwrap(),
            &UncertaintySpec::baseline().with_s(10),
        )
        .unwrap();
        let unpruned = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs).with_postprune(false))
            .build(&data)
            .unwrap()
            .tree;
        for z in [0.0, 0.6745, 1.5] {
            let mut arena_tree = unpruned.clone();
            let arena_removed = prune(&mut arena_tree, z);
            let (reference, reference_removed) =
                prune_reference(unpruned.flat(), FlatTree::ROOT, z);
            assert_eq!(arena_removed, reference_removed, "z = {z}");
            assert_eq!(arena_tree.flat(), &reference, "z = {z}");
            arena_tree.flat().validate().unwrap();
        }
    }
}
