//! Decision-tree structure.
//!
//! The trees built here follow §3.1–3.2 of the paper: each internal node
//! carries a crisp binary test `v ≤ z` on one numerical attribute (or a
//! multi-way test on a categorical attribute, §7.2); each leaf carries a
//! probability distribution over class labels derived from the (fractional)
//! training tuples that reached it.
//!
//! [`DecisionTree`] stores its nodes in the flat arena [`FlatTree`], the
//! one tree representation used to build, prune, persist and serve, plus
//! the metadata a model needs (attribute count and class names).
//! Classification of an uncertain test tuple is implemented once, in
//! [`crate::classify::classify_batch`], and surfaced here as
//! [`DecisionTree::predict_distribution`] and [`DecisionTree::predict`]
//! (single tuples).

use udt_data::Tuple;

use crate::classify::argmax_class;
use crate::flat::{FlatTree, NodeKind};
use crate::Result;

/// A trained decision tree, stored as a flat arena.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    flat: FlatTree,
    n_attributes: usize,
    class_names: Vec<String>,
}

impl DecisionTree {
    /// Assembles a tree directly from its arena and metadata (the builder
    /// and the persistence loader use this).
    pub fn from_flat(flat: FlatTree, n_attributes: usize, class_names: Vec<String>) -> Self {
        debug_assert_eq!(flat.n_classes(), class_names.len());
        DecisionTree {
            flat,
            n_attributes,
            class_names,
        }
    }

    /// The tree's arena.
    pub fn flat(&self) -> &FlatTree {
        &self.flat
    }

    /// Mutable access to the arena (used by post-pruning).
    pub fn flat_mut(&mut self) -> &mut FlatTree {
        &mut self.flat
    }

    /// Number of attributes the tree was trained on.
    pub fn n_attributes(&self) -> usize {
        self.n_attributes
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Class names, indexed by label.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        self.flat.len()
    }

    /// Leaf count.
    pub fn n_leaves(&self) -> usize {
        self.flat.n_leaves()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.flat.depth()
    }

    /// Classifies an uncertain test tuple, returning the probability
    /// distribution over class labels (§3.2).
    ///
    /// Returns [`crate::TreeError::NoClasses`] for a (hand-assembled) tree
    /// that distinguishes zero classes — there is no distribution to
    /// return, and the previous behaviour of silently yielding an empty
    /// vector masked real construction bugs.
    pub fn predict_distribution(&self, tuple: &Tuple) -> Result<Vec<f64>> {
        crate::classify::predict_distribution(self, tuple)
    }

    /// Classifies an uncertain test tuple and returns the single most
    /// probable class label, as the paper does when "a single result is
    /// desired".
    pub fn predict(&self, tuple: &Tuple) -> Result<usize> {
        Ok(argmax_class(&self.predict_distribution(tuple)?))
    }

    /// A human-readable rendering of the tree (one line per node).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(FlatTree::ROOT, 0, &mut out);
        out
    }

    fn render_node(&self, id: usize, indent: usize, out: &mut String) {
        let flat = &self.flat;
        let pad = "  ".repeat(indent);
        let attribute = flat.attribute(id);
        match flat.kind(id) {
            NodeKind::Leaf => {
                let distribution = flat.distribution_of(id);
                let name = self
                    .class_names
                    .get(argmax_class(distribution))
                    .map(String::as_str)
                    .unwrap_or("<unknown>");
                let rounded: Vec<f64> = distribution
                    .iter()
                    .map(|p| (p * 100.0).round() / 100.0)
                    .collect();
                out.push_str(&format!("{pad}leaf: {name} {rounded:?}\n"));
            }
            NodeKind::Split => {
                let split = flat.split_point(id);
                out.push_str(&format!("{pad}if A{attribute} <= {split:.4}:\n"));
                self.render_node(flat.child(id, 0), indent + 1, out);
                out.push_str(&format!("{pad}else:\n"));
                self.render_node(flat.child(id, 1), indent + 1, out);
            }
            NodeKind::CategoricalSplit => {
                out.push_str(&format!("{pad}switch A{attribute}:\n"));
                for (v, &child) in flat.children_of(id).iter().enumerate() {
                    out.push_str(&format!("{pad}case {v}:\n"));
                    self.render_node(child as usize, indent + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::ClassCounts;

    fn sample_tree() -> DecisionTree {
        // The post-pruned tree of Fig. 2b: root split at 0, left leaf
        // mostly class B, right leaf mostly class A.
        let mut flat = FlatTree::new(2);
        let root = flat.push_split(0, 0.0, &ClassCounts::from_vec(vec![3.0, 3.0]));
        let left = flat.push_leaf_raw(&[0.636, 2.364], &[0.212, 0.788]);
        flat.set_child(root, 0, left);
        let right = flat.push_leaf_raw(&[2.4, 0.6], &[0.80, 0.20]);
        flat.set_child(root, 1, right);
        DecisionTree::from_flat(flat, 1, vec!["A".into(), "B".into()])
    }

    #[test]
    fn structural_statistics() {
        let tree = sample_tree();
        assert_eq!(tree.size(), 3);
        assert_eq!(tree.n_leaves(), 2);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.n_attributes(), 1);
        assert_eq!(tree.n_classes(), 2);
        assert_eq!(tree.flat().kind(FlatTree::ROOT), NodeKind::Split);
        tree.flat().validate().unwrap();
    }

    #[test]
    fn point_tuple_prediction_follows_the_split() {
        let tree = sample_tree();
        let left_tuple = Tuple::from_points(&[-5.0], 0);
        let right_tuple = Tuple::from_points(&[5.0], 0);
        assert_eq!(
            tree.predict(&left_tuple).unwrap(),
            1,
            "left leaf favours class B"
        );
        assert_eq!(
            tree.predict(&right_tuple).unwrap(),
            0,
            "right leaf favours class A"
        );
    }

    #[test]
    fn render_mentions_split_and_classes() {
        let tree = sample_tree();
        let text = tree.render();
        assert!(text.contains("A0"));
        assert!(text.contains("leaf"));
        assert!(text.contains("else"));
    }

    #[test]
    fn render_text_is_pinned_for_numeric_and_categorical_splits() {
        // A numeric root whose left child switches on a categorical
        // attribute with a nested numeric split, hand-built in preorder.
        let counts = |v: Vec<f64>| ClassCounts::from_vec(v);
        let mut flat = FlatTree::new(2);
        let root = flat.push_split(0, 0.5, &counts(vec![6.0, 6.0]));
        let switch = flat.push_categorical(1, 3, &counts(vec![6.0, 4.0]));
        flat.set_child(root, 0, switch);
        let inner = flat.push_split(2, -1.25, &counts(vec![4.0, 3.0]));
        flat.set_child(switch, 0, inner);
        let l = flat.push_leaf(&counts(vec![3.0, 1.0]));
        flat.set_child(inner, 0, l);
        let r = flat.push_leaf(&counts(vec![1.0, 2.0]));
        flat.set_child(inner, 1, r);
        let c1 = flat.push_leaf(&counts(vec![1.0, 0.0]));
        flat.set_child(switch, 1, c1);
        let c2 = flat.push_leaf(&counts(vec![1.0, 1.0]));
        flat.set_child(switch, 2, c2);
        let right = flat.push_leaf(&counts(vec![0.0, 2.0]));
        flat.set_child(root, 1, right);
        flat.validate().unwrap();
        let tree = DecisionTree::from_flat(flat, 3, vec!["a".into(), "b".into()]);
        let expected = "\
if A0 <= 0.5000:
  switch A1:
  case 0:
    if A2 <= -1.2500:
      leaf: a [0.75, 0.25]
    else:
      leaf: b [0.33, 0.67]
  case 1:
    leaf: a [1.0, 0.0]
  case 2:
    leaf: b [0.5, 0.5]
else:
  leaf: b [0.0, 1.0]
";
        assert_eq!(tree.render(), expected);
    }

    #[test]
    fn categorical_node_statistics() {
        let mut flat = FlatTree::new(2);
        let root = flat.push_categorical(2, 3, &ClassCounts::from_vec(vec![1.5, 1.5]));
        for (v, counts) in [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]].into_iter().enumerate() {
            let leaf = flat.push_leaf(&ClassCounts::from_vec(counts.to_vec()));
            flat.set_child(root, v, leaf);
        }
        flat.validate().unwrap();
        assert_eq!(flat.size_of(root), 4);
        assert_eq!(flat.n_leaves(), 3);
        assert_eq!(flat.depth(), 2);
    }
}
