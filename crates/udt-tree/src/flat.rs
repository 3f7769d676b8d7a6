//! Flat arena representation of a decision tree.
//!
//! [`FlatTree`] is the only tree representation: the builder emits it,
//! post-pruning rewrites it, persistence serialises it and classification
//! walks it. It is a structure of parallel arrays (node kind, tested
//! attribute, split point, child index slab, per-node class-count slab,
//! leaf-distribution slab) with the root at index 0. Hand-built trees
//! (tests, examples) use the same `push_*` / [`set_child`] calls as the
//! builder.
//!
//! [`set_child`]: FlatTree::set_child
//!
//! ## Layout invariants
//!
//! * Index 0 is the root; every other node is referenced by exactly one
//!   child-slab entry.
//! * Children always carry **larger indices than their parent**. The
//!   sequential builder emits strict preorder; the parallel builder
//!   grafts worker-built fragments and then canonicalises with
//!   [`FlatTree::to_preorder`], so the two produce bit-identical arenas.
//!   Consumers exploit the ordering to walk bottom-up with a single
//!   reverse index loop (see [`crate::postprune`]).
//! * Leaves store an offset into the distribution slab; internal nodes
//!   store a sentinel offset instead.
//! * Every node stores its (fractional) training class counts — a
//!   `n_classes`-stride row of the counts slab — plus a cached total, so
//!   post-pruning and missing-attribute classification never touch the
//!   training data.
//!
//! [`validate`](FlatTree::validate) checks all of the above and is run on
//! every deserialised model before it is served.

use serde::{Deserialize, Serialize};

use crate::counts::{ClassCounts, CountsView};
use crate::{Result, TreeError};

/// Sentinel distribution offset marking an internal node.
const NO_DIST: u32 = u32::MAX;

/// Sentinel for a child slot that has not been patched yet (only ever
/// observable mid-build).
const UNSET_CHILD: u32 = u32::MAX;

/// Discriminant of one arena node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A leaf carrying a class distribution.
    Leaf,
    /// A binary test `value(attribute) <= split`.
    Split,
    /// A multi-way fan-out over the categories of a categorical
    /// attribute.
    CategoricalSplit,
}

/// A decision tree stored as a flat arena (structure of arrays).
///
/// See the [module documentation](self) for the layout invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatTree {
    n_classes: usize,
    kinds: Vec<NodeKind>,
    attrs: Vec<u32>,
    splits: Vec<f64>,
    child_start: Vec<u32>,
    child_count: Vec<u32>,
    children: Vec<u32>,
    counts: Vec<f64>,
    totals: Vec<f64>,
    dist_start: Vec<u32>,
    dists: Vec<f64>,
}

impl FlatTree {
    /// The root node's index.
    pub const ROOT: usize = 0;

    /// Creates an empty arena for trees over `n_classes` classes.
    pub fn new(n_classes: usize) -> FlatTree {
        FlatTree {
            n_classes,
            kinds: Vec::new(),
            attrs: Vec::new(),
            splits: Vec::new(),
            child_start: Vec::new(),
            child_count: Vec::new(),
            children: Vec::new(),
            counts: Vec::new(),
            totals: Vec::new(),
            dist_start: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the arena holds no nodes (only ever true mid-build).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of classes the tree distinguishes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    // ------------------------------------------------------------ push

    /// The shared append path behind the typed `push_*` constructors.
    /// (One parameter per parallel array; a builder struct would only
    /// relabel them.)
    #[allow(clippy::too_many_arguments)]
    fn push_node(
        &mut self,
        kind: NodeKind,
        attr: u32,
        split: f64,
        counts: &[f64],
        total: f64,
        dist: Option<&[f64]>,
        n_children: usize,
    ) -> usize {
        debug_assert_eq!(counts.len(), self.n_classes);
        let id = self.kinds.len();
        self.kinds.push(kind);
        self.attrs.push(attr);
        self.splits.push(split);
        self.child_start.push(self.children.len() as u32);
        self.child_count.push(n_children as u32);
        self.children
            .extend(std::iter::repeat_n(UNSET_CHILD, n_children));
        self.counts.extend_from_slice(counts);
        self.totals.push(total);
        match dist {
            Some(d) => {
                debug_assert_eq!(d.len(), self.n_classes);
                self.dist_start.push(self.dists.len() as u32);
                self.dists.extend_from_slice(d);
            }
            None => self.dist_start.push(NO_DIST),
        }
        id
    }

    /// Appends a leaf derived from training counts, storing their
    /// normalised class distribution.
    pub fn push_leaf(&mut self, counts: &ClassCounts) -> usize {
        let dist = counts.distribution();
        self.push_node(
            NodeKind::Leaf,
            0,
            0.0,
            counts.as_slice(),
            counts.total(),
            Some(&dist),
            0,
        )
    }

    /// Appends a leaf copied verbatim (counts *and* stored distribution),
    /// used when copying or compacting existing trees so that leaf
    /// distributions are never re-derived.
    pub fn push_leaf_raw(&mut self, counts: &[f64], dist: &[f64]) -> usize {
        let total = counts.iter().sum();
        self.push_node(NodeKind::Leaf, 0, 0.0, counts, total, Some(dist), 0)
    }

    /// Appends a binary split node with two unset child slots.
    pub fn push_split(&mut self, attribute: usize, split: f64, counts: &ClassCounts) -> usize {
        self.push_node(
            NodeKind::Split,
            attribute as u32,
            split,
            counts.as_slice(),
            counts.total(),
            None,
            2,
        )
    }

    /// Appends a categorical split node with `cardinality` unset child
    /// slots.
    pub fn push_categorical(
        &mut self,
        attribute: usize,
        cardinality: usize,
        counts: &ClassCounts,
    ) -> usize {
        self.push_node(
            NodeKind::CategoricalSplit,
            attribute as u32,
            0.0,
            counts.as_slice(),
            counts.total(),
            None,
            cardinality,
        )
    }

    /// Sets child `slot` of `parent` to node `child`.
    pub fn set_child(&mut self, parent: usize, slot: usize, child: usize) {
        let idx = self.child_slab_slot(parent, slot);
        self.children[idx] = child as u32;
    }

    /// The child-slab index backing child `slot` of `parent` — a stable
    /// handle that stays valid while further nodes are appended, used by
    /// the parallel builder to patch deferred subtrees in after grafting.
    pub fn child_slab_slot(&self, parent: usize, slot: usize) -> usize {
        debug_assert!(slot < self.child_count[parent] as usize);
        self.child_start[parent] as usize + slot
    }

    /// Patches a child-slab entry (obtained from
    /// [`child_slab_slot`](Self::child_slab_slot)) to point at `child`.
    pub fn patch_child_slab(&mut self, slab_index: usize, child: usize) {
        self.children[slab_index] = child as u32;
    }

    // ------------------------------------------------------------ read

    /// The kind of node `id`.
    pub fn kind(&self, id: usize) -> NodeKind {
        self.kinds[id]
    }

    /// The attribute tested at node `id` (0 for leaves).
    pub fn attribute(&self, id: usize) -> usize {
        self.attrs[id] as usize
    }

    /// The split point of binary-split node `id` (0 for other kinds).
    pub fn split_point(&self, id: usize) -> f64 {
        self.splits[id]
    }

    /// The child node indices of node `id` (empty for leaves).
    pub fn children_of(&self, id: usize) -> &[u32] {
        let start = self.child_start[id] as usize;
        &self.children[start..start + self.child_count[id] as usize]
    }

    /// Child `slot` of node `id`.
    pub fn child(&self, id: usize, slot: usize) -> usize {
        self.children[self.child_slab_slot(id, slot)] as usize
    }

    /// The training class counts recorded at node `id`.
    pub fn counts_of(&self, id: usize) -> CountsView<'_> {
        let start = id * self.n_classes;
        CountsView::new(&self.counts[start..start + self.n_classes])
    }

    /// The cached total training weight at node `id` (equals
    /// `counts_of(id).total()`).
    pub fn total_of(&self, id: usize) -> f64 {
        self.totals[id]
    }

    /// The class distribution stored at leaf `id`.
    ///
    /// Panics when `id` is an internal node.
    pub fn distribution_of(&self, id: usize) -> &[f64] {
        let start = self.dist_start[id];
        assert_ne!(start, NO_DIST, "node {id} is not a leaf");
        let start = start as usize;
        &self.dists[start..start + self.n_classes]
    }

    // ------------------------------------------------- tree statistics

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.kinds.iter().filter(|k| **k == NodeKind::Leaf).count()
    }

    /// Approximate heap footprint of the arena in bytes: the sum over
    /// every parallel array of `len × element size`. Deliberately counts
    /// lengths rather than capacities so the figure is deterministic for
    /// a given tree (capacity over-allocation varies with build history);
    /// the true heap usage is at least this much. Serving registries
    /// surface it per model through their `stats` responses.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.kinds.len() * size_of::<NodeKind>()
            + self.attrs.len() * size_of::<u32>()
            + self.splits.len() * size_of::<f64>()
            + self.child_start.len() * size_of::<u32>()
            + self.child_count.len() * size_of::<u32>()
            + self.children.len() * size_of::<u32>()
            + self.counts.len() * size_of::<f64>()
            + self.totals.len() * size_of::<f64>()
            + self.dist_start.len() * size_of::<u32>()
            + self.dists.len() * size_of::<f64>()
    }

    /// Depth of the subtree rooted at `id` (a single leaf has depth 1).
    pub fn depth_of(&self, id: usize) -> usize {
        match self.kinds[id] {
            NodeKind::Leaf => 1,
            _ => {
                1 + self
                    .children_of(id)
                    .iter()
                    .map(|&c| self.depth_of(c as usize))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.depth_of(Self::ROOT)
        }
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub fn size_of(&self, id: usize) -> usize {
        match self.kinds[id] {
            NodeKind::Leaf => 1,
            _ => {
                1 + self
                    .children_of(id)
                    .iter()
                    .map(|&c| self.size_of(c as usize))
                    .sum::<usize>()
            }
        }
    }

    // -------------------------------------------------- graft / reorder

    /// Appends every node of `fragment` to this arena, rebasing all of
    /// the fragment's internal indices, and returns the new index of the
    /// fragment's root. The caller is responsible for patching a child
    /// slot to point at it (see [`patch_child_slab`](Self::patch_child_slab)).
    pub fn graft(&mut self, fragment: &FlatTree) -> usize {
        debug_assert_eq!(self.n_classes, fragment.n_classes);
        let node_off = self.kinds.len() as u32;
        let child_off = self.children.len() as u32;
        let dist_off = self.dists.len() as u32;
        self.kinds.extend_from_slice(&fragment.kinds);
        self.attrs.extend_from_slice(&fragment.attrs);
        self.splits.extend_from_slice(&fragment.splits);
        self.child_start
            .extend(fragment.child_start.iter().map(|&s| s + child_off));
        self.child_count.extend_from_slice(&fragment.child_count);
        self.children
            .extend(fragment.children.iter().map(|&c| c + node_off));
        self.counts.extend_from_slice(&fragment.counts);
        self.totals.extend_from_slice(&fragment.totals);
        self.dist_start.extend(fragment.dist_start.iter().map(|&d| {
            if d == NO_DIST {
                NO_DIST
            } else {
                d + dist_off
            }
        }));
        self.dists.extend_from_slice(&fragment.dists);
        node_off as usize
    }

    /// Returns a copy of the tree renumbered into strict preorder — the
    /// canonical layout. The parallel builder calls this after grafting
    /// worker fragments so its arenas are bit-identical to sequential
    /// builds; applied to an already-preorder arena it is the identity.
    pub fn to_preorder(&self) -> FlatTree {
        let mut out = FlatTree::new(self.n_classes);
        self.copy_subtree(Self::ROOT, &mut out);
        out
    }

    /// Copies the subtree rooted at `id` into `out` in preorder,
    /// preserving every stored float verbatim; returns the new root id.
    pub fn copy_subtree(&self, id: usize, out: &mut FlatTree) -> usize {
        match self.kinds[id] {
            NodeKind::Leaf => {
                out.push_leaf_raw(self.counts_of(id).as_slice(), self.distribution_of(id))
            }
            kind => {
                let n_children = self.child_count[id] as usize;
                let nid = out.push_node(
                    kind,
                    self.attrs[id],
                    self.splits[id],
                    self.counts_of(id).as_slice(),
                    self.totals[id],
                    None,
                    n_children,
                );
                for slot in 0..n_children {
                    let c = self.copy_subtree(self.child(id, slot), out);
                    out.set_child(nid, slot, c);
                }
                nid
            }
        }
    }

    // ------------------------------------------------------ validation

    /// Structural validation, run on every deserialised model: parallel
    /// array lengths, child-slab bounds, kind/child-count coherence, the
    /// children-after-parent ordering invariant, leaf distribution
    /// offsets, and full reachability from the root.
    pub fn validate(&self) -> Result<()> {
        let n = self.len();
        let err = |reason: &'static str| TreeError::InvalidModel { reason };
        if n == 0 {
            return Err(err("empty arena"));
        }
        if self.attrs.len() != n
            || self.splits.len() != n
            || self.child_start.len() != n
            || self.child_count.len() != n
            || self.totals.len() != n
            || self.dist_start.len() != n
            || self.counts.len() != n * self.n_classes
        {
            return Err(err("parallel array length mismatch"));
        }
        let mut referenced = vec![0usize; n];
        for id in 0..n {
            let start = self.child_start[id] as usize;
            let count = self.child_count[id] as usize;
            if start + count > self.children.len() {
                return Err(err("child slab range out of bounds"));
            }
            match self.kinds[id] {
                NodeKind::Leaf => {
                    if count != 0 {
                        return Err(err("leaf with children"));
                    }
                    let d = self.dist_start[id];
                    if d == NO_DIST {
                        return Err(err("leaf without a distribution"));
                    }
                    if d as usize + self.n_classes > self.dists.len() {
                        return Err(err("leaf distribution out of bounds"));
                    }
                }
                NodeKind::Split => {
                    if count != 2 {
                        return Err(err("binary split without exactly two children"));
                    }
                    if !self.splits[id].is_finite() {
                        return Err(err("non-finite split point"));
                    }
                }
                NodeKind::CategoricalSplit => {
                    if count == 0 {
                        return Err(err("categorical split without children"));
                    }
                }
            }
            if self.kinds[id] != NodeKind::Leaf && self.dist_start[id] != NO_DIST {
                return Err(err("internal node with a distribution"));
            }
            for &c in self.children_of(id) {
                let c = c as usize;
                if c >= n {
                    return Err(err("child index out of bounds"));
                }
                if c <= id {
                    return Err(err("child does not follow its parent"));
                }
                referenced[c] += 1;
            }
        }
        // Every stored magnitude must be a finite non-negative number:
        // classification divides by distribution/count sums and feeds the
        // results through `partial_cmp(..).expect("finite")` argmaxes, so
        // an inf/NaN smuggled in through a persisted model (JSON `1e999`
        // parses to +inf) would panic serving threads at request time
        // rather than fail here at load time.
        if self.dists.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
            return Err(err("non-finite or negative leaf distribution"));
        }
        if self.counts.iter().any(|c| !(c.is_finite() && *c >= 0.0)) {
            return Err(err("non-finite or negative class count"));
        }
        if self.totals.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err(err("non-finite or negative count total"));
        }
        if referenced[Self::ROOT] != 0 {
            return Err(err("root is referenced as a child"));
        }
        if referenced.iter().skip(1).any(|&r| r != 1) {
            return Err(err("node not referenced exactly once"));
        }
        // children-after-parent plus unique references already rule out
        // cycles; a reachability walk catches disconnected islands.
        let mut seen = vec![false; n];
        let mut stack = vec![Self::ROOT];
        let mut visited = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id] {
                return Err(err("node visited twice"));
            }
            seen[id] = true;
            visited += 1;
            stack.extend(self.children_of(id).iter().map(|&c| c as usize));
        }
        if visited != n {
            return Err(err("unreachable nodes in arena"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A categorical root over three categories whose first child is a
    /// binary split, built in preorder: 6 nodes, 4 leaves, depth 3.
    fn sample_flat() -> FlatTree {
        let counts = |v: Vec<f64>| ClassCounts::from_vec(v);
        let mut flat = FlatTree::new(2);
        let root = flat.push_categorical(0, 3, &counts(vec![3.0, 3.0]));
        let lower = flat.push_split(1, 0.5, &counts(vec![2.0, 2.0]));
        flat.set_child(root, 0, lower);
        let l = flat.push_leaf(&counts(vec![2.0, 0.0]));
        flat.set_child(lower, 0, l);
        let r = flat.push_leaf(&counts(vec![0.0, 2.0]));
        flat.set_child(lower, 1, r);
        let c1 = flat.push_leaf(&counts(vec![1.0, 0.0]));
        flat.set_child(root, 1, c1);
        let c2 = flat.push_leaf(&counts(vec![0.0, 1.0]));
        flat.set_child(root, 2, c2);
        flat
    }

    #[test]
    fn preorder_renumbering_is_canonical() {
        let flat = sample_flat();
        assert_eq!(flat.len(), 6);
        assert_eq!(flat.n_leaves(), 4);
        assert_eq!(flat.depth(), 3);
        assert_eq!(flat.size_of(FlatTree::ROOT), 6);
        flat.validate().unwrap();
        // Identity on an already-preorder arena.
        assert_eq!(flat.to_preorder(), flat);
        // Grafting a fragment under a shell parent, then renumbering,
        // reproduces the same tree pushed directly in preorder.
        let mut shell = FlatTree::new(2);
        let counts = ClassCounts::from_vec(vec![4.0, 4.0]);
        let parent = shell.push_split(0, 1.0, &counts);
        let l = shell.push_leaf(&ClassCounts::from_vec(vec![1.0, 0.0]));
        shell.set_child(parent, 0, l);
        let slab = shell.child_slab_slot(parent, 1);
        let sub = shell.graft(&flat);
        shell.patch_child_slab(slab, sub);
        shell.validate().unwrap();
        let mut direct = FlatTree::new(2);
        let parent = direct.push_split(0, 1.0, &counts);
        let l = direct.push_leaf(&ClassCounts::from_vec(vec![1.0, 0.0]));
        direct.set_child(parent, 0, l);
        let sub = flat.copy_subtree(FlatTree::ROOT, &mut direct);
        direct.set_child(parent, 1, sub);
        assert_eq!(shell.to_preorder(), direct);
    }

    #[test]
    fn accessors_expose_node_fields() {
        let flat = sample_flat();
        assert_eq!(flat.kind(0), NodeKind::CategoricalSplit);
        assert_eq!(flat.attribute(0), 0);
        assert_eq!(flat.children_of(0).len(), 3);
        let split = flat.child(0, 0);
        assert_eq!(flat.kind(split), NodeKind::Split);
        assert_eq!(flat.attribute(split), 1);
        assert_eq!(flat.split_point(split), 0.5);
        assert_eq!(flat.total_of(split), 4.0);
        let leaf = flat.child(split, 0);
        assert_eq!(flat.kind(leaf), NodeKind::Leaf);
        assert_eq!(flat.distribution_of(leaf), &[1.0, 0.0]);
        assert_eq!(flat.counts_of(leaf).as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn heap_bytes_tracks_the_arena_layout() {
        let flat = sample_flat();
        // Exact expectation from the layout: 6 nodes over 2 classes with
        // 5 child slots (3 categorical + 2 binary) and 4 leaf
        // distributions of 2 floats each.
        let n = flat.len();
        assert_eq!(n, 6);
        let expected = n * std::mem::size_of::<NodeKind>()   // kinds
            + n * 4 * 3                                      // attrs + child_start + child_count
            + n * 8 * 2                                      // splits + totals
            + n * 4                                          // dist_start
            + 5 * 4                                          // child slab
            + n * 2 * 8                                      // counts slab
            + 4 * 2 * 8; // leaf distributions
        assert_eq!(flat.heap_bytes(), expected);
        // A strictly larger tree has a strictly larger footprint, and a
        // round trip through persistence preserves the figure.
        let mut single = FlatTree::new(2);
        single.push_leaf(&ClassCounts::from_vec(vec![1.0, 0.0]));
        assert!(single.heap_bytes() < flat.heap_bytes());
        assert!(single.heap_bytes() > 0);
        assert_eq!(flat.to_preorder().heap_bytes(), flat.heap_bytes());
    }

    #[test]
    fn validation_rejects_corrupted_arenas() {
        let flat = sample_flat();
        // Dangling child.
        let mut bad = flat.clone();
        bad.children[0] = 999;
        assert!(bad.validate().is_err());
        // Child before parent (ordering invariant).
        let mut bad = flat.clone();
        bad.children[0] = 0;
        assert!(bad.validate().is_err());
        // Leaf without a distribution.
        let mut bad = flat.clone();
        let leaf = bad.kinds.iter().position(|k| *k == NodeKind::Leaf).unwrap();
        bad.dist_start[leaf] = NO_DIST;
        assert!(bad.validate().is_err());
        // Length mismatch.
        let mut bad = flat.clone();
        bad.totals.pop();
        assert!(bad.validate().is_err());
        // Non-finite or negative magnitudes: served models divide by
        // these sums and argmax the quotients, so inf/NaN must be
        // refused at validation time.
        let mut bad = flat.clone();
        bad.dists[0] = f64::INFINITY;
        assert!(bad.validate().is_err());
        let mut bad = flat.clone();
        bad.counts[0] = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = flat.clone();
        bad.totals[0] = -1.0;
        assert!(bad.validate().is_err());
        // Empty arena.
        assert!(FlatTree::new(2).validate().is_err());
    }
}
