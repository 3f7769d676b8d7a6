//! The hot-swap model registry.
//!
//! Models are loaded from the versioned persistence format
//! ([`udt_tree::persist`]: v3 files with a checksum footer, or
//! footer-less v2 files; every arena is structurally validated on load)
//! and served as
//! `Arc<DecisionTree>` snapshots. The map itself lives behind an
//! `RwLock`, but the lock is only held to clone or replace an `Arc` —
//! classification never runs under it. Swapping a model is therefore
//! atomic from a client's point of view: requests that already took a
//! snapshot finish against the old arena (which is freed when its last
//! batch drops), requests that arrive after the swap see the new one,
//! and no request ever observes a half-loaded model because loading and
//! validation complete *before* the write lock is taken.
//!
//! Each registration also derives the input shape the tree's splits
//! expect ([`ServedModel`]): the value kind each tested attribute needs
//! and the category count of each categorical split. This happens once
//! per model generation, so the scheduler can refuse mismatched wire
//! tuples without walking the arena per request.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use udt_tree::{persist, DecisionTree, NodeKind};

use crate::error::ServeError;
use crate::protocol::ModelInfo;
use crate::Result;

/// A registered model as the scheduler serves it: the tree snapshot plus
/// the input shape its splits expect.
#[derive(Debug)]
pub struct ServedModel {
    tree: Arc<DecisionTree>,
    /// `(attribute, children)` for every attribute some categorical
    /// split tests, in attribute order. A trained tree splits one
    /// attribute into as many children as its domain has categories.
    categorical: Vec<(usize, usize)>,
    /// The kind of the first split (in arena order) testing each
    /// attribute, `None` where no split tests it. The engine reads a
    /// value of the other kind as missing.
    split_kinds: Vec<Option<NodeKind>>,
}

impl ServedModel {
    fn new(tree: DecisionTree) -> ServedModel {
        let flat = tree.flat();
        let mut split_kinds: Vec<Option<NodeKind>> = vec![None; tree.n_attributes()];
        let mut children: Vec<Option<usize>> = vec![None; tree.n_attributes()];
        for id in 0..flat.len() {
            let kind = flat.kind(id);
            if kind == NodeKind::Leaf {
                continue;
            }
            let attribute = flat.attribute(id);
            if let Some(slot) = split_kinds.get_mut(attribute) {
                slot.get_or_insert(kind);
            }
            if kind == NodeKind::CategoricalSplit {
                if let Some(slot) = children.get_mut(attribute) {
                    slot.get_or_insert(flat.children_of(id).len());
                }
            }
        }
        let categorical = children
            .into_iter()
            .enumerate()
            .filter_map(|(attribute, n)| Some((attribute, n?)))
            .collect();
        ServedModel {
            tree: Arc::new(tree),
            categorical,
            split_kinds,
        }
    }

    /// The tree every job of this generation classifies against.
    pub fn tree(&self) -> &Arc<DecisionTree> {
        &self.tree
    }

    /// `(attribute, category count)` for each attribute the tree splits
    /// categorically; a served tuple's categorical value there must have
    /// exactly that many categories.
    pub fn categorical_domains(&self) -> &[(usize, usize)] {
        &self.categorical
    }

    /// How the tree splits `attribute`: [`NodeKind::Split`] wants a
    /// numeric value there, [`NodeKind::CategoricalSplit`] a categorical
    /// one, and `None` (no split tests it) accepts either.
    pub(crate) fn split_kind(&self, attribute: usize) -> Option<NodeKind> {
        self.split_kinds.get(attribute).copied().flatten()
    }
}

struct Entry {
    model: Arc<ServedModel>,
    /// 1 for the first load, bumped by every successful swap.
    generation: u64,
}

/// A named collection of served models supporting atomic hot-swap.
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Entry>>,
    /// Model files refused at startup preload (corrupt, unreadable) and
    /// set aside instead of aborting the server; surfaced by `health`.
    quarantined: AtomicU64,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers an already-built tree under `name`. Fails with
    /// [`ServeError::ModelExists`] when the name is taken — replacing a
    /// live model must be an explicit [`swap`](Self::swap_tree).
    pub fn insert_tree(&self, name: &str, tree: DecisionTree) -> Result<ModelInfo> {
        let mut map = self.models.write().expect("registry lock");
        if map.contains_key(name) {
            return Err(ServeError::ModelExists(name.to_string()));
        }
        let entry = Entry {
            model: Arc::new(ServedModel::new(tree)),
            generation: 1,
        };
        let info = describe(name, &entry);
        map.insert(name.to_string(), entry);
        Ok(info)
    }

    /// Registers a tree under `name`, atomically replacing any existing
    /// binding. In-flight batches keep their old snapshot.
    pub fn swap_tree(&self, name: &str, tree: DecisionTree) -> ModelInfo {
        let mut map = self.models.write().expect("registry lock");
        let generation = map.get(name).map_or(1, |e| e.generation + 1);
        let entry = Entry {
            model: Arc::new(ServedModel::new(tree)),
            generation,
        };
        let info = describe(name, &entry);
        map.insert(name.to_string(), entry);
        info
    }

    /// Loads a persisted model file and registers it under a fresh name.
    ///
    /// The file is read, parsed and validated entirely outside the
    /// registry lock; a failed load leaves the registry untouched.
    pub fn load(&self, name: &str, path: &Path) -> Result<ModelInfo> {
        let tree = persist::load(path)?;
        self.insert_tree(name, tree)
    }

    /// Loads a persisted model file and atomically replaces (or creates)
    /// the binding for `name`. A failed load leaves the old model
    /// serving.
    pub fn swap(&self, name: &str, path: &Path) -> Result<ModelInfo> {
        let tree = persist::load(path)?;
        Ok(self.swap_tree(name, tree))
    }

    /// Takes a snapshot of the named model for classification. The
    /// returned `Arc` stays valid (and the arena stays allocated) for as
    /// long as the caller holds it, regardless of swaps.
    pub fn get(&self, name: &str) -> Result<Arc<DecisionTree>> {
        self.served(name).map(|m| Arc::clone(m.tree()))
    }

    /// Like [`get`](Self::get), with the input shape derived at
    /// registration — what the scheduler checks wire tuples against.
    pub fn served(&self, name: &str) -> Result<Arc<ServedModel>> {
        self.models
            .read()
            .expect("registry lock")
            .get(name)
            .map(|e| Arc::clone(&e.model))
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Metadata for every registered model, sorted by name.
    pub fn info(&self) -> Vec<ModelInfo> {
        let map = self.models.read().expect("registry lock");
        let mut out: Vec<ModelInfo> = map.iter().map(|(n, e)| describe(n, e)).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock").len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one model file quarantined at startup preload.
    pub fn record_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        udt_obs::catalog::serve::MODELS_QUARANTINED.incr();
    }

    /// Model files quarantined at startup preload so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

fn describe(name: &str, entry: &Entry) -> ModelInfo {
    let tree = entry.model.tree();
    ModelInfo {
        name: name.to_string(),
        generation: entry.generation,
        nodes: tree.size(),
        leaves: tree.n_leaves(),
        depth: tree.depth(),
        n_classes: tree.n_classes(),
        n_attributes: tree.n_attributes(),
        heap_bytes: tree.flat().heap_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::toy;
    use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

    fn trained(algorithm: Algorithm) -> DecisionTree {
        TreeBuilder::new(
            UdtConfig::new(algorithm)
                .with_postprune(false)
                .with_min_node_weight(0.0),
        )
        .build(&toy::table1_dataset().unwrap())
        .unwrap()
        .tree
    }

    #[test]
    fn insert_get_and_info() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let info = reg.insert_tree("toy", trained(Algorithm::UdtEs)).unwrap();
        assert_eq!(info.name, "toy");
        assert_eq!(info.generation, 1);
        assert!(info.heap_bytes > 0);
        assert_eq!(info.n_classes, 2);
        let tree = reg.get("toy").unwrap();
        assert_eq!(tree.size(), info.nodes);
        assert_eq!(info.heap_bytes, tree.flat().heap_bytes());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.info()[0], info);
        assert!(matches!(
            reg.get("missing"),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn categorical_domains_are_derived_once_per_registration() {
        use udt_data::{Attribute, Dataset, Schema, Tuple, UncertainValue};
        use udt_prob::DiscreteDist;

        let reg = ModelRegistry::new();
        reg.insert_tree("numeric", trained(Algorithm::UdtEs))
            .unwrap();
        let numeric = reg.served("numeric").unwrap();
        assert!(numeric.categorical_domains().is_empty());
        assert_eq!(numeric.split_kind(0), Some(NodeKind::Split));

        let schema = Schema::new(vec![
            Attribute::numerical("noise"),
            Attribute::categorical("colour", 3),
        ]);
        let mut data = Dataset::new(schema, vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..30 {
            let class = i % 3;
            data.push(Tuple::new(
                vec![
                    UncertainValue::point((i % 5) as f64),
                    UncertainValue::Categorical(DiscreteDist::certain(class, 3).unwrap()),
                ],
                class,
            ))
            .unwrap();
        }
        let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs).with_postprune(false))
            .build(&data)
            .unwrap()
            .tree;
        reg.insert_tree("colour", tree).unwrap();
        let served = reg.served("colour").unwrap();
        assert_eq!(served.categorical_domains(), &[(1, 3)]);
        assert_eq!(served.split_kind(1), Some(NodeKind::CategoricalSplit));
        assert_eq!(
            served.split_kind(0),
            None,
            "the noise attribute is never tested"
        );
        assert_eq!(served.split_kind(2), None, "past the schema");
        assert!(Arc::ptr_eq(served.tree(), &reg.get("colour").unwrap()));
    }

    #[test]
    fn double_insert_is_refused_but_swap_replaces() {
        let reg = ModelRegistry::new();
        reg.insert_tree("m", trained(Algorithm::UdtEs)).unwrap();
        assert!(matches!(
            reg.insert_tree("m", trained(Algorithm::Avg)),
            Err(ServeError::ModelExists(_))
        ));
        // A snapshot taken before the swap survives it untouched.
        let before = reg.get("m").unwrap();
        let info = reg.swap_tree("m", trained(Algorithm::Avg));
        assert_eq!(info.generation, 2);
        let after = reg.get("m").unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(before.size(), before.flat().len(), "old snapshot intact");
        // Swapping a fresh name creates generation 1.
        let info = reg.swap_tree("other", trained(Algorithm::UdtEs));
        assert_eq!(info.generation, 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn load_and_swap_from_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("udt-serve-registry-test.json");
        let tree = trained(Algorithm::UdtEs);
        persist::save(&tree, &path).unwrap();

        let reg = ModelRegistry::new();
        let info = reg.load("disk", &path).unwrap();
        assert_eq!(info.nodes, tree.size());
        // The loaded model is the persisted one, arena for arena.
        assert_eq!(reg.get("disk").unwrap().flat(), tree.flat());
        // A failed swap (missing file) leaves the old binding serving.
        assert!(reg.swap("disk", Path::new("/no/such/model.json")).is_err());
        assert_eq!(reg.get("disk").unwrap().flat(), tree.flat());
        let info = reg.swap("disk", &path).unwrap();
        assert_eq!(info.generation, 2);
        let _ = std::fs::remove_file(&path);
    }
}
