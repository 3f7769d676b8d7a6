//! Weighted per-class tuple counts.
//!
//! Because UDT works with *fractional* tuples, every "count" in the paper
//! is a non-negative real number: the tuple count of class `c` in a set is
//! the sum of the weights of the (fractions of) tuples of class `c` it
//! contains (Definition 5/6 in §5.1). [`ClassCounts`] is the small
//! fixed-size accumulator used for those counts everywhere in the crate —
//! dispersion measures, split scores, the eq. 3 / eq. 4 lower bounds and
//! the class distributions stored in leaf nodes are all pure functions of
//! it.

/// Numerical tolerance below which a weight is treated as zero.
pub const WEIGHT_EPSILON: f64 = 1e-9;

/// Clamps tiny negative floating-point residues (from subtracting nearly
/// equal cumulative masses) to zero. The single source of truth for the
/// drift guard shared by [`ClassCounts::sub_counts`], the slice-based
/// scoring in [`crate::measure`], and the diagnostic difference helpers
/// in [`crate::events`] — they must agree bit for bit for the
/// columnar-vs-baseline regression contract to hold.
#[inline]
pub(crate) fn clamp_residue(x: f64) -> f64 {
    if x < 0.0 && x > -WEIGHT_EPSILON {
        0.0
    } else {
        x
    }
}

/// A borrowed view of weighted per-class counts.
///
/// This is the zero-allocation companion of [`ClassCounts`]: the columnar
/// split engine stores all cumulative per-class masses in one flat
/// row-major `Vec<f64>` (see [`crate::events::AttributeEvents`]) and hands
/// out `CountsView`s of individual rows, so the per-candidate scoring
/// loop never clones a counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountsView<'a>(&'a [f64]);

impl<'a> CountsView<'a> {
    /// Wraps a slice of per-class counts.
    pub fn new(counts: &'a [f64]) -> Self {
        CountsView(counts)
    }

    /// Number of classes tracked.
    pub fn n_classes(&self) -> usize {
        self.0.len()
    }

    /// The count of class `c`.
    pub fn get(&self, c: usize) -> f64 {
        self.0[c]
    }

    /// All counts.
    pub fn as_slice(&self) -> &'a [f64] {
        self.0
    }

    /// Total weight across all classes.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Whether the total weight is (numerically) zero.
    pub fn is_empty(&self) -> bool {
        self.total() <= WEIGHT_EPSILON
    }

    /// Number of distinct classes carrying non-negligible weight.
    pub fn support_size(&self) -> usize {
        let total = self.total();
        if total <= WEIGHT_EPSILON {
            return 0;
        }
        self.0.iter().filter(|&&c| c > total * 1e-9).count()
    }

    /// The class with the largest weight (lowest index wins ties).
    /// [`ClassCounts::majority`] delegates here, so consumers of owned
    /// counts and of arena rows (post-pruning) agree structurally.
    pub fn majority(&self) -> usize {
        let mut best = 0;
        let mut best_w = f64::NEG_INFINITY;
        for (c, &w) in self.0.iter().enumerate() {
            if w > best_w {
                best = c;
                best_w = w;
            }
        }
        best
    }

    /// Copies the view into an owned counter.
    pub fn to_counts(&self) -> ClassCounts {
        ClassCounts::from_vec(self.0.to_vec())
    }
}

/// Weighted per-class counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassCounts {
    counts: Vec<f64>,
}

impl ClassCounts {
    /// Creates an all-zero counter over `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        ClassCounts {
            counts: vec![0.0; n_classes],
        }
    }

    /// Builds a counter directly from per-class counts.
    pub fn from_vec(counts: Vec<f64>) -> Self {
        ClassCounts { counts }
    }

    /// Number of classes tracked.
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Adds `weight` to class `label`.
    pub fn add(&mut self, label: usize, weight: f64) {
        self.counts[label] += weight;
    }

    /// Adds every count of `other` into `self`.
    pub fn add_counts(&mut self, other: &ClassCounts) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Subtracts every count of `other` from `self`, clamping tiny negative
    /// residues (floating point drift) to zero.
    pub fn sub_counts(&mut self, other: &ClassCounts) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = clamp_residue(*a - b);
        }
    }

    /// The count of class `c`.
    pub fn get(&self, c: usize) -> f64 {
        self.counts[c]
    }

    /// All counts.
    pub fn as_slice(&self) -> &[f64] {
        &self.counts
    }

    /// Total weight across all classes.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Whether the total weight is (numerically) zero.
    pub fn is_empty(&self) -> bool {
        self.total() <= WEIGHT_EPSILON
    }

    /// Whether all the weight belongs to a single class — the stopping
    /// criterion "all tuples in S have the same class label" of §4.1,
    /// applied to fractional weights.
    pub fn is_pure(&self) -> bool {
        let total = self.total();
        if total <= WEIGHT_EPSILON {
            return true;
        }
        self.counts.iter().filter(|&&c| c > total * 1e-9).count() <= 1
    }

    /// The class with the largest weight (lowest index wins ties).
    pub fn majority(&self) -> usize {
        self.as_view().majority()
    }

    /// Normalised class distribution (`P_n(c)` of a leaf node, §4.1). For
    /// an empty counter the distribution is uniform.
    pub fn distribution(&self) -> Vec<f64> {
        let total = self.total();
        if total <= WEIGHT_EPSILON {
            let n = self.counts.len().max(1);
            return vec![1.0 / n as f64; self.counts.len()];
        }
        self.counts.iter().map(|&c| c / total).collect()
    }

    /// Number of distinct classes carrying non-negligible weight.
    pub fn support_size(&self) -> usize {
        let total = self.total();
        if total <= WEIGHT_EPSILON {
            return 0;
        }
        self.counts.iter().filter(|&&c| c > total * 1e-9).count()
    }

    /// A borrowed view of the counts.
    pub fn as_view(&self) -> CountsView<'_> {
        CountsView(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_totals() {
        let mut c = ClassCounts::new(3);
        assert!(c.is_empty());
        assert_eq!(c.n_classes(), 3);
        c.add(0, 1.5);
        c.add(2, 0.5);
        c.add(2, 1.0);
        assert_eq!(c.get(0), 1.5);
        assert_eq!(c.get(1), 0.0);
        assert_eq!(c.get(2), 1.5);
        assert!((c.total() - 3.0).abs() < 1e-12);
        assert!(!c.is_empty());
        assert_eq!(c.support_size(), 2);
    }

    #[test]
    fn purity_detection() {
        let mut c = ClassCounts::new(2);
        assert!(c.is_pure(), "empty counts are trivially pure");
        c.add(1, 2.0);
        assert!(c.is_pure());
        c.add(0, 1e-15);
        assert!(c.is_pure(), "negligible contamination is still pure");
        c.add(0, 0.5);
        assert!(!c.is_pure());
    }

    #[test]
    fn majority_and_distribution() {
        let c = ClassCounts::from_vec(vec![1.0, 3.0, 0.0]);
        assert_eq!(c.majority(), 1);
        let d = c.distribution();
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        assert_eq!(d[2], 0.0);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        // Empty counts give a uniform distribution.
        let e = ClassCounts::new(4);
        assert_eq!(e.distribution(), vec![0.25; 4]);
        // Ties resolve to the lowest index.
        let t = ClassCounts::from_vec(vec![1.0, 1.0]);
        assert_eq!(t.majority(), 0);
    }

    #[test]
    fn add_and_sub_counts_roundtrip() {
        let mut a = ClassCounts::from_vec(vec![1.0, 2.0]);
        let b = ClassCounts::from_vec(vec![0.5, 0.5]);
        a.add_counts(&b);
        assert_eq!(a.as_slice(), &[1.5, 2.5]);
        a.sub_counts(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        // Subtracting slightly more than present clamps tiny negatives.
        let mut c = ClassCounts::from_vec(vec![1.0]);
        c.sub_counts(&ClassCounts::from_vec(vec![1.0 + 1e-12]));
        assert_eq!(c.get(0), 0.0);
    }
}
