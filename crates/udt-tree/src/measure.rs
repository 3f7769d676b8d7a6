//! Dispersion measures and their interval lower bounds.
//!
//! The paper's `BestSplit` minimises a dispersion score over candidate
//! splits (eq. 1 uses entropy; §7.4 extends the results to the Gini index
//! and discusses gain ratio). [`Measure`] provides:
//!
//! * `dispersion` — the impurity of one set of class counts;
//! * `split_score` — the weighted impurity of a binary partition, the
//!   quantity minimised by every split-search algorithm (lower = better);
//! * `interval_lower_bound` — the paper's eq. 3 (entropy) / eq. 4 (Gini)
//!   lower bound on `split_score` over every split point inside a
//!   heterogeneous interval, the engine behind UDT-LP / UDT-GP / UDT-ES;
//! * `supports_homogeneous_pruning` — Theorem 2 holds for entropy and Gini
//!   but not for gain ratio (§7.4), so UDT-BP-style interior pruning of
//!   homogeneous intervals must be disabled for gain ratio.

use udt_prob::stats::xlog2x;

use crate::counts::{clamp_residue, ClassCounts, WEIGHT_EPSILON};

/// A dispersion (impurity) measure for split selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Shannon entropy / information gain — the paper's default (eq. 1).
    Entropy,
    /// Gini index (§7.4, eq. 4 bound).
    Gini,
    /// Gain ratio (§7.4). Homogeneous-interval pruning is disabled and no
    /// heterogeneous lower bound is available, so only empty-interval
    /// pruning applies.
    GainRatio,
}

impl Measure {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Entropy => "entropy",
            Measure::Gini => "gini",
            Measure::GainRatio => "gain-ratio",
        }
    }

    /// Impurity of a single set of class counts: entropy in bits, or the
    /// Gini impurity. Gain ratio uses entropy as its set impurity.
    pub fn dispersion(&self, counts: &ClassCounts) -> f64 {
        let total = counts.total();
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            Measure::Entropy | Measure::GainRatio => -counts
                .as_slice()
                .iter()
                .map(|&c| xlog2x(c / total))
                .sum::<f64>(),
            Measure::Gini => {
                1.0 - counts
                    .as_slice()
                    .iter()
                    .map(|&c| {
                        let p = c / total;
                        p * p
                    })
                    .sum::<f64>()
            }
        }
    }

    /// Score of a binary split into `left` / `right`; **lower is better**
    /// for every measure.
    ///
    /// * Entropy / Gini: the weighted impurity
    ///   `Σ_{X∈{L,R}} |X|/|S| · dispersion(X)` (eq. 1).
    /// * Gain ratio: `−(H(S) − H_split) / SplitInfo`, negated so that the
    ///   minimisation convention still applies; degenerate splits (zero
    ///   split information) score `+∞`.
    pub fn split_score(&self, left: &ClassCounts, right: &ClassCounts) -> f64 {
        let nl = left.total();
        let nr = right.total();
        let n = nl + nr;
        if n <= 0.0 {
            return f64::INFINITY;
        }
        match self {
            Measure::Entropy | Measure::Gini => {
                (nl / n) * self.dispersion(left) + (nr / n) * self.dispersion(right)
            }
            Measure::GainRatio => {
                if nl <= 0.0 || nr <= 0.0 {
                    return f64::INFINITY;
                }
                let mut parent = left.clone();
                parent.add_counts(right);
                let gain = Measure::Entropy.dispersion(&parent)
                    - ((nl / n) * Measure::Entropy.dispersion(left)
                        + (nr / n) * Measure::Entropy.dispersion(right));
                let split_info = -(xlog2x(nl / n) + xlog2x(nr / n));
                if split_info <= 0.0 {
                    f64::INFINITY
                } else {
                    -(gain / split_info)
                }
            }
        }
    }

    /// Score of a multi-way split into the given parts (used for
    /// categorical attributes, §7.2); **lower is better**, consistent with
    /// [`split_score`](Self::split_score).
    pub fn multiway_score(&self, parts: &[ClassCounts]) -> f64 {
        let n: f64 = parts.iter().map(ClassCounts::total).sum();
        if n <= 0.0 {
            return f64::INFINITY;
        }
        match self {
            Measure::Entropy | Measure::Gini => parts
                .iter()
                .map(|p| (p.total() / n) * self.dispersion(p))
                .sum(),
            Measure::GainRatio => {
                let mut parent = ClassCounts::new(parts[0].n_classes());
                for p in parts {
                    parent.add_counts(p);
                }
                let weighted: f64 = parts
                    .iter()
                    .map(|p| (p.total() / n) * Measure::Entropy.dispersion(p))
                    .sum();
                let gain = Measure::Entropy.dispersion(&parent) - weighted;
                let split_info: f64 = -parts.iter().map(|p| xlog2x(p.total() / n)).sum::<f64>();
                if split_info <= 0.0 {
                    f64::INFINITY
                } else {
                    -(gain / split_info)
                }
            }
        }
    }

    /// Whether Theorem 2 (homogeneous-interval interior pruning) holds for
    /// this measure. True for the strictly convex entropy and Gini; false
    /// for gain ratio (§7.4).
    pub fn supports_homogeneous_pruning(&self) -> bool {
        !matches!(self, Measure::GainRatio)
    }

    /// Zero-allocation [`split_score`](Self::split_score) over the
    /// columnar cumulative layout: `left` is the cumulative per-class mass
    /// row at the candidate position and `total` the final cumulative row,
    /// so the right-side count of class `c` is `total[c] − left[c]`
    /// (computed on the fly, with the same tiny-negative clamping as
    /// [`ClassCounts::sub_counts`]). Splits that leave either side without
    /// mass score `+∞`, matching the old per-candidate semantics.
    ///
    /// The arithmetic deliberately mirrors the counter-based path
    /// operation for operation so the two produce bit-identical scores
    /// (asserted by the `baseline` regression tests).
    pub fn split_score_cum(&self, left: &[f64], total: &[f64]) -> f64 {
        debug_assert_eq!(left.len(), total.len());
        // The right-side residues are needed up to three times per class
        // (total mass, per-class term, gain-ratio parent), so they are
        // materialised once on the stack instead of re-deriving the
        // clamped subtraction at every use.
        with_class_row(
            left.len(),
            |c| clamp_residue(total[c] - left[c]),
            |right| self.split_score_cum_hoisted(left, right),
        )
    }

    /// [`split_score_cum`](Self::split_score_cum) with the right-side
    /// residues already materialised; the per-class arithmetic and its
    /// order are unchanged, so the hoisting is bit-identical.
    fn split_score_cum_hoisted(&self, left: &[f64], right: &[f64]) -> f64 {
        let nl: f64 = left.iter().sum();
        let nr: f64 = right.iter().sum();
        if nl <= WEIGHT_EPSILON || nr <= WEIGHT_EPSILON {
            return f64::INFINITY;
        }
        let n = nl + nr;
        match self {
            Measure::Entropy => {
                let h_left = -left.iter().map(|&c| xlog2x(c / nl)).sum::<f64>();
                let h_right = -right.iter().map(|&c| xlog2x(c / nr)).sum::<f64>();
                (nl / n) * h_left + (nr / n) * h_right
            }
            Measure::Gini => {
                let g = |c: f64, t: f64| {
                    let p = c / t;
                    p * p
                };
                let g_left = 1.0 - left.iter().map(|&c| g(c, nl)).sum::<f64>();
                let g_right = 1.0 - right.iter().map(|&c| g(c, nr)).sum::<f64>();
                (nl / n) * g_left + (nr / n) * g_right
            }
            Measure::GainRatio => {
                let h_parent = -(0..left.len())
                    .map(|c| xlog2x((left[c] + right[c]) / n))
                    .sum::<f64>();
                let h_left = -left.iter().map(|&c| xlog2x(c / nl)).sum::<f64>();
                let h_right = -right.iter().map(|&c| xlog2x(c / nr)).sum::<f64>();
                let gain = h_parent - ((nl / n) * h_left + (nr / n) * h_right);
                let split_info = -(xlog2x(nl / n) + xlog2x(nr / n));
                if split_info <= 0.0 {
                    f64::INFINITY
                } else {
                    -(gain / split_info)
                }
            }
        }
    }

    /// Zero-allocation [`interval_lower_bound`](Self::interval_lower_bound)
    /// over the columnar cumulative layout: given the cumulative rows at
    /// the interval's two end points and the final (total) row, derives
    /// the §5.2 counts on the fly — `n_c = cum_lo[c]`,
    /// `k_c = cum_hi[c] − cum_lo[c]`, `m_c = total[c] − cum_hi[c]` — and
    /// evaluates eq. 3 / eq. 4 without materialising any counter.
    pub fn interval_lower_bound_cum(&self, cum_lo: &[f64], cum_hi: &[f64], total: &[f64]) -> f64 {
        debug_assert_eq!(cum_lo.len(), total.len());
        debug_assert_eq!(cum_hi.len(), total.len());
        if matches!(self, Measure::GainRatio) {
            return f64::NEG_INFINITY;
        }
        let classes = cum_lo.len();
        // Each inside/above residue is read twice (mass total + bound
        // term); materialise the clamped subtractions once on the stack.
        with_class_row(
            classes,
            |c| clamp_residue(cum_hi[c] - cum_lo[c]),
            |inside| {
                with_class_row(
                    classes,
                    |c| clamp_residue(total[c] - cum_hi[c]),
                    |above| {
                        let n: f64 = cum_lo.iter().sum();
                        let m: f64 = above.iter().sum();
                        let k_total: f64 = inside.iter().sum();
                        let grand_total = n + m + k_total;
                        if grand_total <= 0.0 {
                            return f64::NEG_INFINITY;
                        }
                        let mut sum = 0.0;
                        for c in 0..classes {
                            let nc = cum_lo[c];
                            let mc = above[c];
                            let kc = inside[c];
                            let theta = safe_ratio(nc + kc, n + kc);
                            let phi = safe_ratio(mc + kc, m + kc);
                            match self {
                                Measure::Entropy => {
                                    sum += nc * safe_log2(theta)
                                        + mc * safe_log2(phi)
                                        + kc * safe_log2(theta.max(phi));
                                }
                                Measure::Gini => {
                                    sum += nc * theta + mc * phi + kc * theta.max(phi);
                                }
                                Measure::GainRatio => unreachable!("returned above"),
                            }
                        }
                        match self {
                            Measure::Entropy => -sum / grand_total,
                            Measure::Gini => 1.0 - sum / grand_total,
                            Measure::GainRatio => unreachable!("returned above"),
                        }
                    },
                )
            },
        )
    }

    /// Lower bound of [`split_score`](Self::split_score) over every split
    /// point in the interior of a heterogeneous interval `(a, b]`, given
    /// the per-class counts strictly below the interval (`below` = `n_c`),
    /// inside it (`inside` = `k_c`) and strictly above it (`above` =
    /// `m_c`). Implements eq. 3 for entropy and eq. 4 for Gini; returns
    /// `−∞` (no pruning possible) for gain ratio.
    pub fn interval_lower_bound(
        &self,
        below: &ClassCounts,
        inside: &ClassCounts,
        above: &ClassCounts,
    ) -> f64 {
        let classes = below.n_classes();
        let n: f64 = below.total();
        let m: f64 = above.total();
        let k_total: f64 = inside.total();
        let grand_total = n + m + k_total;
        if grand_total <= 0.0 {
            return f64::NEG_INFINITY;
        }
        match self {
            Measure::Entropy => {
                // eq. 3:  L = −1/N Σ_c [ n_c log2 θ_c + m_c log2 φ_c
                //                        + k_c log2 max(θ_c, φ_c) ]
                // with θ_c = (n_c + k_c)/(n + k_c), φ_c = (m_c + k_c)/(m + k_c).
                let mut sum = 0.0;
                for c in 0..classes {
                    let nc = below.get(c);
                    let mc = above.get(c);
                    let kc = inside.get(c);
                    let theta = safe_ratio(nc + kc, n + kc);
                    let phi = safe_ratio(mc + kc, m + kc);
                    sum += nc * safe_log2(theta)
                        + mc * safe_log2(phi)
                        + kc * safe_log2(theta.max(phi));
                }
                -sum / grand_total
            }
            Measure::Gini => {
                // Gini analogue of eq. 3 (the paper's eq. 4 plays the same
                // role; this reformulation is derived the same way as the
                // entropy bound and is provably a lower bound):
                //   L = 1 − 1/N Σ_c [ n_c θ_c + m_c φ_c + k_c max(θ_c, φ_c) ]
                // using l_c²/L = l_c·(l_c/L) ≤ l_c·θ_c and the symmetric
                // inequality on the right side.
                let mut sum = 0.0;
                for c in 0..classes {
                    let nc = below.get(c);
                    let mc = above.get(c);
                    let kc = inside.get(c);
                    let theta = safe_ratio(nc + kc, n + kc);
                    let phi = safe_ratio(mc + kc, m + kc);
                    sum += nc * theta + mc * phi + kc * theta.max(phi);
                }
                1.0 - sum / grand_total
            }
            Measure::GainRatio => f64::NEG_INFINITY,
        }
    }
}

/// How many classes fit in the stack-allocated per-class scratch rows of
/// the cumulative scoring paths before they fall back to the heap.
const STACK_CLASSES: usize = 16;

/// Materialises one derived per-class row (`row[c] = derive(c)` for
/// `c < classes`) in a stack buffer — heap fallback beyond
/// [`STACK_CLASSES`] — and hands it to `body`. Values and evaluation
/// order match calling `derive` at each use site, so hoisting through
/// this helper is bit-identical.
#[inline]
fn with_class_row<R>(
    classes: usize,
    derive: impl Fn(usize) -> f64,
    body: impl FnOnce(&[f64]) -> R,
) -> R {
    if classes <= STACK_CLASSES {
        let mut buf = [0.0f64; STACK_CLASSES];
        for (c, slot) in buf[..classes].iter_mut().enumerate() {
            *slot = derive(c);
        }
        body(&buf[..classes])
    } else {
        let row: Vec<f64> = (0..classes).map(derive).collect();
        body(&row)
    }
}

/// `num / den`, or 0 when the denominator vanishes.
#[inline]
fn safe_ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `log2(x)` with the convention that it is only ever multiplied by a zero
/// coefficient when `x == 0`; returns 0 in that case to avoid `NaN`s.
#[inline]
fn safe_log2(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(values: &[f64]) -> ClassCounts {
        ClassCounts::from_vec(values.to_vec())
    }

    #[test]
    fn entropy_dispersion_reference_values() {
        let m = Measure::Entropy;
        assert_eq!(m.dispersion(&cc(&[4.0, 0.0])), 0.0);
        assert!((m.dispersion(&cc(&[2.0, 2.0])) - 1.0).abs() < 1e-12);
        assert!((m.dispersion(&cc(&[1.0, 1.0, 1.0, 1.0])) - 2.0).abs() < 1e-12);
        // Entropy of (0.25, 0.75).
        let h = -(0.25f64.log2() * 0.25 + 0.75f64.log2() * 0.75);
        assert!((m.dispersion(&cc(&[1.0, 3.0])) - h).abs() < 1e-12);
        assert_eq!(m.dispersion(&cc(&[0.0, 0.0])), 0.0);
    }

    #[test]
    fn gini_dispersion_reference_values() {
        let m = Measure::Gini;
        assert_eq!(m.dispersion(&cc(&[4.0, 0.0])), 0.0);
        assert!((m.dispersion(&cc(&[2.0, 2.0])) - 0.5).abs() < 1e-12);
        assert!((m.dispersion(&cc(&[1.0, 3.0])) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn split_score_prefers_purer_partitions() {
        for m in [Measure::Entropy, Measure::Gini, Measure::GainRatio] {
            let pure = m.split_score(&cc(&[4.0, 0.0]), &cc(&[0.0, 4.0]));
            let mixed = m.split_score(&cc(&[2.0, 2.0]), &cc(&[2.0, 2.0]));
            assert!(pure < mixed, "{m:?}: pure split must score lower");
        }
    }

    #[test]
    fn entropy_split_score_matches_equation_1() {
        // |L| = 3 with counts (1, 2); |R| = 1 pure.
        let left = cc(&[1.0, 2.0]);
        let right = cc(&[0.0, 1.0]);
        let h_left = -(1.0 / 3.0 * (1.0f64 / 3.0).log2() + 2.0 / 3.0 * (2.0f64 / 3.0).log2());
        let expected = 0.75 * h_left;
        assert!((Measure::Entropy.split_score(&left, &right) - expected).abs() < 1e-12);
    }

    #[test]
    fn gain_ratio_handles_degenerate_splits() {
        let m = Measure::GainRatio;
        assert_eq!(
            m.split_score(&cc(&[0.0, 0.0]), &cc(&[1.0, 1.0])),
            f64::INFINITY
        );
        // A balanced informative split has a strictly negative score
        // (because the score is the negated gain ratio).
        let s = m.split_score(&cc(&[2.0, 0.0]), &cc(&[0.0, 2.0]));
        assert!(s < 0.0);
    }

    #[test]
    fn fractional_counts_are_handled() {
        // Fractional tuples: weights need not be integral.
        let m = Measure::Entropy;
        let s = m.split_score(&cc(&[0.3, 0.7]), &cc(&[1.2, 0.8]));
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn homogeneous_pruning_support() {
        assert!(Measure::Entropy.supports_homogeneous_pruning());
        assert!(Measure::Gini.supports_homogeneous_pruning());
        assert!(!Measure::GainRatio.supports_homogeneous_pruning());
    }

    /// Brute-force check that the eq. 3 / eq. 4 bounds really are lower
    /// bounds: enumerate many ways of dividing the interval's per-class
    /// counts between left and right and confirm every resulting split
    /// score is ≥ the bound.
    #[test]
    fn interval_lower_bound_is_a_true_lower_bound() {
        let below = cc(&[3.0, 1.0]);
        let inside = cc(&[2.0, 2.5]);
        let above = cc(&[0.5, 4.0]);
        for m in [Measure::Entropy, Measure::Gini] {
            let bound = m.interval_lower_bound(&below, &inside, &above);
            let steps = 20;
            for i in 0..=steps {
                for j in 0..=steps {
                    let f0 = i as f64 / steps as f64;
                    let f1 = j as f64 / steps as f64;
                    let left = cc(&[
                        below.get(0) + f0 * inside.get(0),
                        below.get(1) + f1 * inside.get(1),
                    ]);
                    let right = cc(&[
                        above.get(0) + (1.0 - f0) * inside.get(0),
                        above.get(1) + (1.0 - f1) * inside.get(1),
                    ]);
                    let score = m.split_score(&left, &right);
                    assert!(
                        score >= bound - 1e-9,
                        "{m:?}: score {score} < bound {bound} at ({f0}, {f1})"
                    );
                }
            }
        }
    }

    #[test]
    fn interval_lower_bound_matches_end_points_when_interval_is_empty() {
        // With no mass inside the interval the bound equals the score of
        // splitting exactly at the interval boundary.
        let below = cc(&[3.0, 1.0]);
        let inside = cc(&[0.0, 0.0]);
        let above = cc(&[1.0, 4.0]);
        for m in [Measure::Entropy, Measure::Gini] {
            let bound = m.interval_lower_bound(&below, &inside, &above);
            let exact = m.split_score(&below, &above);
            assert!((bound - exact).abs() < 1e-9, "{m:?}");
        }
    }

    #[test]
    fn gain_ratio_has_no_usable_bound() {
        let c = cc(&[1.0, 1.0]);
        assert_eq!(
            Measure::GainRatio.interval_lower_bound(&c, &c, &c),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn degenerate_bound_inputs() {
        let zero = cc(&[0.0, 0.0]);
        for m in [Measure::Entropy, Measure::Gini] {
            assert_eq!(
                m.interval_lower_bound(&zero, &zero, &zero),
                f64::NEG_INFINITY
            );
        }
    }
}
