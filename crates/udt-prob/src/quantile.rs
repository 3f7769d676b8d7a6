//! Quantiles and percentile pseudo-end-points.
//!
//! §7.3 of the paper handles *unbounded* pdfs by generating artificial
//! "end points" at the 10-, 20-, …, 90-percentiles of each class's
//! cumulative tuple-count function, so that the interval-based pruning
//! algorithms (UDT-GP / UDT-ES) still have a finite set of interval
//! boundaries to work with. This module provides the quantile machinery on
//! a single [`SampledPdf`] and the combined pseudo-end-point generator over
//! a weighted collection of pdfs.

use crate::pdf::SampledPdf;

/// Returns the `q`-quantile of a pdf, i.e. the smallest sample point `x`
/// with `P[X <= x] >= q`. `q` is clamped into `[0, 1]`.
pub fn quantile(pdf: &SampledPdf, q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    // The first point whose cumulative mass reaches q. Zero-mass points
    // leave the cumulative mass flat, so the scan must stop at the first
    // one that reaches it, not at any one that equals it.
    pdf.points()
        .iter()
        .zip(pdf.cumulative())
        .find(|&(_, c)| c >= q)
        .map_or(pdf.hi(), |(&x, _)| x)
}

/// Returns deciles (10 %, 20 %, …, 90 %) of a pdf — the paper's suggested
/// percentile grid for unbounded pdfs.
pub fn deciles(pdf: &SampledPdf) -> Vec<f64> {
    (1..=9).map(|i| quantile(pdf, i as f64 / 10.0)).collect()
}

/// Generates pseudo-end-points for a weighted collection of pdfs by taking
/// `per_group` evenly-spaced quantiles of the *combined* weighted
/// cumulative tuple-count function of each group (§7.3: one cumulative
/// frequency function per class).
///
/// Each entry of `groups` is a list of `(weight, pdf)` pairs belonging to
/// one class. The returned points are sorted and deduplicated.
pub fn pseudo_end_points(groups: &[Vec<(f64, &SampledPdf)>], per_group: usize) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for group in groups {
        let total: f64 = group.iter().map(|(w, _)| *w).sum();
        if total <= 0.0 || per_group == 0 {
            continue;
        }
        // Collect the weighted sample points of the whole group and sort
        // them: the group's cumulative tuple count is a step function over
        // these points.
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for (w, pdf) in group {
            for (x, m) in pdf.iter() {
                pairs.push((x, w * m));
            }
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample points"));
        for i in 1..=per_group {
            let target = total * i as f64 / (per_group + 1) as f64;
            let mut acc = 0.0;
            let mut chosen = pairs.last().map(|p| p.0).unwrap_or(0.0);
            for &(x, m) in &pairs {
                acc += m;
                if acc >= target {
                    chosen = x;
                    break;
                }
            }
            out.push(chosen);
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_pdf(lo: f64, hi: f64, s: usize) -> SampledPdf {
        let points: Vec<f64> = (0..s)
            .map(|i| lo + (hi - lo) * i as f64 / (s - 1) as f64)
            .collect();
        SampledPdf::new(points, vec![1.0; s]).unwrap()
    }

    #[test]
    fn quantile_of_uniform_pdf_is_linear() {
        let p = uniform_pdf(0.0, 100.0, 101);
        // Each of the 101 points carries mass 1/101; the 0.5 quantile is
        // near the middle of the domain.
        let med = quantile(&p, 0.5);
        assert!((med - 50.0).abs() <= 1.0, "median = {med}");
        assert_eq!(quantile(&p, 0.0), 0.0);
        assert_eq!(quantile(&p, 1.0), 100.0);
        // Out-of-range quantiles are clamped.
        assert_eq!(quantile(&p, -3.0), 0.0);
        assert_eq!(quantile(&p, 7.0), 100.0);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let p = SampledPdf::new(vec![0.0, 1.0, 5.0, 9.0], vec![0.1, 0.4, 0.4, 0.1]).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile(&p, i as f64 / 20.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn quantile_skips_zero_mass_points_where_the_cumulative_mass_is_flat() {
        // P[X <= 1] = 0.5 already, so the median is 1, not the zero-mass 2.
        let p = SampledPdf::new(vec![1.0, 2.0, 3.0], vec![0.5, 0.0, 0.5]).unwrap();
        assert_eq!(quantile(&p, 0.5), 1.0);
        assert_eq!(quantile(&p, 0.0), 1.0);
        assert_eq!(quantile(&p, 0.75), 3.0);
    }

    #[test]
    fn deciles_returns_nine_sorted_points() {
        let p = uniform_pdf(0.0, 1.0, 1000);
        let d = deciles(&p);
        assert_eq!(d.len(), 9);
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert!((d[4] - 0.5).abs() < 0.01);
    }

    #[test]
    fn pseudo_end_points_cover_each_class() {
        let a = uniform_pdf(0.0, 1.0, 50);
        let b = uniform_pdf(10.0, 11.0, 50);
        let groups = vec![vec![(1.0, &a)], vec![(1.0, &b)]];
        let pts = pseudo_end_points(&groups, 9);
        assert!(!pts.is_empty());
        // Points from both class regions are present.
        assert!(pts.iter().any(|&x| x <= 1.0));
        assert!(pts.iter().any(|&x| x >= 10.0));
        // Sorted and deduplicated.
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pseudo_end_points_handles_degenerate_input() {
        assert!(pseudo_end_points(&[], 9).is_empty());
        let a = uniform_pdf(0.0, 1.0, 10);
        let groups = vec![vec![(0.0, &a)]];
        assert!(pseudo_end_points(&groups, 9).is_empty());
        let groups = vec![vec![(1.0, &a)]];
        assert!(pseudo_end_points(&groups, 0).is_empty());
    }
}
