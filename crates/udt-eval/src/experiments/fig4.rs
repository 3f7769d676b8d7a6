//! Fig. 4 — the controlled-noise / error-model experiment (§4.4).
//!
//! The paper injects artificial Gaussian noise of controlled magnitude `u`
//! into the point data, then adds modelled uncertainty of width `w` on
//! top, and plots UDT accuracy as a function of `w` for several values of
//! `u` (the `w = 0` points are AVG). The hypothesis — confirmed there and
//! reproduced here — is that accuracy rises quickly to a plateau around
//! the `w` predicted by equation (2), `w² = κ² + u²`, and degrades
//! gracefully beyond it.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use udt_data::noise::{model_w_for_u, perturb};
use udt_data::repository::by_name;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_tree::{Algorithm, UdtConfig};

use crate::crossval::cross_validate;
use crate::experiments::settings::Settings;
use crate::report::{pct, render_table};

/// Default `u` values (perturbation magnitudes), matching the spirit of the
/// paper's Fig. 4 curves.
pub const U_VALUES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Default `w` sweep; `w = 0` denotes the AVG baseline.
pub const W_SWEEP: [f64; 7] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30];

/// One measured point of Fig. 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Artificial perturbation magnitude `u`.
    pub u: f64,
    /// Modelled uncertainty width `w` (0 = AVG).
    pub w: f64,
    /// Cross-validated accuracy.
    pub accuracy: f64,
}

/// The complete Fig. 4 result: the measured grid plus the "model" curve of
/// equation (2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Name of the data set used (the paper uses "Segment").
    pub dataset: String,
    /// Measured accuracy grid.
    pub points: Vec<Fig4Point>,
    /// Estimated latent error `κ` (as a fraction of the attribute range).
    pub kappa: f64,
    /// The model curve: for each `u`, the predicted best `w` and the
    /// accuracy measured there.
    pub model_curve: Vec<Fig4Point>,
}

/// Runs the Fig. 4 experiment on the named data set (default "Segment").
pub fn run(settings: &Settings, dataset: &str) -> udt_data::Result<Fig4Result> {
    let spec = by_name(dataset).unwrap_or_else(|| by_name("Segment").expect("Segment exists"));
    let point_data = spec.generate(settings.scale)?;
    let perturbed = U_VALUES
        .iter()
        .enumerate()
        .map(|(ui, &u)| perturb(&point_data, u, settings.seed.wrapping_add(ui as u64)))
        .collect::<udt_data::Result<Vec<_>>>()?;

    let mut points = Vec::new();
    for (&u, data) in U_VALUES.iter().zip(&perturbed) {
        for &w in &W_SWEEP {
            let accuracy = accuracy_at(data, w, settings)?;
            points.push(Fig4Point { u, w, accuracy });
        }
    }

    // Estimate κ from the u = 0 curve, as the paper does: find the set of w
    // whose 95 % confidence interval overlaps the best point's, and take the
    // midpoint of that range.
    let kappa = estimate_kappa(&points, settings);

    let mut model_curve = Vec::new();
    for (&u, data) in U_VALUES.iter().zip(&perturbed) {
        let w = model_w_for_u(kappa, u);
        let accuracy = accuracy_at(data, w, settings)?;
        model_curve.push(Fig4Point { u, w, accuracy });
    }

    Ok(Fig4Result {
        dataset: spec.name.to_string(),
        points,
        kappa,
        model_curve,
    })
}

/// Cross-validated accuracy of the distribution-based tree at uncertainty
/// width `w` (or of AVG when `w == 0`).
fn accuracy_at(
    perturbed: &udt_data::Dataset,
    w: f64,
    settings: &Settings,
) -> udt_data::Result<f64> {
    let (data, algorithm) = if w <= 0.0 {
        (Cow::Borrowed(perturbed), Algorithm::Avg)
    } else {
        let uspec = UncertaintySpec::baseline().with_w(w).with_s(settings.s);
        let data = inject_uncertainty(perturbed, &uspec)?;
        (Cow::Owned(data), Algorithm::UdtGp)
    };
    let config = UdtConfig::new(algorithm);
    let cv = cross_validate(&data, &config, settings.folds, settings.seed, true)?;
    Ok(cv.pooled.accuracy())
}

/// Estimates the latent error κ from the `u = 0` curve: the midpoint of the
/// range of `w > 0` whose accuracy is statistically indistinguishable from
/// the best observed accuracy (§4.4).
fn estimate_kappa(points: &[Fig4Point], settings: &Settings) -> f64 {
    let zero_curve: Vec<&Fig4Point> = points.iter().filter(|p| p.u == 0.0 && p.w > 0.0).collect();
    if zero_curve.is_empty() {
        return 0.0;
    }
    let best = zero_curve
        .iter()
        .map(|p| p.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    // Approximate the fold-to-fold standard error with a binomial CI over
    // the pooled test tuples; points within that band of the best count as
    // "on the plateau".
    let n = (settings.folds.max(2) * 20) as f64;
    let half_width = 1.96 * (best * (1.0 - best) / n).sqrt();
    let plateau: Vec<f64> = zero_curve
        .iter()
        .filter(|p| p.accuracy + half_width >= best)
        .map(|p| p.w)
        .collect();
    if plateau.is_empty() {
        return 0.0;
    }
    let lo = plateau.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = plateau.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo + hi) / 2.0
}

/// Renders the measured grid as a plain-text table (one row per `u`, one
/// column per `w`).
pub fn render(result: &Fig4Result) -> String {
    let mut header: Vec<String> = vec!["u \\ w".to_string()];
    header.extend(W_SWEEP.iter().map(|w| {
        if *w == 0.0 {
            "AVG".to_string()
        } else {
            format!("{:.0}%", w * 100.0)
        }
    }));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for &u in &U_VALUES {
        let mut row = vec![format!("{:.0}%", u * 100.0)];
        for &w in &W_SWEEP {
            let cell = result
                .points
                .iter()
                .find(|p| p.u == u && p.w == w)
                .map(|p| pct(p.accuracy))
                .unwrap_or_default();
            row.push(cell);
        }
        rows.push(row);
    }
    let mut out = render_table(
        &format!(
            "Fig. 4: controlled noise on \"{}\" (kappa = {:.3})",
            result.dataset, result.kappa
        ),
        &header_refs,
        &rows,
    );
    out.push_str("\nmodel curve (eq. 2):\n");
    for p in &result.model_curve {
        out.push_str(&format!(
            "  u = {:>4.0}%  ->  w = {:>5.1}%  accuracy = {}\n",
            p.u * 100.0,
            p.w * 100.0,
            pct(p.accuracy)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> Settings {
        Settings {
            scale: 0.03,
            s: 10,
            folds: 3,
            seed: 3,
            datasets: Vec::new(),
        }
    }

    #[test]
    fn grid_covers_every_u_w_combination() {
        let result = run(&tiny_settings(), "Glass").unwrap();
        assert_eq!(result.dataset, "Glass");
        assert_eq!(result.points.len(), U_VALUES.len() * W_SWEEP.len());
        assert_eq!(result.model_curve.len(), U_VALUES.len());
        for p in &result.points {
            assert!((0.0..=1.0).contains(&p.accuracy));
        }
        assert!(result.kappa >= 0.0);
        // The model curve's w grows with u (eq. 2 is monotone in u).
        for pair in result.model_curve.windows(2) {
            assert!(pair[1].w >= pair[0].w - 1e-12);
        }
    }

    #[test]
    fn unknown_dataset_falls_back_to_segment() {
        let mut s = tiny_settings();
        s.scale = 0.01;
        let result = run(&s, "NoSuchDataset").unwrap();
        assert_eq!(result.dataset, "Segment");
    }

    #[test]
    fn render_mentions_the_model_curve() {
        let result = run(&tiny_settings(), "Glass").unwrap();
        let text = render(&result);
        assert!(text.contains("model curve"));
        assert!(text.contains("AVG"));
    }
}
