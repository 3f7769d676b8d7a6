//! End-to-end accuracy integration tests: the paper's Table 3 and Fig. 4
//! claims, checked in *shape* on the scaled synthetic workloads.

use udt_data::noise::perturb;
use udt_data::repository::by_name;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_eval::crossval::cross_validate;
use udt_eval::experiments::settings::Settings;
use udt_eval::experiments::table3;
use udt_prob::ErrorModel;
use udt_tree::{Algorithm, UdtConfig};

fn smoke() -> Settings {
    Settings {
        scale: 0.3,
        s: 20,
        folds: 4,
        seed: 13,
        datasets: vec!["Iris".to_string()],
    }
}

/// Table 3's headline claim: on noisy data whose error is modelled by the
/// injected uncertainty, the distribution-based tree is at least as
/// accurate as Averaging (and usually better).
#[test]
fn distribution_based_matches_or_beats_averaging_under_matched_noise() {
    let spec = by_name("Iris").unwrap();
    let clean = spec.generate(0.4).unwrap();
    // Perturb the point data (the "real" measurement error)…
    let noisy = perturb(&clean, 0.15, 5).unwrap();
    // …and model exactly that error as the injected uncertainty.
    let uncertain = inject_uncertainty(
        &noisy,
        &UncertaintySpec {
            w: 0.15,
            s: 40,
            model: ErrorModel::Gaussian,
        },
    )
    .unwrap();
    let avg = cross_validate(&uncertain, &UdtConfig::new(Algorithm::Avg), 5, 3).unwrap();
    let udt = cross_validate(&uncertain, &UdtConfig::new(Algorithm::UdtGp), 5, 3).unwrap();
    assert!(
        udt.pooled.accuracy() + 0.02 >= avg.pooled.accuracy(),
        "UDT {:.3} should not trail AVG {:.3} by more than noise",
        udt.pooled.accuracy(),
        avg.pooled.accuracy()
    );
}

/// The Table 3 experiment runs end to end at smoke scale and produces
/// plausible accuracies for every row.
#[test]
fn table3_smoke_run_produces_full_sweep() {
    let rows = table3::run(&smoke()).unwrap();
    assert_eq!(rows.len(), table3::W_VALUES.len());
    for r in &rows {
        assert!(
            r.avg_accuracy > 0.3,
            "AVG should beat chance, got {}",
            r.avg_accuracy
        );
        assert!(
            r.udt_accuracy > 0.3,
            "UDT should beat chance, got {}",
            r.udt_accuracy
        );
    }
    let summary = table3::summarise(&rows);
    assert_eq!(summary.len(), 1);
    assert!(summary[0].udt_best_accuracy >= summary[0].udt_accuracy - 1e-12);
}

/// The JapaneseVowel-style raw-measurement path: pdfs built from repeated
/// measurements carry usable information, so the distribution-based tree
/// reaches a sensible accuracy on held-out data.
#[test]
fn raw_measurement_dataset_is_learnable() {
    let data = udt_data::repository::japanese_vowel(0.25).unwrap();
    let cv = cross_validate(&data, &UdtConfig::new(Algorithm::UdtEs), 4, 17).unwrap();
    // 9 classes → chance is ~11 %; the classifier must do much better.
    assert!(
        cv.pooled.accuracy() > 0.5,
        "accuracy {:.3} barely above chance",
        cv.pooled.accuracy()
    );
}

/// The §4.4 shape: with artificial perturbation u and a matching modelled
/// width w, accuracy at w ≈ u is at least as good as accuracy with a badly
/// overestimated w.
#[test]
fn matched_uncertainty_width_is_not_worse_than_a_gross_overestimate() {
    let spec = by_name("Glass").unwrap();
    let clean = spec.generate(0.5).unwrap();
    let noisy = perturb(&clean, 0.10, 23).unwrap();
    let accuracy_at = |w: f64| {
        let data = inject_uncertainty(
            &noisy,
            &UncertaintySpec {
                w,
                s: 24,
                model: ErrorModel::Gaussian,
            },
        )
        .unwrap();
        cross_validate(&data, &UdtConfig::new(Algorithm::UdtGp), 4, 29)
            .unwrap()
            .pooled
            .accuracy()
    };
    let matched = accuracy_at(0.10);
    let overestimated = accuracy_at(0.60);
    // On the synthetic stand-in the classes are separable enough that even a
    // grossly overestimated width still classifies well, so the assertion is
    // on the *shape* only: the matched width must stay within a modest band
    // of the overestimate rather than collapse.
    assert!(
        matched + 0.10 >= overestimated,
        "matched-w accuracy {matched:.3} should not be clearly below overestimated-w {overestimated:.3}"
    );
}
