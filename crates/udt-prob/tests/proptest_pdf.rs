//! Randomized property tests for the probability substrate.
//!
//! The build environment is offline, so instead of `proptest` these use a
//! seeded ChaCha8 generator and explicit case loops; every case is fully
//! deterministic and reproducible from the seed. The invariants checked
//! are the ones the decision-tree algorithms rely on: normalisation, cdf
//! monotonicity, consistency between splitting and interval
//! probabilities, and bit-exact serialisation round trips.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use udt_prob::model::ErrorModel;
use udt_prob::pdf::{SampledPdf, MASS_EPSILON};
use udt_prob::stats::Summary;

const CASES: usize = 64;

/// Generates a valid pdf with 1..=64 samples over roughly [-1000, 1000].
fn random_pdf(rng: &mut ChaCha8Rng) -> SampledPdf {
    let n = rng.gen_range(1..=64usize);
    let mut points: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    points.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    points.dedup();
    let mass: Vec<f64> = points.iter().map(|_| rng.gen_range(0.001..10.0)).collect();
    SampledPdf::new(points, mass).expect("generator builds valid pdfs")
}

#[test]
fn mass_is_normalised() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let pdf = random_pdf(&mut rng);
        let total: f64 = pdf.mass().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((pdf.prob_le(pdf.hi()) - 1.0).abs() < 1e-12);
    }
}

#[test]
fn cdf_is_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let pdf = random_pdf(&mut rng);
        let mut xs: Vec<f64> = (0..rng.gen_range(1..20usize))
            .map(|_| rng.gen_range(-1100.0..1100.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut prev = 0.0;
        for x in xs {
            let c = pdf.prob_le(x);
            assert!(c >= prev - 1e-12);
            assert!((0.0..=1.0 + 1e-12).contains(&c));
            prev = c;
        }
    }
}

#[test]
fn split_mass_is_conserved() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let pdf = random_pdf(&mut rng);
        let z = rng.gen_range(-1100.0..1100.0);
        let (p_left, left, right) = pdf.split_at(z);
        assert!((0.0..=1.0).contains(&p_left));
        // Weighted child masses reconstruct the parent probability of any
        // query point.
        let probe = pdf.points()[pdf.len() / 2];
        let reconstructed = p_left * left.as_ref().map(|l| l.prob_le(probe)).unwrap_or(0.0)
            + (1.0 - p_left) * right.as_ref().map(|r| r.prob_le(probe)).unwrap_or(0.0);
        assert!((reconstructed - pdf.prob_le(probe)).abs() < 1e-9);
        // Weighted child means reconstruct the parent mean.
        if let (Some(l), Some(r)) = (&left, &right) {
            let mean = p_left * l.mean() + (1.0 - p_left) * r.mean();
            assert!((mean - pdf.mean()).abs() < 1e-6);
        }
    }
}

#[test]
fn interval_probabilities_partition_unity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let pdf = random_pdf(&mut rng);
        let mut cuts: Vec<f64> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(-1100.0..1100.0))
            .collect();
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let lo = pdf.lo() - 1.0;
        let hi = pdf.hi() + 1.0;
        let mut boundaries = vec![lo];
        boundaries.extend(cuts.into_iter().filter(|&c| c > lo && c < hi));
        boundaries.push(hi);
        let mut total = 0.0;
        for w in boundaries.windows(2) {
            total += pdf.prob_in(w[0], w[1]).unwrap();
        }
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn error_models_centre_on_the_mean() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let mean = rng.gen_range(-100.0..100.0);
        let width = rng.gen_range(0.01..50.0);
        let s = rng.gen_range(2..128usize);
        let model = if rng.gen::<bool>() {
            ErrorModel::Gaussian
        } else {
            ErrorModel::Uniform
        };
        let pdf = model.discretise(mean, width, s).unwrap();
        assert_eq!(pdf.len(), s);
        assert!((pdf.mean() - mean).abs() < width * 1e-6 + 1e-9);
        assert!(pdf.lo() >= mean - width / 2.0 - 1e-9);
        assert!(pdf.hi() <= mean + width / 2.0 + 1e-9);
    }
}

#[test]
fn summary_mean_within_min_max() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let values: Vec<f64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(-1e6..1e6))
            .collect();
        let s = Summary::of(&values);
        assert!(s.mean >= s.min - 1e-9);
        assert!(s.mean <= s.max + 1e-9);
        assert!(s.variance >= 0.0);
    }
}

#[test]
fn raw_sample_pdf_mean_matches_sample_mean() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let values: Vec<f64> = (0..rng.gen_range(1..100usize))
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect();
        let pdf = SampledPdf::from_raw_samples(&values).unwrap();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((pdf.mean() - mean).abs() < 1e-6);
    }
}

#[test]
fn serde_round_trip_is_bit_identical() {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA8);
    for _ in 0..CASES {
        let pdf = random_pdf(&mut rng);
        let text = serde_json::to_string(&pdf).expect("pdf serialises");
        let back: SampledPdf = serde_json::from_str(&text).expect("a serialised pdf reads back");
        assert_eq!(bits(back.points()), bits(pdf.points()));
        assert_eq!(bits(back.mass()), bits(pdf.mass()));
        let cdf = |p: &SampledPdf| p.points().iter().map(|&x| p.prob_le(x)).collect::<Vec<_>>();
        assert_eq!(bits(&cdf(&back)), bits(&cdf(&pdf)));
        assert_eq!(serde_json::to_string(&back).expect("pdf serialises"), text);
    }
}

/// The cumulative masses as pdfs once stored them: running sums in index
/// order, with the last entry pinned to 1. The oracle for the tests below.
fn cumulative_of(mass: &[f64]) -> Vec<f64> {
    let mut cumulative = Vec::with_capacity(mass.len());
    let mut acc = 0.0;
    for &m in mass {
        acc += m;
        cumulative.push(acc);
    }
    if let Some(last) = cumulative.last_mut() {
        *last = 1.0;
    }
    cumulative
}

/// `P[X <= x]` read from the oracle's cumulative masses by binary search.
fn oracle_prob_le(pdf: &SampledPdf, x: f64) -> f64 {
    let cumulative = cumulative_of(pdf.mass());
    match pdf
        .points()
        .binary_search_by(|p| p.partial_cmp(&x).expect("finite"))
    {
        Ok(i) => cumulative[i],
        Err(0) => 0.0,
        Err(i) => cumulative[i - 1],
    }
}

/// `split_at` with the oracle's `P[X <= z]`.
fn oracle_split_at(pdf: &SampledPdf, z: f64) -> (f64, Option<SampledPdf>, Option<SampledPdf>) {
    let p_left = oracle_prob_le(pdf, z);
    if p_left <= MASS_EPSILON {
        return (0.0, None, Some(pdf.clone()));
    }
    if p_left >= 1.0 - MASS_EPSILON {
        return (1.0, Some(pdf.clone()), None);
    }
    let side = |left: bool| {
        let (points, mass): (Vec<f64>, Vec<f64>) = pdf
            .iter()
            .filter(|&(x, m)| m > 0.0 && (x <= z) == left)
            .unzip();
        SampledPdf::new(points, mass).ok()
    };
    (p_left, side(true), side(false))
}

/// The serialized form pdfs had when they stored their cumulative masses.
#[derive(serde::Serialize)]
struct StoredPdf {
    points: Vec<f64>,
    mass: Vec<f64>,
    cumulative: Vec<f64>,
}

/// Random pdfs plus the edge cases the generator does not reach:
/// zero-mass points, a single point and denormal masses.
fn oracle_cases() -> Vec<SampledPdf> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA9);
    let mut cases: Vec<SampledPdf> = (0..CASES).map(|_| random_pdf(&mut rng)).collect();
    let fixed: [(&[f64], &[f64]); 5] = [
        (&[1.0, 2.0, 3.0], &[0.5, 0.0, 0.5]),
        (&[-4.0, -1.0, 0.0, 2.5], &[0.0, 0.3, 0.0, 0.7]),
        (&[7.0], &[1.0]),
        (&[0.0, 1.0, 2.0], &[5e-324, 1.0, 1e-310]),
        (&[-1.0, 1.0], &[1e-308, 1e-320]),
    ];
    for (points, mass) in fixed {
        cases.push(SampledPdf::new(points.to_vec(), mass.to_vec()).expect("valid pdf"));
    }
    for _ in 0..CASES {
        let mut pdf = random_pdf(&mut rng);
        let mass: Vec<f64> = pdf
            .mass()
            .iter()
            .map(|&m| if rng.gen::<bool>() { 0.0 } else { m })
            .collect();
        if let Ok(zeroed) = SampledPdf::new(pdf.points().to_vec(), mass) {
            pdf = zeroed;
        }
        cases.push(pdf);
    }
    cases
}

#[test]
fn probabilities_and_splits_match_the_stored_cumulative_bit_for_bit() {
    let bits = |p: &Option<SampledPdf>| {
        p.as_ref().map(|p| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(p.points()), bits(p.mass()))
        })
    };
    for pdf in oracle_cases() {
        let points = pdf.points();
        let mut queries = vec![pdf.lo() - 1.0, pdf.hi() + 1.0];
        queries.extend_from_slice(points);
        queries.extend(points.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0));
        for &x in &queries {
            let expected = oracle_prob_le(&pdf, x);
            assert_eq!(
                pdf.prob_le(x).to_bits(),
                expected.to_bits(),
                "{pdf:?} at {x}"
            );
            let gt = (1.0 - expected).max(0.0);
            assert_eq!(pdf.prob_gt(x).to_bits(), gt.to_bits(), "{pdf:?} at {x}");
            for &y in &queries {
                if x <= y {
                    let within = (oracle_prob_le(&pdf, y) - expected).max(0.0);
                    let got = pdf.prob_in(x, y).expect("a valid interval");
                    assert_eq!(got.to_bits(), within.to_bits(), "{pdf:?} in ({x}, {y}]");
                }
            }
            let (p_left, left, right) = pdf.split_at(x);
            let (e_left, e_left_pdf, e_right_pdf) = oracle_split_at(&pdf, x);
            assert_eq!(p_left.to_bits(), e_left.to_bits(), "{pdf:?} split at {x}");
            assert_eq!(bits(&left), bits(&e_left_pdf), "{pdf:?} split at {x}");
            assert_eq!(bits(&right), bits(&e_right_pdf), "{pdf:?} split at {x}");
        }
    }
}

#[test]
fn serialized_bytes_match_the_stored_cumulative_and_read_back() {
    for pdf in oracle_cases() {
        let text = serde_json::to_string(&pdf).expect("pdf serialises");
        let stored = StoredPdf {
            points: pdf.points().to_vec(),
            mass: pdf.mass().to_vec(),
            cumulative: cumulative_of(pdf.mass()),
        };
        assert_eq!(text, serde_json::to_string(&stored).expect("serialises"));
        let back: SampledPdf = serde_json::from_str(&text).expect("a serialised pdf reads back");
        assert_eq!(back, pdf);
    }
}
