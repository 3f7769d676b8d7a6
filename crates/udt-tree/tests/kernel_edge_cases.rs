//! Edge-case coverage for the score-kernel layer, exercised through the
//! public [`AttributeEvents`] batch entry points with the exact
//! per-candidate formula ([`AttributeEvents::score_at`]) as the
//! reference. Every column has at least eight candidates, so its full
//! range goes to the batch kernel:
//!
//! - empty-side candidates (the `WEIGHT_EPSILON` mass gate) score `+∞`;
//! - single-class columns score zero dispersion everywhere (exactly,
//!   per candidate; within the kernel's 1e-12 jitter, batched);
//! - every SIMD tail-lane shape (range lengths 1..=12 at every offset)
//!   agrees with the exact formula;
//! - `clamp_residue` absorbs tiny-negative floating drift in the
//!   counter-difference entry points instead of producing `NaN`s;
//! - the gain-ratio `split_info ≤ 0` gate yields `+∞`, never `NaN`,
//!   under extreme mass imbalance.

use udt_tree::events::AttributeEvents;
use udt_tree::{ClassCounts, Measure};

const MEASURES: [Measure; 3] = [Measure::Entropy, Measure::Gini, Measure::GainRatio];

/// Builds an events structure over positions `0, 1, …` from explicit
/// cumulative rows.
fn events(rows: &[Vec<f64>]) -> AttributeEvents {
    let xs: Vec<f64> = (0..rows.len()).map(|i| i as f64).collect();
    let cum: Vec<f64> = rows.concat();
    AttributeEvents::from_parts(xs, cum, rows[0].len(), vec![0, rows.len() - 1])
        .expect("at least two positions")
}

/// Scores the full candidate range of `ev` into a fresh vector.
fn scores(ev: &AttributeEvents, measure: Measure) -> Vec<f64> {
    let mut out = Vec::new();
    ev.score_range_into(0..ev.n_positions() - 1, measure, &mut out);
    out
}

#[test]
fn empty_side_candidates_score_infinite() {
    // Candidate 0 has no left mass at all, candidate 1 carries less than
    // WEIGHT_EPSILON on the left, and candidate 9 leaves the right side
    // empty; candidates 2–8 are regular splits. (An all-zero leading row
    // cannot come out of the event pipeline, which mass-gates events,
    // but the scoring layer must still gate it — it reaches the kernel
    // through `from_parts` and through sub-epsilon partition residues.)
    let mut rows = vec![vec![0.0, 0.0], vec![5e-10, 0.0]];
    rows.extend((0..7).map(|i| vec![1.0, 0.25 * i as f64]));
    rows.extend([vec![1.0, 2.0], vec![1.0, 2.0]]);
    let ev = events(&rows);
    for measure in MEASURES {
        let got = scores(&ev, measure);
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], f64::INFINITY, "{measure:?}: empty left side");
        assert_eq!(got[1], f64::INFINITY, "{measure:?}: sub-epsilon left side");
        for (i, s) in got.iter().enumerate().take(9).skip(2) {
            assert!(s.is_finite(), "{measure:?}, candidate {i}: {s}");
        }
        assert_eq!(got[9], f64::INFINITY, "{measure:?}: empty right side");
        // The batch and single-candidate paths agree on the gates.
        for (i, &s) in got.iter().enumerate() {
            let single = ev.score_at(i, measure);
            assert_eq!(
                s.is_finite(),
                single.is_finite(),
                "{measure:?}, candidate {i}"
            );
        }
    }
}

#[test]
fn single_class_columns_score_zero_everywhere() {
    // All mass in class 1 of 3: both sides of every candidate are pure,
    // so entropy and Gini are exactly 0.0 and gain ratio divides a zero
    // gain by a positive split_info. The exact formula gives exactly
    // zero; the batch kernel's algebraic rearrangement leaves at most
    // its documented 1e-12 jitter around it.
    let rows: Vec<Vec<f64>> = (0..10)
        .map(|i| vec![0.0, 1.0 + 0.5 * i as f64, 0.0])
        .collect();
    let ev = events(&rows);
    for measure in MEASURES {
        for (i, s) in scores(&ev, measure).into_iter().enumerate() {
            assert!(s.abs() <= 1e-12, "{measure:?}, batched candidate {i}: {s}");
            assert_eq!(ev.score_at(i, measure), 0.0, "{measure:?}, candidate {i}");
        }
    }
}

#[test]
fn every_tail_lane_shape_matches_the_scalar_kernel() {
    // 17 positions → 16 candidates, scored through every sub-range of
    // length 1..=12 at every offset. Ranges of 8 or more go to the batch
    // kernel and cover full AVX2 blocks (4 rows), SSE2 pairs and 1–3-row
    // tails; shorter ones take the exact formula.
    let n = 17usize;
    let k = 3usize;
    let mut running = [0.0f64; 3];
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            running[i % k] += 0.25 + 0.25 * ((i * 7 + 3) % 5) as f64;
            running.to_vec()
        })
        .collect();
    let ev = events(&rows);
    for measure in MEASURES {
        for len in 1..=12usize {
            for start in 0..=(n - 1 - len) {
                let mut got = Vec::new();
                ev.score_range_into(start..start + len, measure, &mut got);
                for (slot, &g) in got.iter().enumerate() {
                    let w = ev.score_at(start + slot, measure);
                    assert!(
                        (g - w).abs() <= 1e-9 || (g == w),
                        "{measure:?}, range {start}..{}, slot {slot}: {g} vs {w}",
                        start + len
                    );
                }
            }
        }
    }
}

#[test]
fn clamp_residue_absorbs_tiny_negative_drift() {
    // The kernel stores hold monotone cumulative rows by construction,
    // but the counter-difference entry points (`split_score_cum`,
    // `interval_lower_bound_cum`) accept rows reconstructed from
    // independently accumulated sums, where `total − left` can drift a
    // few ulps negative. The clamp must turn that into an empty class,
    // not a NaN from `log` of a negative ratio.
    let left = [0.3 + 2e-16, 0.7];
    let total = [0.3, 1.4];
    for measure in MEASURES {
        let drifted = measure.split_score_cum(&left, &total);
        assert!(!drifted.is_nan(), "{measure:?}: {drifted}");
        let exact = measure.split_score_cum(&[0.3, 0.7], &total);
        assert!(
            (drifted - exact).abs() < 1e-9,
            "{measure:?}: {drifted} vs {exact}"
        );
    }
    // Same drift between an interval's two end-point rows.
    for measure in [Measure::Entropy, Measure::Gini] {
        let bound = measure.interval_lower_bound_cum(&[0.3 + 2e-16, 0.7], &[0.3, 0.9], &total);
        assert!(!bound.is_nan(), "{measure:?}: {bound}");
    }
}

#[test]
fn gain_ratio_split_info_gate_yields_infinity_not_nan() {
    // Multi-way splits with every empty part but one have
    // `split_info == 0` exactly; the gate must answer +∞.
    let mut full = ClassCounts::new(2);
    full.add(0, 3.0);
    full.add(1, 2.0);
    let empty = ClassCounts::new(2);
    let gated = Measure::GainRatio.multiway_score(&[full, empty]);
    assert_eq!(gated, f64::INFINITY);

    // Binary candidates under extreme imbalance: nl/n rounds to exactly
    // 1.0 while the right side still clears the mass gate, driving
    // split_info within a few ulps of zero. Whatever side of zero the
    // arithmetic lands on, the answer must be +∞ or finite — never NaN —
    // batched or per candidate.
    let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![1e17, 0.125 * i as f64]).collect();
    let ev = events(&rows);
    for (i, s) in scores(&ev, Measure::GainRatio).into_iter().enumerate() {
        assert!(!s.is_nan(), "batched candidate {i} produced NaN");
        let single = ev.score_at(i, Measure::GainRatio);
        assert!(!single.is_nan(), "candidate {i} produced NaN");
    }
}
