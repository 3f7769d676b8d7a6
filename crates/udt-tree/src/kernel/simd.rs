//! Batch split-score arithmetic: the batch kernel.
//!
//! Scores whole ranges of contiguous candidate rows per call, four rows
//! in lockstep. The arithmetic is written once, as safe code over
//! `[f64; N]` lane arrays in which every step is one lane-wise
//! expression: `N = 4` for the blocks, `N = 1` for the tail rows and the
//! scalar reference. LLVM vectorises the blocks for whichever target the
//! code is compiled for, and it is compiled twice: for the baseline
//! target ([`SimdBackend::Portable`]; SSE2 on x86_64) and, through one
//! `#[target_feature(enable = "avx2")]` wrapper, for AVX2
//! ([`SimdBackend::Avx2`]). Rust never contracts `a·b + c` into an FMA
//! and only AVX2 (never `fma`) is enabled, so both builds round every
//! operation identically and produce **bit-identical** scores; which
//! backend runs is purely a speed choice, never a results choice.
//!
//! # Arithmetic
//!
//! With `f(x) = x·log2(x)`, `T` the column's total mass, `invT = 1/T`,
//! `l_c` the cumulative left counts of candidate row `i` and
//! `r_c = total_c − l_c` (exact in IEEE arithmetic: cumulative rows are
//! running sums of non-negative weights, so `total_c ≥ l_c` bitwise and
//! the exact formula's `clamp_residue` is a no-op here):
//!
//! * entropy  = `(f(nl) + f(nr) − Σf(l_c) − Σf(r_c)) · invT`
//! * Gini     = `1 − (Σl_c²/nl + Σr_c²/nr) · invT`
//! * gain ratio: `child` as entropy, `gain = h_parent − child`,
//!   `split_info = log2(T) − (f(nl)+f(nr))·invT`, score
//!   `−gain/split_info`, `+∞` when `split_info ≤ 0`
//!
//! `nl` accumulates in class order, `nr = T − nl`, and candidates with
//! `nl ≤ ε` or `nr ≤ ε` score `+∞` — mirroring the gates of
//! [`crate::Measure::split_score_cum`]. The per-column invariants
//! (`invT`, and for gain ratio `h_parent` and `log2 T`) are hoisted into
//! [`ColumnConsts`], computed once per call with the same polynomial.
//!
//! # `log2` polynomial
//!
//! `log2_lanes` decomposes a normal positive double into exponent and
//! mantissa `m ∈ [√2/2, √2)`, then evaluates the atanh series
//! `log2(m) = (2/ln2)·(t + t³/3 + … + t¹⁹/19)` with `t = (m−1)/(m+1)`
//! (|t| ≤ 0.172, truncation ≈ 1e-17) as a degree-9 Horner form in
//! `t²` — no FMA anywhere, so both builds round identically. Accuracy
//! is 1–2 ulp against libm, which keeps batch scores within ~1e-13 of
//! the exact formula — inside the 1e-12 deterministic tie-break band of
//! [`crate::split::SplitChoice::is_improved_by`].

use core::array::from_fn;
use core::ops::Range;

use crate::counts::WEIGHT_EPSILON;
use crate::measure::Measure;

use super::SimdBackend;

/// Measure selector for the const-generic kernels: entropy.
const M_ENTROPY: u8 = 0;
/// Measure selector: Gini.
const M_GINI: u8 = 1;
/// Measure selector: gain ratio.
const M_GAIN_RATIO: u8 = 2;

// --- polynomial log2 -------------------------------------------------

const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
/// Bit pattern of 2^52; OR-ing a small integer into these bits and
/// subtracting 2^52 converts u64 → f64 without hardware int→fp lanes.
const EXP_MAGIC: u64 = 0x4330_0000_0000_0000;
const TWO52: f64 = 4503599627370496.0;
const SQRT2: f64 = std::f64::consts::SQRT_2;

const TWO_OVER_LN2: f64 = 2.0 / std::f64::consts::LN_2;
const C0: f64 = TWO_OVER_LN2;
const C1: f64 = TWO_OVER_LN2 / 3.0;
const C2: f64 = TWO_OVER_LN2 / 5.0;
const C3: f64 = TWO_OVER_LN2 / 7.0;
const C4: f64 = TWO_OVER_LN2 / 9.0;
const C5: f64 = TWO_OVER_LN2 / 11.0;
const C6: f64 = TWO_OVER_LN2 / 13.0;
const C7: f64 = TWO_OVER_LN2 / 15.0;
const C8: f64 = TWO_OVER_LN2 / 17.0;
const C9: f64 = TWO_OVER_LN2 / 19.0;

/// Polynomial `log2` of `N` **normal positive** doubles. Each step is
/// one lane-wise array expression, small enough for LLVM to unroll and
/// vectorise; `N = 1` is the scalar form.
#[inline(always)]
fn log2_lanes<const N: usize>(x: [f64; N]) -> [f64; N] {
    let bits = x.map(f64::to_bits);
    let m: [f64; N] = from_fn(|j| f64::from_bits((bits[j] & MANT_MASK) | ONE_BITS));
    let ge = m.map(|m| m >= SQRT2);
    let m: [f64; N] = from_fn(|j| m[j] * if ge[j] { 0.5 } else { 1.0 });
    let e: [f64; N] = from_fn(|j| {
        let conv = f64::from_bits(((bits[j] >> 52) & 0x7ff) | EXP_MAGIC);
        conv - TWO52 - 1023.0 + if ge[j] { 1.0 } else { 0.0 }
    });
    let t: [f64; N] = from_fn(|j| (m[j] - 1.0) / (m[j] + 1.0));
    let u = t.map(|t| t * t);
    let mut p = [C9; N];
    for c in [C8, C7, C6, C5, C4, C3, C2, C1, C0] {
        p = from_fn(|j| p[j] * u[j] + c);
    }
    from_fn(|j| e[j] + t[j] * p[j])
}

/// Polynomial `x·log2(x)` of `N` lanes, with `x < MIN_POSITIVE` (zero,
/// denormals) mapping to `+0`. Branch-free: the product is computed for
/// every lane and the gate selects afterwards.
#[inline(always)]
fn xlog2x_lanes<const N: usize>(x: [f64; N]) -> [f64; N] {
    let log2 = log2_lanes(x);
    from_fn(|j| {
        let r = x[j] * log2[j];
        if x[j] < f64::MIN_POSITIVE {
            0.0
        } else {
            r
        }
    })
}

/// Scalar [`log2_lanes`].
fn plog2(x: f64) -> f64 {
    log2_lanes([x])[0]
}

/// Scalar [`xlog2x_lanes`].
fn pxlog2x(x: f64) -> f64 {
    xlog2x_lanes([x])[0]
}

// --- per-column constants --------------------------------------------

/// Per-column invariants hoisted out of the candidate loop, computed
/// once per [`score_range_with_backend`] call (in the caller's build) so
/// both backends share the same values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnConsts {
    /// Total mass `T` of the column (f64 sum of the total row).
    grand_total: f64,
    /// `1/T` (0 when the column is massless — every candidate gates).
    inv_t: f64,
    /// Gain ratio only: the parent entropy `(T·log2T − Σf(total_c))/T`.
    h_parent: f64,
    /// Gain ratio only: `log2(T)`.
    log2_t: f64,
}

/// Computes the hoisted invariants for one column.
pub(crate) fn column_consts(measure: Measure, total: &[f64], grand_total: f64) -> ColumnConsts {
    let mut consts = ColumnConsts {
        grand_total,
        inv_t: 0.0,
        h_parent: 0.0,
        log2_t: 0.0,
    };
    if grand_total < f64::MIN_POSITIVE {
        // Massless column: the nl/nr epsilon gates send every candidate
        // to +∞ before any constant is consulted.
        return consts;
    }
    consts.inv_t = 1.0 / grand_total;
    if matches!(measure, Measure::GainRatio) {
        let log2_t = plog2(grand_total);
        let f_t = grand_total * log2_t;
        let mut sum_f_total = 0.0;
        for &c in total {
            sum_f_total += pxlog2x(c);
        }
        consts.log2_t = log2_t;
        consts.h_parent = (f_t - sum_f_total) * consts.inv_t;
    }
    consts
}

// --- lane kernel -----------------------------------------------------

/// Candidate rows scored in lockstep by [`score_rows_lanes`]: one AVX2
/// register of `f64`, two SSE2 registers.
const LANES: usize = 4;

/// Scores `N` candidate rows in lockstep (`rows[j]` holds row `j`'s
/// cumulative left counts, one per class of `total`).
#[inline(always)]
fn score_block<const M: u8, const N: usize>(
    rows: [&[f64]; N],
    total: &[f64],
    consts: &ColumnConsts,
) -> [f64; N] {
    // Equal lengths let the class loop run without bounds checks.
    let k = total.len();
    let rows = rows.map(|row| &row[..k]);
    let mut nl = [0.0f64; N];
    let mut acc_a = [0.0f64; N];
    let mut acc_b = [0.0f64; N];
    for c in 0..k {
        let l: [f64; N] = from_fn(|j| rows[j][c]);
        let r = l.map(|l| total[c] - l);
        nl = from_fn(|j| nl[j] + l[j]);
        if M == M_GINI {
            acc_a = from_fn(|j| acc_a[j] + l[j] * l[j]);
            acc_b = from_fn(|j| acc_b[j] + r[j] * r[j]);
        } else {
            let (fl, fr) = (xlog2x_lanes(l), xlog2x_lanes(r));
            acc_a = from_fn(|j| acc_a[j] + fl[j]);
            acc_b = from_fn(|j| acc_b[j] + fr[j]);
        }
    }
    finish::<M, N>(nl, acc_a, acc_b, consts)
}

/// Scores one candidate row: the tail path of [`score_rows_lanes`] and
/// the scalar reference its lanes are checked against bitwise.
#[inline(always)]
fn score_one_row<const M: u8>(row: &[f64], total: &[f64], consts: &ColumnConsts) -> f64 {
    score_block::<M, 1>([row], total, consts)[0]
}

/// Turns per-row accumulators into scores, gating after the arithmetic:
/// rows with `nl ≤ ε` or `nr ≤ ε` (and, for gain ratio, a non-positive
/// split info) score `+∞`.
#[inline(always)]
fn finish<const M: u8, const N: usize>(
    nl: [f64; N],
    acc_a: [f64; N],
    acc_b: [f64; N],
    consts: &ColumnConsts,
) -> [f64; N] {
    let nr: [f64; N] = from_fn(|j| consts.grand_total - nl[j]);
    // Entropy and Gini have no split-info gate: a positive placeholder.
    let (score, split_info): ([f64; N], [f64; N]) = if M == M_GINI {
        let score = from_fn(|j| 1.0 - (acc_a[j] / nl[j] + acc_b[j] / nr[j]) * consts.inv_t);
        (score, [1.0; N])
    } else {
        let (f_nl, f_nr) = (xlog2x_lanes(nl), xlog2x_lanes(nr));
        let f_nl_nr: [f64; N] = from_fn(|j| f_nl[j] + f_nr[j]);
        let child: [f64; N] = from_fn(|j| ((f_nl_nr[j] - acc_a[j]) - acc_b[j]) * consts.inv_t);
        if M == M_ENTROPY {
            (child, [1.0; N])
        } else {
            let split_info: [f64; N] = from_fn(|j| consts.log2_t - f_nl_nr[j] * consts.inv_t);
            let score = from_fn(|j| -((consts.h_parent - child[j]) / split_info[j]));
            (score, split_info)
        }
    };
    from_fn(|j| {
        let bad = nl[j] <= WEIGHT_EPSILON || nr[j] <= WEIGHT_EPSILON || split_info[j] <= 0.0;
        if bad {
            f64::INFINITY
        } else {
            score[j]
        }
    })
}

/// The batch scorer: blocks of [`LANES`] candidate rows, then the
/// remaining rows one at a time through [`score_one_row`]. Safe code that
/// LLVM vectorises for whichever target it is compiled for;
/// [`score_rows_avx2`] compiles it for AVX2.
#[inline(always)]
fn score_rows_lanes<const M: u8>(
    cum: &[f64],
    k: usize,
    total: &[f64],
    consts: &ColumnConsts,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let mut rest = &cum[rows.start * k..rows.end * k];
    let mut blocks = out.chunks_exact_mut(LANES);
    for out_block in &mut blocks {
        let (block, tail) = rest.split_at(LANES * k);
        rest = tail;
        let rows = from_fn(|j| &block[j * k..(j + 1) * k]);
        out_block.copy_from_slice(&score_block::<M, LANES>(rows, total, consts));
    }
    for slot in blocks.into_remainder() {
        let (row, tail) = rest.split_at(k);
        rest = tail;
        *slot = score_one_row::<M>(row, total, consts);
    }
}

/// [`score_rows_lanes`] compiled for AVX2 (never FMA: contracting a lane
/// product would break bit-identity with the baseline build).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn score_rows_avx2<const M: u8>(
    cum: &[f64],
    k: usize,
    total: &[f64],
    consts: &ColumnConsts,
    rows: Range<usize>,
    out: &mut [f64],
) {
    score_rows_lanes::<M>(cum, k, total, consts, rows, out);
}

// --- dispatch --------------------------------------------------------

fn run<const M: u8>(
    backend: SimdBackend,
    cum: &[f64],
    k: usize,
    total: &[f64],
    consts: &ColumnConsts,
    rows: Range<usize>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), rows.len(), "output slot per candidate row");
    assert_eq!(total.len(), k, "one total per class");
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "the AVX2 backend needs an AVX2 host"
            );
            // SAFETY: the host supports AVX2 (asserted above), the only
            // feature `score_rows_avx2` enables.
            unsafe { score_rows_avx2::<M>(cum, k, total, consts, rows, out) }
        }
        _ => score_rows_lanes::<M>(cum, k, total, consts, rows, out),
    }
}

/// Scores candidate rows `rows` of a row-major cumulative matrix into
/// `out` on an explicit backend. On non-x86 targets [`SimdBackend::Avx2`]
/// runs the (bit-identical) baseline build.
///
/// `total` is the total row (length `n_classes`) and `grand_total` its
/// f64 class-order sum, both provided by the caller so they are hoisted
/// across calls.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_range_with_backend(
    backend: SimdBackend,
    measure: Measure,
    cum: &[f64],
    n_classes: usize,
    total: &[f64],
    grand_total: f64,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let consts = column_consts(measure, total, grand_total);
    let k = n_classes;
    match measure {
        Measure::Entropy => run::<M_ENTROPY>(backend, cum, k, total, &consts, rows, out),
        Measure::Gini => run::<M_GINI>(backend, cum, k, total, &consts, rows, out),
        Measure::GainRatio => run::<M_GAIN_RATIO>(backend, cum, k, total, &consts, rows, out),
    }
}

/// Scores candidate rows on the fastest backend this host supports.
pub(crate) fn score_range_into(
    measure: Measure,
    cum: &[f64],
    n_classes: usize,
    total: &[f64],
    grand_total: f64,
    rows: Range<usize>,
    out: &mut [f64],
) {
    score_range_with_backend(
        super::detected_backend(),
        measure,
        cum,
        n_classes,
        total,
        grand_total,
        rows,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::detected_backend;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const ALL_MEASURES: [Measure; 3] = [Measure::Entropy, Measure::Gini, Measure::GainRatio];

    /// Class counts the bitwise and tolerance tests cover: every `k` up
    /// to PenDigits' 10 and beyond, plus a wide 26-class column.
    const CLASS_COUNTS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 26];

    fn backends_to_test() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(SimdBackend::Avx2);
        }
        v
    }

    /// A random row-monotone cumulative matrix with `n` positions and `k`
    /// classes, plus its total row and grand total.
    struct Case {
        k: usize,
        n: usize,
        cum: Vec<f64>,
        total: Vec<f64>,
        grand_total: f64,
    }

    impl Case {
        /// Some cells stay zero, and with `tiny_class` one class only
        /// ever gains sub-`MIN_POSITIVE` weight, so its cells (and their
        /// right-hand residues) are zero or denormal.
        fn random(rng: &mut ChaCha8Rng, n: usize, k: usize, tiny_class: Option<usize>) -> Case {
            let mut cum = vec![0.0f64; n * k];
            let mut running = vec![0.0f64; k];
            for i in 0..n {
                // A few zero-increment rows exercise repeated counts.
                let events = rng.gen_range(0..4usize);
                for _ in 0..events {
                    let c = rng.gen_range(0..k);
                    running[c] += if Some(c) == tiny_class {
                        f64::MIN_POSITIVE * rng.gen_range(0.01..0.1f64)
                    } else {
                        rng.gen_range(0.01..2.0f64)
                    };
                }
                cum[i * k..(i + 1) * k].copy_from_slice(&running);
            }
            let total: Vec<f64> = cum[(n - 1) * k..].to_vec();
            let grand_total: f64 = total.iter().sum();
            Case {
                k,
                n,
                cum,
                total,
                grand_total,
            }
        }

        fn row(&self, i: usize) -> &[f64] {
            &self.cum[i * self.k..(i + 1) * self.k]
        }

        /// Scores `rows` on `backend`.
        fn scores(&self, backend: SimdBackend, measure: Measure, rows: Range<usize>) -> Vec<f64> {
            let mut out = vec![f64::NAN; rows.len()];
            score_range_with_backend(
                backend,
                measure,
                &self.cum,
                self.k,
                &self.total,
                self.grand_total,
                rows,
                &mut out,
            );
            out
        }
    }

    /// Random cases over every class count of [`CLASS_COUNTS`].
    fn cases(rng: &mut ChaCha8Rng, per_k: usize) -> Vec<Case> {
        let mut out = Vec::new();
        for k in CLASS_COUNTS {
            for _ in 0..per_k {
                let n = rng.gen_range(2..40usize);
                let tiny_class = rng.gen_bool(0.5).then(|| rng.gen_range(0..k));
                out.push(Case::random(rng, n, k, tiny_class));
            }
        }
        out
    }

    #[test]
    fn plog2_matches_libm_to_couple_ulp() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0);
        for _ in 0..20_000 {
            let exp = rng.gen_range(-60.0..60.0f64);
            let x = rng.gen_range(1.0..2.0f64) * exp.exp2();
            let got = plog2(x);
            let want = x.log2();
            assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1.0),
                "plog2({x}) = {got}, libm {want}"
            );
        }
        // Exact powers of two are exact in the polynomial too.
        for e in -40i32..40 {
            let x = (e as f64).exp2();
            assert_eq!(plog2(x), e as f64, "plog2(2^{e})");
        }
    }

    #[test]
    fn pxlog2x_zeroes_tiny_inputs() {
        let tiny = [0.0, -0.0, f64::MIN_POSITIVE / 2.0, f64::from_bits(1)];
        for x in tiny {
            assert_eq!(pxlog2x(x).to_bits(), 0, "pxlog2x({x:e}) is +0");
        }
        for (x, got) in tiny.iter().zip(xlog2x_lanes(tiny)) {
            assert_eq!(got.to_bits(), 0, "lane select of {x:e} is +0");
        }
        assert!(pxlog2x(1.0).abs() < 1e-15);
        assert!((pxlog2x(4.0) - 8.0).abs() < 1e-13);
    }

    /// One row through the tail path, [`score_one_row`].
    fn scalar_reference(
        measure: Measure,
        row: &[f64],
        total: &[f64],
        consts: &ColumnConsts,
    ) -> f64 {
        match measure {
            Measure::Entropy => score_one_row::<M_ENTROPY>(row, total, consts),
            Measure::Gini => score_one_row::<M_GINI>(row, total, consts),
            Measure::GainRatio => score_one_row::<M_GAIN_RATIO>(row, total, consts),
        }
    }

    #[test]
    fn all_backends_are_bitwise_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC1);
        for (i, case) in cases(&mut rng, 4).iter().enumerate() {
            for measure in ALL_MEASURES {
                let consts = column_consts(measure, &case.total, case.grand_total);
                for lo in [0usize, 1, case.n / 2] {
                    let rows = lo..case.n;
                    let want: Vec<f64> = rows
                        .clone()
                        .map(|r| scalar_reference(measure, case.row(r), &case.total, &consts))
                        .collect();
                    for backend in backends_to_test() {
                        let got = case.scores(backend, measure, rows.clone());
                        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "case {i} k={} {measure:?} {rows:?} row {} on {backend:?}: \
                                 {g} vs {w}",
                                case.k,
                                rows.start + slot,
                            );
                        }
                    }
                }
            }
        }
    }

    /// FNV-1a over the bits of every score of a fixed set of cases.
    fn score_bits_digest(backend: SimdBackend) -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC3);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for case in cases(&mut rng, 2) {
            for measure in ALL_MEASURES {
                for s in case.scores(backend, measure, 0..case.n) {
                    digest = (digest ^ s.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        digest
    }

    /// Pins the kernel's arithmetic to the bit. The digest was recorded
    /// from the hand-written AVX2, SSE2 and scalar kernels this one
    /// replaced (all three agreed); any change to the operation sequence
    /// (a reordered sum, an FMA contraction, another `log2`) moves it,
    /// even one shared by every backend.
    #[test]
    fn scores_match_pinned_bits() {
        for backend in backends_to_test() {
            assert_eq!(
                score_bits_digest(backend),
                12_264_607_526_312_070_173,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn batch_scores_match_scalar_measure_within_tolerance() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC2);
        for case in cases(&mut rng, 5) {
            for measure in ALL_MEASURES {
                let got = case.scores(detected_backend(), measure, 0..case.n);
                for (i, got) in got.into_iter().enumerate() {
                    let want = measure.split_score_cum(case.row(i), &case.total);
                    if want.is_finite() {
                        assert!(
                            (got - want).abs() <= 1e-12,
                            "k={} {measure:?} row {i}: batch {got} vs scalar {want}",
                            case.k
                        );
                    } else {
                        assert_eq!(got, want, "k={} {measure:?} row {i}: gates agree", case.k);
                    }
                }
            }
        }
    }

    #[test]
    fn massless_column_scores_infinite() {
        let cum = vec![0.0f64; 8];
        let total = vec![0.0f64; 2];
        for measure in ALL_MEASURES {
            let mut out = vec![0.0f64; 4];
            score_range_into(measure, &cum, 2, &total, 0.0, 0..4, &mut out);
            assert!(
                out.iter().all(|s| *s == f64::INFINITY),
                "{measure:?}: {out:?}"
            );
        }
    }
}
