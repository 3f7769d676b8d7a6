//! Batch split-score arithmetic: the batch kernel.
//!
//! Scores whole ranges of contiguous candidate rows per call. Three
//! backends share one arithmetic definition: a 4-lane AVX2 path, a
//! 2-lane SSE2 path, and a portable scalar path (`score_rows_portable`)
//! that also serves the vector tails and every non-x86 target. The
//! portable path replays the vector lanes' exact operation sequence —
//! including the polynomial `log2` below — so all three produce
//! **bit-identical** scores; which backend runs is purely a speed
//! choice, never a results choice.
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
//! [`ColumnConsts`], computed once per call with the same portable
//! polynomial.
//!
//! # `log2` polynomial
//!
//! `plog2` decomposes a normal positive double into exponent and
//! mantissa `m ∈ [√2/2, √2)`, then evaluates the atanh series
//! `log2(m) = (2/ln2)·(t + t³/3 + … + t¹⁹/19)` with `t = (m−1)/(m+1)`
//! (|t| ≤ 0.172, truncation ≈ 1e-17) as a degree-9 Horner form in
//! `t²` — no FMA anywhere, so every backend rounds identically. Accuracy
//! is 1–2 ulp against libm, which keeps batch scores within ~1e-13 of
//! the exact formula — inside the 1e-12 deterministic tie-break band of
//! [`crate::split::SplitChoice::is_improved_by`].

use core::ops::Range;

use crate::counts::WEIGHT_EPSILON;
use crate::measure::Measure;

use super::SimdBackend;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

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

/// Polynomial `log2` for a **normal positive** double; the scalar mirror
/// of the vector lanes (identical operation sequence → identical bits).
#[inline]
pub(crate) fn plog2(x: f64) -> f64 {
    let bits = x.to_bits();
    let e_bits = (bits >> 52) & 0x7ff;
    let mut m = f64::from_bits((bits & MANT_MASK) | ONE_BITS);
    let ge = m >= SQRT2;
    m *= if ge { 0.5 } else { 1.0 };
    let conv = f64::from_bits(e_bits | EXP_MAGIC);
    let mut e_f = conv - TWO52;
    e_f -= 1023.0;
    e_f += if ge { 1.0 } else { 0.0 };
    let t = (m - 1.0) / (m + 1.0);
    let u = t * t;
    let mut p = C9;
    p = p * u + C8;
    p = p * u + C7;
    p = p * u + C6;
    p = p * u + C5;
    p = p * u + C4;
    p = p * u + C3;
    p = p * u + C2;
    p = p * u + C1;
    p = p * u + C0;
    e_f + t * p
}

/// Polynomial `x·log2(x)` with `x < MIN_POSITIVE` (zero, denormals)
/// mapping to `0`, exactly like the vector lanes' final blend.
#[inline]
pub(crate) fn pxlog2x(x: f64) -> f64 {
    if x < f64::MIN_POSITIVE {
        0.0
    } else {
        x * plog2(x)
    }
}

// --- per-column constants --------------------------------------------

/// Per-column invariants hoisted out of the candidate loop, computed
/// once per [`score_range_with_backend`] call with the portable
/// polynomial so every backend shares the same values.
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

// --- portable path ---------------------------------------------------

/// Scores one candidate row; the lane-exact scalar reference all vector
/// backends are checked against bitwise.
#[inline(always)]
fn score_one_row<const M: u8>(
    cum: &[f64],
    k: usize,
    base: usize,
    total: &[f64],
    consts: &ColumnConsts,
) -> f64 {
    let mut nl = 0.0f64;
    let mut acc_a = 0.0f64;
    let mut acc_b = 0.0f64;
    for c in 0..k {
        // Safety: the dispatcher asserts rows.end * k <= cum.len() and
        // total.len() == k before any row is scored.
        let l = unsafe { *cum.get_unchecked(base + c) };
        let r = unsafe { *total.get_unchecked(c) } - l;
        nl += l;
        if M == M_GINI {
            acc_a += l * l;
            acc_b += r * r;
        } else {
            acc_a += pxlog2x(l);
            acc_b += pxlog2x(r);
        }
    }
    let nr = consts.grand_total - nl;
    if nl <= WEIGHT_EPSILON || nr <= WEIGHT_EPSILON {
        return f64::INFINITY;
    }
    match M {
        M_ENTROPY => {
            let f_nl_nr = pxlog2x(nl) + pxlog2x(nr);
            ((f_nl_nr - acc_a) - acc_b) * consts.inv_t
        }
        M_GINI => 1.0 - (acc_a / nl + acc_b / nr) * consts.inv_t,
        _ => {
            let f_nl_nr = pxlog2x(nl) + pxlog2x(nr);
            let child = ((f_nl_nr - acc_a) - acc_b) * consts.inv_t;
            let gain = consts.h_parent - child;
            let split_info = consts.log2_t - f_nl_nr * consts.inv_t;
            if split_info <= 0.0 {
                return f64::INFINITY;
            }
            -(gain / split_info)
        }
    }
}

/// Portable batch scorer: the non-x86 backend and the tail path of both
/// vector kernels.
fn score_rows_portable<const M: u8>(
    cum: &[f64],
    k: usize,
    total: &[f64],
    consts: &ColumnConsts,
    rows: Range<usize>,
    out: &mut [f64],
) {
    for (slot, i) in rows.enumerate() {
        out[slot] = score_one_row::<M>(cum, k, i * k, total, consts);
    }
}

// --- AVX2 path -------------------------------------------------------

/// 4-lane `x·log2(x)`; same operation sequence as [`pxlog2x`].
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vxlog2x_avx2(x: __m256d) -> __m256d {
    {
        let bits = _mm256_castpd_si256(x);
        let e_bits = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(0x7ff));
        let m_bits = _mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi64x(MANT_MASK as i64)),
            _mm256_set1_epi64x(ONE_BITS as i64),
        );
        let mut m = _mm256_castsi256_pd(m_bits);
        let one = _mm256_set1_pd(1.0);
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(m, _mm256_set1_pd(SQRT2));
        m = _mm256_mul_pd(m, _mm256_blendv_pd(one, _mm256_set1_pd(0.5), ge));
        let conv = _mm256_castsi256_pd(_mm256_or_si256(
            e_bits,
            _mm256_set1_epi64x(EXP_MAGIC as i64),
        ));
        let mut e_f = _mm256_sub_pd(conv, _mm256_set1_pd(TWO52));
        e_f = _mm256_sub_pd(e_f, _mm256_set1_pd(1023.0));
        e_f = _mm256_add_pd(e_f, _mm256_and_pd(one, ge));
        let t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let u = _mm256_mul_pd(t, t);
        let mut p = _mm256_set1_pd(C9);
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C8));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C7));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C6));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C5));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C4));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C3));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C2));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C1));
        p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(C0));
        let log2 = _mm256_add_pd(e_f, _mm256_mul_pd(t, p));
        let r = _mm256_mul_pd(x, log2);
        let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(f64::MIN_POSITIVE));
        _mm256_andnot_pd(tiny, r)
    }
}

/// AVX2 batch scorer: 4 candidate rows per iteration, portable tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_rows_avx2<const M: u8>(
    cum: &[f64],
    k: usize,
    total: &[f64],
    consts: &ColumnConsts,
    rows: Range<usize>,
    out: &mut [f64],
) {
    unsafe {
        let n = rows.len();
        let chunks = n / 4;
        let eps = _mm256_set1_pd(WEIGHT_EPSILON);
        let inf = _mm256_set1_pd(f64::INFINITY);
        let inv_t = _mm256_set1_pd(consts.inv_t);
        let t_total = _mm256_set1_pd(consts.grand_total);
        for ch in 0..chunks {
            let b0 = (rows.start + ch * 4) * k;
            let b1 = b0 + k;
            let b2 = b1 + k;
            let b3 = b2 + k;
            let mut nl = _mm256_setzero_pd();
            let mut acc_a = _mm256_setzero_pd();
            let mut acc_b = _mm256_setzero_pd();
            for c in 0..k {
                // Strided gather: k is runtime-variable, so four scalar
                // loads beat a hardware gather here.
                let l = _mm256_set_pd(
                    *cum.get_unchecked(b3 + c),
                    *cum.get_unchecked(b2 + c),
                    *cum.get_unchecked(b1 + c),
                    *cum.get_unchecked(b0 + c),
                );
                let tc = _mm256_set1_pd(*total.get_unchecked(c));
                let r = _mm256_sub_pd(tc, l);
                nl = _mm256_add_pd(nl, l);
                if M == M_GINI {
                    acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(l, l));
                    acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(r, r));
                } else {
                    acc_a = _mm256_add_pd(acc_a, vxlog2x_avx2(l));
                    acc_b = _mm256_add_pd(acc_b, vxlog2x_avx2(r));
                }
            }
            let nr = _mm256_sub_pd(t_total, nl);
            let mut bad = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(nl, eps),
                _mm256_cmp_pd::<_CMP_LE_OQ>(nr, eps),
            );
            let score = if M == M_GINI {
                let s = _mm256_add_pd(_mm256_div_pd(acc_a, nl), _mm256_div_pd(acc_b, nr));
                _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(s, inv_t))
            } else {
                let f_nl_nr = _mm256_add_pd(vxlog2x_avx2(nl), vxlog2x_avx2(nr));
                let child =
                    _mm256_mul_pd(_mm256_sub_pd(_mm256_sub_pd(f_nl_nr, acc_a), acc_b), inv_t);
                if M == M_ENTROPY {
                    child
                } else {
                    let gain = _mm256_sub_pd(_mm256_set1_pd(consts.h_parent), child);
                    let split_info =
                        _mm256_sub_pd(_mm256_set1_pd(consts.log2_t), _mm256_mul_pd(f_nl_nr, inv_t));
                    bad = _mm256_or_pd(
                        bad,
                        _mm256_cmp_pd::<_CMP_LE_OQ>(split_info, _mm256_setzero_pd()),
                    );
                    _mm256_xor_pd(_mm256_div_pd(gain, split_info), _mm256_set1_pd(-0.0))
                }
            };
            let score = _mm256_blendv_pd(score, inf, bad);
            _mm256_storeu_pd(out.as_mut_ptr().add(ch * 4), score);
        }
        let done = chunks * 4;
        score_rows_portable::<M>(
            cum,
            k,
            total,
            consts,
            rows.start + done..rows.end,
            &mut out[done..],
        );
    }
}

// --- SSE2 path -------------------------------------------------------

/// `blendv` on plain SSE2 (no SSE4.1): `mask ? b : a`, valid for the
/// all-ones/all-zeros masks produced by `_mm_cmp*_pd`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn blend_sse2(a: __m128d, b: __m128d, mask: __m128d) -> __m128d {
    unsafe { _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a)) }
}

/// 2-lane `x·log2(x)`; same operation sequence as [`pxlog2x`].
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn vxlog2x_sse2(x: __m128d) -> __m128d {
    unsafe {
        let bits = _mm_castpd_si128(x);
        let e_bits = _mm_and_si128(_mm_srli_epi64::<52>(bits), _mm_set1_epi64x(0x7ff));
        let m_bits = _mm_or_si128(
            _mm_and_si128(bits, _mm_set1_epi64x(MANT_MASK as i64)),
            _mm_set1_epi64x(ONE_BITS as i64),
        );
        let mut m = _mm_castsi128_pd(m_bits);
        let one = _mm_set1_pd(1.0);
        let ge = _mm_cmpge_pd(m, _mm_set1_pd(SQRT2));
        m = _mm_mul_pd(m, blend_sse2(one, _mm_set1_pd(0.5), ge));
        let conv = _mm_castsi128_pd(_mm_or_si128(e_bits, _mm_set1_epi64x(EXP_MAGIC as i64)));
        let mut e_f = _mm_sub_pd(conv, _mm_set1_pd(TWO52));
        e_f = _mm_sub_pd(e_f, _mm_set1_pd(1023.0));
        e_f = _mm_add_pd(e_f, _mm_and_pd(one, ge));
        let t = _mm_div_pd(_mm_sub_pd(m, one), _mm_add_pd(m, one));
        let u = _mm_mul_pd(t, t);
        let mut p = _mm_set1_pd(C9);
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C8));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C7));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C6));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C5));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C4));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C3));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C2));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C1));
        p = _mm_add_pd(_mm_mul_pd(p, u), _mm_set1_pd(C0));
        let log2 = _mm_add_pd(e_f, _mm_mul_pd(t, p));
        let r = _mm_mul_pd(x, log2);
        let tiny = _mm_cmplt_pd(x, _mm_set1_pd(f64::MIN_POSITIVE));
        _mm_andnot_pd(tiny, r)
    }
}

/// SSE2 batch scorer: 2 candidate rows per iteration, portable tail.
#[cfg(target_arch = "x86_64")]
unsafe fn score_rows_sse2<const M: u8>(
    cum: &[f64],
    k: usize,
    total: &[f64],
    consts: &ColumnConsts,
    rows: Range<usize>,
    out: &mut [f64],
) {
    unsafe {
        let n = rows.len();
        let chunks = n / 2;
        let eps = _mm_set1_pd(WEIGHT_EPSILON);
        let inf = _mm_set1_pd(f64::INFINITY);
        let inv_t = _mm_set1_pd(consts.inv_t);
        let t_total = _mm_set1_pd(consts.grand_total);
        for ch in 0..chunks {
            let b0 = (rows.start + ch * 2) * k;
            let b1 = b0 + k;
            let mut nl = _mm_setzero_pd();
            let mut acc_a = _mm_setzero_pd();
            let mut acc_b = _mm_setzero_pd();
            for c in 0..k {
                let l = _mm_set_pd(*cum.get_unchecked(b1 + c), *cum.get_unchecked(b0 + c));
                let tc = _mm_set1_pd(*total.get_unchecked(c));
                let r = _mm_sub_pd(tc, l);
                nl = _mm_add_pd(nl, l);
                if M == M_GINI {
                    acc_a = _mm_add_pd(acc_a, _mm_mul_pd(l, l));
                    acc_b = _mm_add_pd(acc_b, _mm_mul_pd(r, r));
                } else {
                    acc_a = _mm_add_pd(acc_a, vxlog2x_sse2(l));
                    acc_b = _mm_add_pd(acc_b, vxlog2x_sse2(r));
                }
            }
            let nr = _mm_sub_pd(t_total, nl);
            let mut bad = _mm_or_pd(_mm_cmple_pd(nl, eps), _mm_cmple_pd(nr, eps));
            let score = if M == M_GINI {
                let s = _mm_add_pd(_mm_div_pd(acc_a, nl), _mm_div_pd(acc_b, nr));
                _mm_sub_pd(_mm_set1_pd(1.0), _mm_mul_pd(s, inv_t))
            } else {
                let f_nl_nr = _mm_add_pd(vxlog2x_sse2(nl), vxlog2x_sse2(nr));
                let child = _mm_mul_pd(_mm_sub_pd(_mm_sub_pd(f_nl_nr, acc_a), acc_b), inv_t);
                if M == M_ENTROPY {
                    child
                } else {
                    let gain = _mm_sub_pd(_mm_set1_pd(consts.h_parent), child);
                    let split_info =
                        _mm_sub_pd(_mm_set1_pd(consts.log2_t), _mm_mul_pd(f_nl_nr, inv_t));
                    bad = _mm_or_pd(bad, _mm_cmple_pd(split_info, _mm_setzero_pd()));
                    _mm_xor_pd(_mm_div_pd(gain, split_info), _mm_set1_pd(-0.0))
                }
            };
            let score = blend_sse2(score, inf, bad);
            _mm_storeu_pd(out.as_mut_ptr().add(ch * 2), score);
        }
        let done = chunks * 2;
        score_rows_portable::<M>(
            cum,
            k,
            total,
            consts,
            rows.start + done..rows.end,
            &mut out[done..],
        );
    }
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
    assert!(rows.end * k <= cum.len(), "rows within the matrix");
    match backend {
        #[cfg(target_arch = "x86_64")]
        // Safety: Avx2 is only returned (or forced in tests) when the
        // host reports the feature; bounds are asserted above.
        SimdBackend::Avx2 => unsafe { score_rows_avx2::<M>(cum, k, total, consts, rows, out) },
        #[cfg(target_arch = "x86_64")]
        // Safety: SSE2 is baseline on x86_64; bounds asserted above.
        SimdBackend::Sse2 => unsafe { score_rows_sse2::<M>(cum, k, total, consts, rows, out) },
        _ => score_rows_portable::<M>(cum, k, total, consts, rows, out),
    }
}

/// Scores candidate rows `rows` of a row-major cumulative matrix into
/// `out` on an explicit backend. On non-x86 targets the vector backends
/// degrade to the (bit-identical) portable path.
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const ALL_MEASURES: [Measure; 3] = [Measure::Entropy, Measure::Gini, Measure::GainRatio];

    fn backends_to_test() -> Vec<SimdBackend> {
        #[cfg(target_arch = "x86_64")]
        {
            let mut v = vec![SimdBackend::Portable, SimdBackend::Sse2];
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(SimdBackend::Avx2);
            }
            v
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            vec![SimdBackend::Portable]
        }
    }

    /// Builds a random row-monotone cumulative matrix with `n` positions
    /// and `k` classes, plus its widened total row and grand total.
    fn random_matrix(rng: &mut ChaCha8Rng, n: usize, k: usize) -> (Vec<f64>, Vec<f64>, f64) {
        let mut cum = vec![0.0f64; n * k];
        let mut running = vec![0.0f64; k];
        for i in 0..n {
            // A few zero-increment rows exercise repeated counts.
            let events = rng.gen_range(0..4usize);
            for _ in 0..events {
                running[rng.gen_range(0..k)] += rng.gen_range(0.01..2.0f64);
            }
            cum[i * k..(i + 1) * k].copy_from_slice(&running);
        }
        let total: Vec<f64> = cum[(n - 1) * k..].to_vec();
        let grand_total: f64 = total.iter().sum();
        (cum, total, grand_total)
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
        assert_eq!(pxlog2x(0.0), 0.0);
        assert_eq!(pxlog2x(f64::MIN_POSITIVE / 2.0), 0.0, "denormal");
        assert!(pxlog2x(1.0).abs() < 1e-15);
        assert!((pxlog2x(4.0) - 8.0).abs() < 1e-13);
    }

    #[test]
    fn all_backends_are_bitwise_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC1);
        for case in 0..40 {
            let k = rng.gen_range(1..7usize);
            let n = rng.gen_range(2..40usize);
            let (cum, total, grand_total) = random_matrix(&mut rng, n, k);
            for measure in ALL_MEASURES {
                for lo in [0usize, 1, n / 2] {
                    let rows = lo..n;
                    let mut want = vec![0.0f64; rows.len()];
                    score_range_with_backend(
                        SimdBackend::Portable,
                        measure,
                        &cum,
                        k,
                        &total,
                        grand_total,
                        rows.clone(),
                        &mut want,
                    );
                    for backend in backends_to_test() {
                        let mut got = vec![f64::NAN; rows.len()];
                        score_range_with_backend(
                            backend,
                            measure,
                            &cum,
                            k,
                            &total,
                            grand_total,
                            rows.clone(),
                            &mut got,
                        );
                        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "case {case} {measure:?} {:?} row {} on {:?}: {g} vs {w}",
                                rows,
                                rows.start + slot,
                                backend,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_scores_match_scalar_measure_within_tolerance() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC2);
        for _ in 0..60 {
            let k = rng.gen_range(1..7usize);
            let n = rng.gen_range(2..40usize);
            let (cum, total, grand_total) = random_matrix(&mut rng, n, k);
            for measure in ALL_MEASURES {
                let mut got = vec![0.0f64; n];
                score_range_into(measure, &cum, k, &total, grand_total, 0..n, &mut got);
                for i in 0..n {
                    let want = measure.split_score_cum(&cum[i * k..(i + 1) * k], &total);
                    if want.is_finite() {
                        assert!(
                            (got[i] - want).abs() <= 1e-12,
                            "{measure:?} row {i}: batch {} vs scalar {want}",
                            got[i]
                        );
                    } else {
                        assert_eq!(got[i], want, "{measure:?} row {i}: gates agree");
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
