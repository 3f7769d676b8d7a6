//! The score-kernel layer: how candidate splits are *numerically* scored.
//!
//! The split-search strategies of [`crate::split`] are written against
//! [`crate::events::AttributeEvents`], which scores candidates one at a
//! time ([`crate::events::AttributeEvents::score_at`]) or in batches
//! ([`crate::events::AttributeEvents::score_range_into`] for contiguous
//! runs, [`crate::events::AttributeEvents::score_indices_into`] for
//! scattered end points). Which arithmetic runs is decided by batch
//! length alone:
//!
//! * a batch of at least eight candidates goes to the **batch kernel**,
//!   which scores whole runs of contiguous candidate rows per call, four
//!   rows in lockstep. Its arithmetic is one safe lane definition with
//!   no intrinsics, compiled twice: with AVX2 enabled (used when the CPU
//!   reports AVX2 at runtime) and for the baseline target (SSE2 on
//!   x86_64, and every other architecture). It hoists the per-column
//!   invariants — the total row and the total mass — out of the
//!   per-candidate loop and evaluates `x·log2(x)` with a polynomial in
//!   a fixed operation order, so both builds produce **bit-identical**
//!   scores;
//! * shorter batches, single candidates and interval lower bounds take
//!   the exact formula of [`crate::Measure::split_score_cum`] and
//!   [`crate::Measure::interval_lower_bound_cum`]: on the tiny runs that
//!   pruned searches leave behind, the kernel's per-call setup costs more
//!   than it saves.
//!
//! Cumulative counts are stored and accumulated in `f64`.
//!
//! # Parity contract
//!
//! * Batch scores are within 1e-12 of the exact formula (≈1e-14 in
//!   practice). The jitter is absorbed by the deterministic 1e-12
//!   tie-break band of [`crate::split::SplitChoice::is_improved_by`],
//!   and interval lower bounds carry a 1e-12 safety margin so pruning
//!   stays safe against it.
//! * Arenas do not move: the `kernel_parity` integration suite pins the
//!   arena fingerprints of every algorithm × measure on seeded cases,
//!   recorded from builds that scored every candidate with the exact
//!   formula, and the golden suites pin the rest.

pub(crate) mod simd;

/// The score kernel: always the batch kernel, over batches of at least
/// eight candidates.
///
/// A single-variant residue of the retired per-candidate batch dispatch.
/// It survives only as the type of [`crate::UdtConfig::kernel`], because
/// perfbench's stamp line still reports that field; a later change to the
/// benchmark can drop both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The batch kernel: one lane definition, compiled for AVX2 and for
    /// the baseline target.
    #[default]
    Simd,
}

/// How the cumulative per-class count matrix is stored: always as `f64`.
///
/// A single-variant residue of the retired `f32` count store. It survives
/// only as the type of [`crate::UdtConfig::counts`], because perfbench's
/// stamp line still reports that field; a later change to the benchmark
/// can drop both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CountsRepr {
    /// Full-precision `f64` counts.
    #[default]
    F64,
}

/// The target the batch kernel's one lane definition runs compiled for
/// on this host, resolved once per process. Both compile the same safe
/// code in the same operation order, so they produce bit-identical
/// scores; the choice is purely about speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// The lanes compiled with AVX2 enabled (x86_64, runtime-detected).
    Avx2,
    /// The lanes compiled for the baseline target (SSE2 on x86_64).
    Portable,
}

/// The backend the batch kernel uses on this host (cached after the first
/// call).
pub fn detected_backend() -> SimdBackend {
    static BACKEND: std::sync::OnceLock<SimdBackend> = std::sync::OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
        SimdBackend::Portable
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_label_and_default() {
        // perfbench stamps the configured kernel through `{:?}`.
        assert_eq!(format!("{:?}", KernelKind::default()), "Simd");
        assert_eq!(
            crate::UdtConfig::new(crate::Algorithm::Udt).kernel,
            KernelKind::Simd
        );
    }

    #[test]
    fn backend_detection_is_stable_and_named() {
        let b = detected_backend();
        assert_eq!(b, detected_backend());
        // perfbench stamps the detected backend through `{:?}`.
        assert!(["Avx2", "Portable"].contains(&format!("{b:?}").as_str()));
        // A host with AVX2 must get the AVX2 build, never a silent
        // fall-back to the baseline one.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(b, SimdBackend::Avx2);
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(b, SimdBackend::Portable);
    }
}
