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
//!   which scores whole runs of contiguous candidate rows per call with
//!   `core::arch` x86_64 AVX2/SSE2 intrinsics (runtime-detected; a
//!   portable unrolled path keeps non-x86 builds working and serves the
//!   batch tails). It hoists the per-column invariants — the total row
//!   and the total mass — out of the per-candidate loop and evaluates
//!   `x·log2(x)` with a lane-exact polynomial, so every backend (AVX2 /
//!   SSE2 / portable) produces **bit-identical** lanes;
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

use serde::{Deserialize, Serialize};

pub(crate) mod simd;

/// The score kernel: always the batch kernel, over batches of at least
/// eight candidates.
///
/// A single-variant residue of the retired per-candidate batch dispatch.
/// It survives only as the type of [`crate::UdtConfig::kernel`], because
/// perfbench's stamp line still reports that field; a later change to the
/// benchmark can drop both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// The vectorized batch kernel (AVX2/SSE2 on x86_64, portable
    /// otherwise).
    #[default]
    Simd,
}

/// How the cumulative per-class count matrix is stored: always as `f64`.
///
/// A single-variant residue of the retired `f32` count store. It survives
/// only as the type of [`crate::UdtConfig::counts`], because perfbench's
/// stamp line still reports that field; a later change to the benchmark
/// can drop both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CountsRepr {
    /// Full-precision `f64` counts.
    #[default]
    F64,
}

/// The SIMD instruction set the batch kernel dispatches to on this host,
/// resolved once per process. Every backend computes bit-identical
/// scores; the choice is purely about speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// 4-lane `f64` AVX2 path (x86_64, runtime-detected).
    Avx2,
    /// 2-lane `f64` SSE2 path (x86_64 baseline).
    Sse2,
    /// Unrolled scalar path with the same lane-exact arithmetic (non-x86
    /// targets, and the tail lanes of every batch).
    Portable,
}

impl SimdBackend {
    /// Lower-case name for reports and the bench host header.
    pub fn name(&self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Portable => "portable",
        }
    }
}

/// The backend the batch kernel uses on this host (cached after the first
/// call).
pub fn detected_backend() -> SimdBackend {
    static BACKEND: std::sync::OnceLock<SimdBackend> = std::sync::OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdBackend::Avx2
            } else {
                SimdBackend::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdBackend::Portable
        }
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
        assert!(["avx2", "sse2", "portable"].contains(&b.name()));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(b, SimdBackend::Portable);
    }
}
