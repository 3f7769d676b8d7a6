//! The score-kernel layer: how candidate splits are *numerically* scored.
//!
//! The split-search strategies of [`crate::split`] are written against
//! [`crate::events::AttributeEvents`], which scores candidates either one
//! at a time ([`crate::events::AttributeEvents::score_at`]) or in
//! contiguous batches
//! ([`crate::events::AttributeEvents::score_range_into`]). This module
//! owns the knob that decides what happens underneath, [`KernelKind`]:
//!
//! * the **scalar** kernel reproduces today's
//!   [`crate::Measure::split_score_cum`] arithmetic bit for bit (the
//!   default, and the determinism anchor every baseline regression test
//!   pins);
//! * the **simd** kernel scores whole batches of contiguous candidate
//!   rows per call with `core::arch` x86_64 SSE2/AVX2 intrinsics
//!   (runtime-detected; a portable unrolled fallback keeps non-x86 builds
//!   working and serves the batch tails). It hoists the per-column
//!   invariants — the total row and the total mass — out of the
//!   per-candidate loop and evaluates `x·log2(x)` with a lane-exact
//!   polynomial, so its scores agree with the scalar kernel to ~1e-13
//!   while every backend (AVX2 / SSE2 / portable) produces
//!   **bit-identical** lanes.
//!
//! Cumulative counts are stored and accumulated in `f64` under either
//! kernel. The knob surfaces as [`crate::UdtConfig::kernel`] with a
//! canonical `FromStr` parser and the `UDT_KERNEL` environment override,
//! mirroring [`crate::ThreadCount`].
//!
//! # Parity contract
//!
//! * `scalar` (the default) is the bit-for-bit reference: arenas, scores
//!   and counters are byte-identical to every earlier release.
//! * `simd` must choose the **same split structure** and produce an
//!   **arena equal** to the scalar kernel's: score jitter (~1e-14) is
//!   absorbed by the deterministic 1e-12 tie-break band of
//!   [`crate::split::SplitChoice::is_improved_by`], and interval lower
//!   bounds stay on the exact scalar formula with a 1e-12 safety margin
//!   so pruning remains safe against jittered batch scores.
//!
//! These contracts are enforced by the `kernel_parity` integration suite
//! across all five algorithms × all three measures.

use serde::{Deserialize, Serialize};

pub(crate) mod simd;

/// Which arithmetic kernel scores candidate splits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// The reference kernel: per-candidate scalar arithmetic, bit-for-bit
    /// identical to the historical `split_score_cum` path (the default).
    #[default]
    Scalar,
    /// The batch kernel: vectorized per-class accumulation over
    /// contiguous candidate rows (AVX2/SSE2 on x86_64, portable
    /// otherwise). Same chosen splits, scores within ~1e-13.
    Simd,
}

/// The canonical parser behind [`KernelKind::from_env`] and any
/// configuration surface that accepts the kernel as text:
/// `scalar` / `simd`, case-insensitive.
impl std::str::FromStr for KernelKind {
    type Err = crate::TreeError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("scalar") {
            Ok(KernelKind::Scalar)
        } else if s.eq_ignore_ascii_case("simd") {
            Ok(KernelKind::Simd)
        } else {
            Err(crate::TreeError::InvalidKernelKind { got: s.to_string() })
        }
    }
}

impl KernelKind {
    /// The default kernel, overridable through the `UDT_KERNEL`
    /// environment variable (`scalar` / `simd`, case-insensitive, parsed
    /// by the [`FromStr`](std::str::FromStr) impl) so CI can run the
    /// whole test suite under either kernel. Invalid values fall back to
    /// [`KernelKind::Scalar`] with a one-time warning on stderr — loud
    /// enough that a typo'd run is visible in its logs, without letting
    /// ambient process state abort library users inside a plain
    /// [`crate::UdtConfig::new`].
    pub fn from_env() -> KernelKind {
        match std::env::var("UDT_KERNEL") {
            Ok(v) => v.parse().unwrap_or_else(|_| {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: UDT_KERNEL must be 'scalar' or 'simd', \
                         got {v:?}; using the default (scalar)"
                    );
                });
                KernelKind::Scalar
            }),
            Err(_) => KernelKind::Scalar,
        }
    }

    /// Lower-case name for reports and bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }
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

/// The SIMD instruction set the simd kernel dispatches to on this host,
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

/// The backend the simd kernel uses on this host (cached after the first
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
    fn kernel_kind_parses_from_text() {
        assert_eq!("scalar".parse::<KernelKind>(), Ok(KernelKind::Scalar));
        assert_eq!("SIMD".parse::<KernelKind>(), Ok(KernelKind::Simd));
        let err = "vector".parse::<KernelKind>().unwrap_err();
        assert!(err.to_string().contains("score kernel"), "got: {err}");
        assert!(err.to_string().contains("vector"), "names the input: {err}");
        assert!("".parse::<KernelKind>().is_err());
    }

    #[test]
    fn profile_label_and_env_default() {
        assert_eq!(KernelKind::default(), KernelKind::Scalar);
        assert_eq!(KernelKind::Scalar.name(), "scalar");
        assert_eq!(KernelKind::Simd.name(), "simd");
        // Without the env override the env kernel is the default.
        if std::env::var("UDT_KERNEL").is_err() {
            assert_eq!(KernelKind::from_env(), KernelKind::default());
        }
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
