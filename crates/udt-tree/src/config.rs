//! Tree-construction configuration.
//!
//! [`UdtConfig`] bundles the algorithm choice (§4–5), the dispersion
//! measure (§7.4), pre-pruning thresholds (footnote 3 of §4.1), the C4.5
//! style post-pruning switch, and the Theorem 3 uniform pdf hint for
//! UDT-BP. Settings the paper fixes are constants, not fields: UDT-ES's
//! end-point sampling rate ([`es::DEFAULT_SAMPLE_RATE`]), the builder's
//! minimum gain and the post-pruning confidence
//! ([`crate::postprune::CONFIDENCE_Z`]).

use crate::kernel::{CountsRepr, KernelKind};
use crate::measure::Measure;
use crate::split::{bp, es, exhaustive::ExhaustiveSearch, gp, lp, SplitSearch};

/// The split-search algorithm families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Averaging (§4.1): collapse every pdf to its mean and run the
    /// classical search.
    Avg,
    /// Distribution-based, exhaustive over all sample points (§4.2).
    Udt,
    /// UDT with empty/homogeneous-interval pruning (§5.1).
    UdtBp,
    /// UDT with local lower-bound pruning (§5.2).
    UdtLp,
    /// UDT with global lower-bound pruning (§5.2).
    UdtGp,
    /// UDT with global pruning and end-point sampling (§5.3).
    UdtEs,
}

impl Algorithm {
    /// All algorithms, in the order used by the paper's Figs. 6–7.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::Avg,
            Algorithm::Udt,
            Algorithm::UdtBp,
            Algorithm::UdtLp,
            Algorithm::UdtGp,
            Algorithm::UdtEs,
        ]
    }

    /// The paper's name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Avg => "AVG",
            Algorithm::Udt => "UDT",
            Algorithm::UdtBp => "UDT-BP",
            Algorithm::UdtLp => "UDT-LP",
            Algorithm::UdtGp => "UDT-GP",
            Algorithm::UdtEs => "UDT-ES",
        }
    }

    /// Whether this algorithm works on the full pdfs (true) or on their
    /// means (false).
    pub fn uses_distributions(&self) -> bool {
        !matches!(self, Algorithm::Avg)
    }
}

/// How tree recursion materialises child node state: always as views of
/// the immutable root columns (surviving event ids plus per-tuple scale
/// factors, see [`crate::columns`]).
///
/// A single-variant residue of the retired owned-copy partition engine.
/// It survives only as the type of [`UdtConfig::partition_mode`], because
/// perfbench's stamp line still reports `partition_mode.name()`; a later
/// change to the benchmark can drop both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PartitionMode {
    /// Children borrow the immutable root columns through surviving
    /// event-id lists plus per-tuple scale factors.
    #[default]
    View,
}

impl PartitionMode {
    /// Lower-case name for reports and bench labels.
    pub fn name(&self) -> &'static str {
        "view"
    }
}

/// The build pool's thread budget: total concurrency including the
/// calling thread. [`ThreadCount::AUTO`] (the default) resolves to the
/// machine's available parallelism at use time; a fixed count is capped
/// at [`ThreadCount::MAX`].
///
/// A count of 1 means a fully sequential build — and because every
/// parallel phase is a deterministic index-ordered map over the same
/// work (see [`crate::pool`]), builds are **arena-bit-identical for
/// every thread count**, so the knob is purely about speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadCount {
    /// 0 = auto; otherwise the exact total thread count (`1..=MAX`).
    count: usize,
}

impl ThreadCount {
    /// Resolve to the machine's available parallelism at use time.
    pub const AUTO: ThreadCount = ThreadCount { count: 0 };

    /// Upper cap on an explicit thread count; larger requests are
    /// clamped here rather than rejected (1025 threads and 1024 threads
    /// are the same request for any real machine).
    pub const MAX: usize = 1024;

    /// An explicit thread count, clamped to [`ThreadCount::MAX`].
    /// `fixed(0)` is [`ThreadCount::AUTO`].
    pub fn fixed(count: usize) -> ThreadCount {
        ThreadCount {
            count: count.min(Self::MAX),
        }
    }

    /// Whether this is the auto setting.
    pub fn is_auto(&self) -> bool {
        self.count == 0
    }

    /// The resolved thread count: the explicit value, or the machine's
    /// available parallelism for [`ThreadCount::AUTO`].
    pub fn get(&self) -> usize {
        if self.count == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(Self::MAX)
        } else {
            self.count
        }
    }

    /// The default, overridable through the `UDT_THREADS` environment
    /// variable (`auto` or an integer ≥ 1, parsed by the
    /// [`FromStr`](std::str::FromStr) impl) so CI can run the whole
    /// suite at a pinned thread count. Invalid values fall back to
    /// [`ThreadCount::AUTO`] with a one-time warning on stderr — loud
    /// enough that a typo'd run is visible in its logs, without letting
    /// ambient process state abort library users inside a plain
    /// [`UdtConfig::new`].
    pub fn from_env() -> ThreadCount {
        match std::env::var("UDT_THREADS") {
            Ok(v) => v.parse().unwrap_or_else(|_| {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: UDT_THREADS must be 'auto' or an integer >= 1, \
                         got {v:?}; using the default (auto)"
                    );
                });
                ThreadCount::AUTO
            }),
            Err(_) => ThreadCount::AUTO,
        }
    }
}

impl Default for ThreadCount {
    fn default() -> Self {
        ThreadCount::AUTO
    }
}

impl From<usize> for ThreadCount {
    fn from(count: usize) -> Self {
        ThreadCount::fixed(count)
    }
}

impl std::fmt::Display for ThreadCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.count == 0 {
            write!(f, "auto")
        } else {
            write!(f, "{}", self.count)
        }
    }
}

/// The canonical parser behind [`ThreadCount::from_env`] and every CLI
/// surface that accepts a thread count as text (`udt-serve --threads`,
/// the bench binaries): `auto` (case-insensitive) or an integer ≥ 1;
/// `0`, garbage and empty input are rejected, values above
/// [`ThreadCount::MAX`] are clamped to it.
impl std::str::FromStr for ThreadCount {
    type Err = crate::TreeError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(ThreadCount::AUTO);
        }
        match s.parse::<usize>() {
            Ok(0) | Err(_) => Err(crate::TreeError::InvalidThreadCount { got: s.to_string() }),
            Ok(n) => Ok(ThreadCount::fixed(n)),
        }
    }
}

/// Configuration for [`crate::TreeBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct UdtConfig {
    /// Which split-search algorithm to use.
    pub algorithm: Algorithm,
    /// Which dispersion measure to minimise.
    pub measure: Measure,
    /// Maximum tree depth (a depth of 1 yields a single leaf).
    pub max_depth: usize,
    /// Pre-pruning: do not split nodes whose total (fractional) tuple
    /// weight is below this threshold.
    pub min_node_weight: f64,
    /// Whether to apply C4.5-style pessimistic post-pruning after building.
    pub postprune: bool,
    /// Theorem 3 hint: set when every pdf is known to be uniform, allowing
    /// UDT-BP to consider only interval end points.
    pub uniform_pdf_hint: bool,
    /// Subtrees rooted at this depth or deeper are deferred onto the work
    /// queue (the root has depth 1). Shallower levels are expanded
    /// sequentially to create enough independent jobs. A depth no node
    /// reaches (`usize::MAX`) defers nothing, so the whole tree is built
    /// by one sequential recursion; the arena is bit-identical either way.
    pub parallel_cutoff_depth: usize,
    /// Minimum number of alive tuples for a subtree to be worth deferring;
    /// smaller subtrees are built inline where they are.
    pub parallel_min_fork_tuples: usize,
    /// Build-pool thread budget for every parallel phase (presort,
    /// split search, subtree queue); defaults to the `UDT_THREADS`
    /// environment override, else auto. Builds are bit-identical at any
    /// thread count.
    pub threads: ThreadCount,
    /// How recursion materialises child node state; always
    /// [`PartitionMode::View`].
    pub partition_mode: PartitionMode,
    /// Which kernel scores candidate splits; always
    /// [`KernelKind::Simd`] (see [`crate::kernel`]).
    pub kernel: KernelKind,
    /// How the cumulative count matrices are stored; always
    /// [`CountsRepr::F64`].
    pub counts: CountsRepr,
}

impl UdtConfig {
    /// A configuration with the paper's defaults for the given algorithm:
    /// entropy measure, depth cap 25, minimum node weight 2 and
    /// post-pruning on. The minimum gain (1e-6), the post-pruning
    /// confidence and UDT-ES's 10 % end-point sampling are fixed
    /// constants, not settings.
    pub fn new(algorithm: Algorithm) -> Self {
        UdtConfig {
            algorithm,
            measure: Measure::Entropy,
            max_depth: 25,
            min_node_weight: 2.0,
            postprune: true,
            uniform_pdf_hint: false,
            parallel_cutoff_depth: 4,
            parallel_min_fork_tuples: 8,
            threads: ThreadCount::from_env(),
            partition_mode: PartitionMode::View,
            kernel: KernelKind::Simd,
            counts: CountsRepr::F64,
        }
    }

    /// Returns a copy using a different dispersion measure.
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Returns a copy with post-pruning switched on or off.
    pub fn with_postprune(mut self, postprune: bool) -> Self {
        self.postprune = postprune;
        self
    }

    /// Returns a copy with a different maximum depth.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Returns a copy with a different minimum node weight.
    pub fn with_min_node_weight(mut self, min_node_weight: f64) -> Self {
        self.min_node_weight = min_node_weight;
        self
    }

    /// Returns a copy with the Theorem 3 uniform-pdf hint set.
    pub fn with_uniform_pdf_hint(mut self, hint: bool) -> Self {
        self.uniform_pdf_hint = hint;
        self
    }

    /// Returns a copy with a different subtree fork depth.
    pub fn with_parallel_cutoff_depth(mut self, depth: usize) -> Self {
        self.parallel_cutoff_depth = depth;
        self
    }

    /// Returns a copy with a different minimum subtree size for forking.
    pub fn with_parallel_min_fork_tuples(mut self, tuples: usize) -> Self {
        self.parallel_min_fork_tuples = tuples;
        self
    }

    /// Returns a copy with a different build-pool thread budget
    /// (`usize` values convert; 0 means auto).
    pub fn with_threads(mut self, threads: impl Into<ThreadCount>) -> Self {
        self.threads = threads.into();
        self
    }

    /// Instantiates the split-search strategy this configuration selects.
    pub fn split_search(&self) -> Box<dyn SplitSearch> {
        match self.algorithm {
            Algorithm::Avg | Algorithm::Udt => Box::new(ExhaustiveSearch),
            Algorithm::UdtBp => Box::new(bp::search(self.uniform_pdf_hint)),
            Algorithm::UdtLp => Box::new(lp::search()),
            Algorithm::UdtGp => Box::new(gp::search()),
            Algorithm::UdtEs => Box::new(es::search()),
        }
    }

    /// Validates the configuration, returning the first offending
    /// parameter if any.
    pub fn validate(&self) -> crate::Result<()> {
        if self.max_depth == 0 {
            return Err(crate::TreeError::InvalidConfig {
                name: "max_depth",
                value: 0.0,
            });
        }
        if !(self.min_node_weight >= 0.0) {
            return Err(crate::TreeError::InvalidConfig {
                name: "min_node_weight",
                value: self.min_node_weight,
            });
        }
        Ok(())
    }
}

impl Default for UdtConfig {
    fn default() -> Self {
        UdtConfig::new(Algorithm::UdtEs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_match_the_paper() {
        let names: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["AVG", "UDT", "UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES"]
        );
        assert!(!Algorithm::Avg.uses_distributions());
        assert!(Algorithm::UdtEs.uses_distributions());
    }

    #[test]
    fn split_search_dispatch() {
        assert_eq!(UdtConfig::new(Algorithm::Udt).split_search().name(), "UDT");
        assert_eq!(UdtConfig::new(Algorithm::Avg).split_search().name(), "UDT");
        assert_eq!(
            UdtConfig::new(Algorithm::UdtBp).split_search().name(),
            "UDT-BP"
        );
        assert_eq!(
            UdtConfig::new(Algorithm::UdtLp).split_search().name(),
            "UDT-LP"
        );
        assert_eq!(
            UdtConfig::new(Algorithm::UdtGp).split_search().name(),
            "UDT-GP"
        );
        assert_eq!(
            UdtConfig::new(Algorithm::UdtEs).split_search().name(),
            "UDT-ES"
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(UdtConfig::default().validate().is_ok());
        assert!(UdtConfig::new(Algorithm::Udt)
            .with_max_depth(0)
            .validate()
            .is_err());
        let c = UdtConfig {
            min_node_weight: f64::NAN,
            ..UdtConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_style_setters() {
        let c = UdtConfig::new(Algorithm::UdtBp)
            .with_measure(Measure::Gini)
            .with_postprune(false)
            .with_max_depth(5)
            .with_min_node_weight(4.0)
            .with_uniform_pdf_hint(true)
            .with_parallel_cutoff_depth(6)
            .with_parallel_min_fork_tuples(32)
            .with_threads(2);
        assert_eq!(c.measure, Measure::Gini);
        assert!(!c.postprune);
        assert_eq!(c.max_depth, 5);
        assert_eq!(c.min_node_weight, 4.0);
        assert!(c.uniform_pdf_hint);
        assert_eq!(c.parallel_cutoff_depth, 6);
        assert_eq!(c.parallel_min_fork_tuples, 32);
        assert_eq!(c.threads, ThreadCount::fixed(2));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn thread_count_parses_accepts_and_resolves() {
        assert_eq!("auto".parse::<ThreadCount>(), Ok(ThreadCount::AUTO));
        assert_eq!("AUTO".parse::<ThreadCount>(), Ok(ThreadCount::AUTO));
        assert_eq!("1".parse::<ThreadCount>(), Ok(ThreadCount::fixed(1)));
        assert_eq!("8".parse::<ThreadCount>(), Ok(ThreadCount::fixed(8)));
        assert_eq!(ThreadCount::fixed(4).get(), 4);
        assert!(ThreadCount::AUTO.get() >= 1);
        assert!(ThreadCount::AUTO.is_auto());
        assert_eq!(ThreadCount::default(), ThreadCount::AUTO);
        assert_eq!(ThreadCount::from(3), ThreadCount::fixed(3));
        assert_eq!(ThreadCount::from(0), ThreadCount::AUTO);
        assert_eq!(ThreadCount::fixed(2).to_string(), "2");
        assert_eq!(ThreadCount::AUTO.to_string(), "auto");
    }

    #[test]
    fn thread_count_rejects_zero_and_garbage_and_clamps_huge() {
        // The canonical reject cases: 0, garbage, empty, negatives.
        for bad in ["0", "many", "", "-2", "1.5", "4 threads"] {
            let err = bad.parse::<ThreadCount>().unwrap_err();
            assert!(err.to_string().contains("thread count"), "{bad:?} → {err}");
            assert!(err.to_string().contains(bad), "names the input: {err}");
        }
        // Values above the cap clamp instead of erroring: 1025 threads
        // and 1024 threads are the same request on any real machine.
        assert_eq!(
            "4096".parse::<ThreadCount>(),
            Ok(ThreadCount::fixed(ThreadCount::MAX))
        );
        assert_eq!(ThreadCount::fixed(usize::MAX).get(), ThreadCount::MAX);
    }

    #[test]
    fn kernel_knobs_default() {
        assert_eq!(UdtConfig::new(Algorithm::Udt).kernel, KernelKind::Simd);
        assert_eq!(UdtConfig::default().counts, CountsRepr::F64);
    }

    #[test]
    fn partition_mode_names_and_default() {
        assert_eq!(PartitionMode::View.name(), "view");
        assert_eq!(PartitionMode::default(), PartitionMode::View);
        assert_eq!(UdtConfig::default().partition_mode, PartitionMode::View);
        assert_eq!(UdtConfig::default().counts, CountsRepr::F64);
    }
}
