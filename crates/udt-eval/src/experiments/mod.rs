//! Experiment definitions, one module per paper table/figure.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table2`] | Table 2 — data-set inventory |
//! | [`table3`] | Table 3 — accuracy of AVG vs the distribution-based tree |
//! | [`fig4`] | Fig. 4 — controlled-noise / error-model experiment |
//! | [`efficiency`] | Fig. 6 (execution time) and Fig. 7 (pruning effectiveness) |
//! | [`sweeps`] | Fig. 8 (effect of `s`) and Fig. 9 (effect of `w`) on UDT-ES |
//! | [`ablation`] | §7.4 — dispersion-measure ablation (entropy / Gini / gain ratio) |
//! | [`reproduction`] | all of the above, run once, with the paper's claims checked |
//!
//! Every experiment takes a [`settings::Settings`] value, so one code
//! path serves [`Settings::smoke`](settings::Settings::smoke), which the
//! integration tests run, and [`Settings::laptop`](settings::Settings::laptop),
//! which the `udt-eval` binary runs. To reproduce at another scale, call
//! [`reproduce`] with your own `Settings`.

pub mod ablation;
pub mod efficiency;
pub mod fig4;
pub mod reproduction;
pub mod settings;
pub mod sweeps;
pub mod table2;
pub mod table3;

pub use reproduction::{reproduce, Claim, Reproduction};
