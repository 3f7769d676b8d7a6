//! The paper's claims, checked on one smoke-scale reproduction.
//!
//! `reproduce(&Settings::smoke())` runs every table and figure once; each
//! test below asserts one claim of [`Reproduction::claims`] by its figure,
//! so the claim's definition lives in one place and the `udt-eval` binary
//! prints the same verdict. A claim the synthetic stand-ins do not
//! reproduce is asserted as not reproduced, with its numbers in the
//! failure message; nothing is tuned until it passes.

use std::sync::OnceLock;

use udt_eval::experiments::settings::Settings;
use udt_eval::experiments::{reproduce, Claim, Reproduction};

/// The one smoke-scale reproduction every test reads.
fn reproduction() -> &'static Reproduction {
    static REPRODUCTION: OnceLock<Reproduction> = OnceLock::new();
    REPRODUCTION.get_or_init(|| reproduce(&Settings::smoke()).expect("every experiment runs"))
}

/// The one claim about `figure` whose statement mentions `about`.
fn claim(figure: &str, about: &str) -> Claim {
    let mut found: Vec<Claim> = reproduction()
        .claims()
        .into_iter()
        .filter(|c| c.figure == figure && c.statement.contains(about))
        .collect();
    assert_eq!(found.len(), 1, "claims about {figure} mentioning {about:?}");
    found.remove(0)
}

fn assert_holds(c: &Claim) {
    assert!(
        c.holds,
        "{}: {} does not hold: {:?}",
        c.figure, c.statement, c.evidence
    );
}

fn assert_not_reproduced(c: &Claim) {
    assert!(
        !c.holds,
        "{}: {} now holds: {:?}",
        c.figure, c.statement, c.evidence
    );
}

#[test]
fn every_experiment_runs_once_on_the_smoke_sets() {
    let r = reproduction();
    let sets = ["Iris", "Glass"];
    assert_eq!(r.table2.len(), sets.len());
    assert!(r.table3_summary.iter().all(|s| sets.contains(&&*s.dataset)));
    assert_eq!(r.fig4.dataset, "Segment");
    // One build per (data set, algorithm), each a usable tree.
    assert_eq!(r.efficiency.len(), sets.len() * 6);
    assert!(r.efficiency.iter().all(|row| row.tree_size >= 1));
    assert_eq!(r.fig8.len(), sets.len() * 4);
    assert_eq!(r.fig9.len(), sets.len() * 5);
    assert!(r.fig9.iter().all(|row| row.entropy_like_calculations > 0));
    assert_eq!(r.ablation.len(), sets.len() * 3 * 2);
    // Every measure gives a working classifier, well above chance.
    assert!(r
        .ablation
        .iter()
        .all(|row| row.accuracy > 0.4 && row.accuracy <= 1.0));
    // The printout carries every section, and the rows survive JSON.
    let text = r.render();
    for heading in [
        "== Table 2",
        "== Table 3",
        "== Fig. 4",
        "== Fig. 6",
        "== Fig. 7",
        "== Fig. 8",
        "== Fig. 9",
        "== §7.4",
        "== Claims",
    ] {
        assert!(text.contains(heading), "{heading} missing");
    }
    let json = serde_json::to_string(r).expect("serialises");
    let back: Reproduction = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.claims(), r.claims());
}

#[test]
fn table2_generated_sets_fit_the_published_shapes() {
    assert_holds(&claim("Table 2", "2 classes"));
}

#[test]
fn table3_udt_is_at_least_as_accurate_as_avg_at_the_baseline() {
    assert_holds(&claim("Table 3", "UDT accuracy >= AVG"));
}

#[test]
fn fig4_modelled_uncertainty_keeps_up_with_avg_under_noise() {
    assert_holds(&claim("Fig. 4", "w > 0"));
}

#[test]
fn figs6_7_pruned_algorithms_build_udts_tree() {
    assert_holds(&claim("Figs. 6-7", "tree_crc"));
}

#[test]
fn fig7_pruning_orders_the_entropy_calculations() {
    assert_holds(&claim("Fig. 7", "UDT > UDT-BP > UDT-LP > UDT-GP"));
}

#[test]
fn fig7_es_doing_no_more_work_than_gp_is_not_reproduced() {
    assert_not_reproduced(&claim("Fig. 7", "than UDT-GP"));
}

#[test]
fn fig8_es_work_does_not_decrease_with_s() {
    assert_holds(&claim("Fig. 8", "as s grows"));
}

#[test]
fn fig9_es_work_does_not_decrease_with_w() {
    assert_holds(&claim("Fig. 9", "as w grows"));
}

#[test]
fn ablation_udt_gp_is_at_least_as_accurate_as_avg_for_each_measure() {
    assert_holds(&claim("§7.4", "each measure"));
}
