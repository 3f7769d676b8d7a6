//! The whole reproduction: [`reproduce`] runs every experiment once (one
//! [`efficiency::run`] serves Figs. 6 and 7), and
//! [`Reproduction::claims`] is the one definition of the paper's claims
//! about the rows. The `udt-eval` binary prints the claims and the
//! integration tests assert them.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::experiments::ablation::{self, AblationRow};
use crate::experiments::efficiency::{self, EfficiencyRow};
use crate::experiments::fig4::{self, Fig4Result};
use crate::experiments::settings::Settings;
use crate::experiments::sweeps::{self, SweepRow};
use crate::experiments::table2::{self, Table2Row};
use crate::experiments::table3::{self, Table3Row, Table3Summary};
use crate::report::pct;

/// The data set Fig. 4 runs on, as in the paper.
const FIG4_DATASET: &str = "Segment";

/// The rows of every experiment at one [`Settings`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reproduction {
    /// The settings every experiment ran at.
    pub settings: Settings,
    /// Table 2: the data-set inventory.
    pub table2: Vec<Table2Row>,
    /// Table 3: AVG vs UDT accuracy per (data set, error model, w).
    pub table3: Vec<Table3Row>,
    /// Table 3 per data set: the baseline and the best over the sweep.
    pub table3_summary: Vec<Table3Summary>,
    /// Fig. 4: the controlled-noise grid on Segment, as in the paper.
    pub fig4: Fig4Result,
    /// Figs. 6 and 7: one build per (data set, algorithm).
    pub efficiency: Vec<EfficiencyRow>,
    /// Fig. 8: UDT-ES over [`sweeps::S_VALUES`].
    pub fig8: Vec<SweepRow>,
    /// Fig. 9: UDT-ES over [`sweeps::W_VALUES`].
    pub fig9: Vec<SweepRow>,
    /// §7.4: AVG and UDT-GP under each dispersion measure.
    pub ablation: Vec<AblationRow>,
}

/// Runs every experiment once at `settings`.
pub fn reproduce(settings: &Settings) -> udt_data::Result<Reproduction> {
    let table3 = table3::run(settings)?;
    Ok(Reproduction {
        settings: settings.clone(),
        table2: table2::run(settings)?,
        table3_summary: table3::summarise(&table3),
        table3,
        fig4: fig4::run(settings, FIG4_DATASET)?,
        efficiency: efficiency::run(settings, &[])?,
        fig8: sweeps::sweep_s(settings, &[])?,
        fig9: sweeps::sweep_w(settings, &[])?,
        ablation: ablation::run(settings)?,
    })
}

/// One of the paper's claims, checked against a [`Reproduction`].
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The table or figure the claim is about ("Table 3", "Fig. 7", …).
    pub figure: String,
    /// What is checked.
    pub statement: String,
    /// Whether the claim held on every data set measured (and there was
    /// at least one).
    pub holds: bool,
    /// Per data set: its name, whether the claim held there, and the
    /// numbers the verdict rests on.
    pub evidence: Vec<(String, bool, String)>,
}

fn claim(
    figure: &str,
    statement: &str,
    evidence: impl IntoIterator<Item = (String, bool, String)>,
) -> Claim {
    let evidence: Vec<_> = evidence.into_iter().collect();
    Claim {
        figure: figure.to_string(),
        statement: statement.to_string(),
        holds: !evidence.is_empty() && evidence.iter().all(|e| e.1),
        evidence,
    }
}

/// Checks `check` on each distinct data set of `rows`, in first-seen
/// order.
fn per_dataset<T>(
    rows: &[T],
    dataset: impl Fn(&T) -> &str,
    check: impl Fn(&str) -> (bool, String),
) -> Vec<(String, bool, String)> {
    let mut seen: Vec<&str> = Vec::new();
    for row in rows {
        if !seen.contains(&dataset(row)) {
            seen.push(dataset(row));
        }
    }
    seen.into_iter()
        .map(|d| {
            let (holds, numbers) = check(d);
            (d.to_string(), holds, numbers)
        })
        .collect()
}

impl Reproduction {
    fn build(&self, dataset: &str, algorithm: &str) -> &EfficiencyRow {
        self.efficiency
            .iter()
            .find(|r| r.dataset == dataset && r.algorithm == algorithm)
            .unwrap_or_else(|| panic!("no {algorithm} build on {dataset}"))
    }

    /// Checks each of the paper's claims against the rows.
    pub fn claims(&self) -> Vec<Claim> {
        let built = |check: &dyn Fn(&str) -> (bool, String)| {
            per_dataset(&self.efficiency, |r| &r.dataset, check)
        };
        let chain = ["UDT", "UDT-BP", "UDT-LP", "UDT-GP"];
        vec![
            claim(
                "Table 2",
                "every generated set has at least 2 classes \
                 and no more tuples than the published set",
                self.table2.iter().map(|r| {
                    let (n, published) = (r.generated_tuples, r.published_tuples);
                    let holds = r.classes >= 2 && r.attributes > 0 && (1..=published).contains(&n);
                    let shape = format!("{} classes, {} attributes", r.classes, r.attributes);
                    let numbers = format!("{shape}, {n} of {published} tuples");
                    (r.name.clone(), holds, numbers)
                }),
            ),
            claim(
                "Table 3",
                "at the 10 % Gaussian baseline, UDT accuracy >= AVG accuracy",
                self.table3_summary.iter().map(|s| {
                    let (udt, avg) = (s.udt_accuracy, s.avg_accuracy);
                    let numbers = format!("UDT {} vs AVG {}", pct(udt), pct(avg));
                    (s.dataset.clone(), udt >= avg, numbers)
                }),
            ),
            self.fig4_claim(),
            claim(
                "Figs. 6-7",
                "UDT-BP, UDT-LP, UDT-GP and UDT-ES build UDT's tree (equal tree_crc)",
                built(&|d| {
                    let udt = self.build(d, "UDT").tree_crc;
                    let differ: Vec<&str> = ["UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES"]
                        .into_iter()
                        .filter(|a| self.build(d, a).tree_crc != udt)
                        .collect();
                    let numbers = format!("UDT {udt:#010x}; differing: [{}]", differ.join(", "));
                    (differ.is_empty(), numbers)
                }),
            ),
            claim(
                "Fig. 7",
                "AVG and every pruned algorithm do fewer entropy-like calculations than UDT, \
                 and UDT > UDT-BP > UDT-LP > UDT-GP",
                built(&|d| {
                    let c = |a: &str| self.build(d, a).entropy_like_calculations;
                    let holds = chain.windows(2).all(|p| c(p[0]) > c(p[1]))
                        && c("AVG") < c("UDT")
                        && c("UDT-ES") < c("UDT");
                    let all = chain.iter().chain(&["AVG", "UDT-ES"]);
                    let numbers: Vec<String> = all.map(|a| format!("{a} {}", c(a))).collect();
                    (holds, numbers.join(", "))
                }),
            ),
            claim(
                "Fig. 7",
                "UDT-ES does no more entropy-like calculations than UDT-GP",
                built(&|d| {
                    let c = |a: &str| self.build(d, a).entropy_like_calculations;
                    let (es, gp) = (c("UDT-ES"), c("UDT-GP"));
                    (es <= gp, format!("UDT-ES {es} vs UDT-GP {gp}"))
                }),
            ),
            sweep_claim("Fig. 8", "s", &self.fig8),
            sweep_claim("Fig. 9", "w", &self.fig9),
            claim(
                "§7.4",
                "for each measure, UDT-GP accuracy >= AVG accuracy",
                per_dataset(
                    &self.ablation,
                    |r| &r.dataset,
                    |d| {
                        let rows = self.ablation.iter().filter(|r| r.dataset == d);
                        let avg = rows.clone().filter(|r| r.algorithm == "AVG");
                        let pairs: Vec<_> =
                            avg.zip(rows.filter(|r| r.algorithm == "UDT-GP")).collect();
                        let holds = pairs
                            .iter()
                            .all(|(a, g)| a.measure == g.measure && g.accuracy >= a.accuracy);
                        let numbers: Vec<String> = pairs
                            .iter()
                            .map(|(a, g)| {
                                format!("{} {} vs {}", g.measure, pct(g.accuracy), pct(a.accuracy))
                            })
                            .collect();
                        (holds, numbers.join(", "))
                    },
                ),
            ),
        ]
    }

    /// Fig. 4: under the heaviest noise, modelling the uncertainty
    /// (some `w > 0`) keeps up with AVG (`w = 0`) to within 2 points.
    fn fig4_claim(&self) -> Claim {
        let u = fig4::U_VALUES[fig4::U_VALUES.len() - 1];
        let at_u = || self.fig4.points.iter().filter(|p| p.u == u);
        let avg = at_u().find(|p| p.w == 0.0);
        let best = at_u()
            .filter(|p| p.w > 0.0)
            .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy));
        let evidence = avg.zip(best).map(|(avg, best)| {
            let numbers = format!(
                "best w > 0: {} at w = {:.0}% vs AVG {}",
                pct(best.accuracy),
                best.w * 100.0,
                pct(avg.accuracy)
            );
            let holds = best.accuracy + 0.02 >= avg.accuracy;
            (self.fig4.dataset.clone(), holds, numbers)
        });
        let statement = format!(
            "at u = {:.0}%, the best accuracy with w > 0 is at least AVG's minus 0.02",
            u * 100.0
        );
        claim("Fig. 4", &statement, evidence)
    }

    /// Renders every table and figure, then the claims.
    pub fn render(&self) -> String {
        [
            table2::render(&self.table2),
            table3::render(&self.table3),
            table3::render_summary(&self.table3_summary),
            fig4::render(&self.fig4),
            efficiency::render_time(&self.efficiency),
            efficiency::render_pruning(&self.efficiency),
            sweeps::render("Fig. 8: effect of s on UDT-ES", "s", &self.fig8),
            sweeps::render("Fig. 9: effect of w on UDT-ES", "w", &self.fig9),
            ablation::render(&self.ablation),
            render_claims(&self.claims()),
        ]
        .join("\n")
    }
}

/// Figs. 8 and 9: UDT-ES work does not decrease as `parameter` grows.
fn sweep_claim(figure: &str, parameter: &str, rows: &[SweepRow]) -> Claim {
    let statement = format!("UDT-ES work does not decrease as {parameter} grows");
    let evidence = per_dataset(
        rows,
        |r| &r.dataset,
        |d| {
            let work: Vec<u64> = rows
                .iter()
                .filter(|r| r.dataset == d)
                .map(|r| r.entropy_like_calculations)
                .collect();
            let numbers: Vec<String> = work.iter().map(u64::to_string).collect();
            (work.windows(2).all(|p| p[0] <= p[1]), numbers.join(" -> "))
        },
    );
    claim(figure, &statement, evidence)
}

/// Renders the claims: one verdict line each, then its numbers per
/// data set, marking the data sets it failed on.
fn render_claims(claims: &[Claim]) -> String {
    let mut out = String::from("== Claims ==\n");
    for c in claims {
        let verdict = if c.holds { "holds" } else { "NOT REPRODUCED" };
        let _ = writeln!(out, "[{verdict}] {}: {}", c.figure, c.statement);
        for (dataset, holds, numbers) in &c.evidence {
            let mark = if *holds { "" } else { "  <- fails" };
            let _ = writeln!(out, "    {dataset}: {numbers}{mark}");
        }
    }
    let held = claims.iter().filter(|c| c.holds).count();
    let _ = writeln!(out, "{held} of {} claims hold", claims.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_needs_evidence_and_fails_on_any_data_set() {
        assert!(!claim("Fig. 0", "nothing measured", None).holds);
        let rows = ["A", "B", "A"];
        let evidence = per_dataset(&rows, |r| r, |d| (d == "A", d.to_lowercase()));
        assert_eq!(evidence.len(), 2);
        let mixed = claim("Fig. 0", "mixed", evidence);
        assert!(!mixed.holds);
        let text = render_claims(&[mixed]);
        assert!(text.contains("[NOT REPRODUCED] Fig. 0: mixed"));
        assert!(text.contains("    A: a\n"));
        assert!(text.contains("    B: b  <- fails"));
        assert!(text.contains("0 of 1 claims hold"));
    }
}
