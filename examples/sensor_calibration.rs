//! Sensor calibration scenario (§1.1 of the paper): measurement error.
//!
//! A fleet of thermometers reports body temperatures with a known
//! calibration error (the paper's ±0.2 °C ear-thermometer example). The
//! readings are point values, but the error is well modelled by a Gaussian
//! whose width we control. This example shows the paper's central claim on
//! such data: modelling the measurement error as a pdf (the
//! Distribution-based approach) yields a more accurate classifier than
//! using the raw point readings (Averaging), and the gap grows with the
//! measurement noise.
//!
//! Run with: `cargo run --release -p udt-eval --example sensor_calibration`

use udt_data::noise::perturb;
use udt_data::synthetic::SyntheticSpec;
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};
use udt_eval::crossval::cross_validate;
use udt_prob::ErrorModel;
use udt_tree::{Algorithm, UdtConfig};

fn main() {
    // A synthetic "patient triage" task: three numeric vitals, three
    // classes (healthy / feverish / severe), 400 patients.
    let spec = SyntheticSpec {
        name: "triage".to_string(),
        tuples: 400,
        attributes: 3,
        classes: 3,
        clusters_per_class: 2,
        cluster_spread: 0.06,
        integer_domain: false,
        range_width: 40.0, // e.g. temperatures 34–40 °C scaled
        seed: 7,
    };
    let clean = spec.generate().expect("generation succeeds");

    println!("measurement-noise sweep (5-fold cross validation):\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "noise u", "AVG", "UDT (w=u)", "gain"
    );
    for &u in &[0.05, 0.10, 0.20] {
        // The sensors add Gaussian noise of relative magnitude u.
        let noisy = perturb(&clean, u, 99).expect("perturbation succeeds");

        // Averaging: train directly on the noisy point readings.
        let avg = cross_validate(&noisy, &UdtConfig::new(Algorithm::Avg), 5, 1)
            .expect("cross validation succeeds");

        // Distribution-based: model the known calibration error as a
        // Gaussian pdf of width w = u around every reading (equation (2)
        // with no latent error), then train UDT-ES on the pdfs.
        let uncertain = inject_uncertainty(
            &noisy,
            &UncertaintySpec {
                w: u,
                s: 60,
                model: ErrorModel::Gaussian,
            },
        )
        .expect("uncertainty injection succeeds");
        let udt = cross_validate(&uncertain, &UdtConfig::new(Algorithm::UdtEs), 5, 1)
            .expect("cross validation succeeds");

        let a = avg.pooled.accuracy();
        let d = udt.pooled.accuracy();
        println!(
            "{:>9.0}% {:>11.2}% {:>11.2}% {:>+11.2}%",
            u * 100.0,
            a * 100.0,
            d * 100.0,
            (d - a) * 100.0
        );
    }
    println!("\n(the Distribution-based column models the sensor error explicitly;");
    println!(" the paper's §4.4 hypothesis predicts it matches or beats Averaging,");
    println!(" with the largest gains at higher noise levels)");
}
