//! Survey answers given as ranges, plus an uncertain categorical attribute
//! (§1.3 and §7.2 of the paper).
//!
//! Respondents answer "how many hours of TV do you watch per week?" with a
//! range ("6–8 hours") rather than a number, and their favourite content
//! category is known only as a distribution inferred from viewing logs.
//! The task is to predict whether a respondent subscribes to a streaming
//! service. Ranges become uniform pdfs; the categorical attribute is an
//! uncertain discrete distribution — both handled natively by the
//! distribution-based tree.
//!
//! Run with: `cargo run --release -p udt-eval --example survey_ranges`

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use udt_data::{Attribute, Dataset, Schema, Tuple, UncertainValue};
use udt_eval::crossval::cross_validate;
use udt_prob::{DiscreteDist, SampledPdf};
use udt_tree::{Algorithm, UdtConfig};

/// Builds a uniform pdf over `[lo, hi]` with `s` sample points (a range
/// answer such as "6–8 hours").
fn range_answer(lo: f64, hi: f64, s: usize) -> UncertainValue {
    if hi <= lo {
        return UncertainValue::point(lo);
    }
    let points: Vec<f64> = (0..s)
        .map(|i| lo + (hi - lo) * i as f64 / (s - 1) as f64)
        .collect();
    UncertainValue::Numeric(SampledPdf::new(points, vec![1.0; s]).expect("valid pdf"))
}

fn main() {
    const CATEGORIES: usize = 4; // news, sport, drama, documentaries
    let schema = Schema::new(vec![
        Attribute::numerical("tv_hours_per_week"),
        Attribute::numerical("age"),
        Attribute::categorical("favourite_genre", CATEGORIES),
    ]);
    let mut data = Dataset::new(
        schema,
        vec!["no-subscription".to_string(), "subscription".to_string()],
    );

    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for _ in 0..600 {
        // Ground truth: heavy drama/documentary watchers with more viewing
        // hours tend to subscribe.
        let hours: f64 = rng.gen_range(0.0..30.0);
        let age: f64 = rng.gen_range(16.0..80.0);
        let genre_pref = rng.gen_range(0..CATEGORIES);
        let subscribes =
            (hours > 12.0 && (genre_pref == 2 || genre_pref == 3)) || (hours > 22.0 && age < 35.0);

        // What the survey actually records: a coarse range for hours, the
        // exact age, and a noisy genre distribution from viewing logs.
        let bucket = 4.0;
        let lo = (hours / bucket).floor() * bucket;
        let mut genre_weights = vec![1.0; CATEGORIES];
        genre_weights[genre_pref] += 6.0;
        let tuple = Tuple::new(
            vec![
                range_answer(lo, lo + bucket, 20),
                UncertainValue::point(age),
                UncertainValue::Categorical(
                    DiscreteDist::new(genre_weights).expect("valid distribution"),
                ),
            ],
            usize::from(subscribes),
        );
        data.push(tuple).expect("tuple matches schema");
    }

    println!(
        "survey respondents: {}   subscribed: {}",
        data.len(),
        data.class_counts()[1]
    );

    for algorithm in [Algorithm::Avg, Algorithm::UdtGp] {
        let cv = cross_validate(&data, &UdtConfig::new(algorithm), 5, 3)
            .expect("cross validation succeeds");
        println!(
            "{:<7}  accuracy {:>6.2}%   mean tree size {:>5.1}   entropy calcs {}",
            algorithm.name(),
            cv.pooled.accuracy() * 100.0,
            cv.mean_tree_size,
            cv.stats.entropy_like_calculations(),
        );
    }
    println!(
        "\n(range answers are uniform pdfs — the quantisation-noise case of §4.3 —\n\
         and the favourite-genre attribute is an uncertain categorical value as in §7.2)"
    );
}
