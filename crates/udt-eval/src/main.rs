//! Reproduces every table and figure of the paper at laptop scale,
//! prints them with the paper's claims checked, and writes every row to
//! `results/reproduction.json`.
//!
//! Usage: `cargo run --release -p udt-eval` (no arguments).

use std::path::Path;

use udt_eval::experiments::reproduce;
use udt_eval::experiments::settings::Settings;
use udt_eval::report::write_json;

fn main() {
    let settings = Settings::laptop();
    eprintln!(
        "reproducing the paper at scale {} with s = {} ({} folds)…",
        settings.scale, settings.s, settings.folds
    );
    let reproduction = reproduce(&settings).expect("every experiment runs");
    print!("{}", reproduction.render());
    let path = "results/reproduction.json";
    if let Err(e) = write_json(Path::new(path), &reproduction) {
        eprintln!("udt-eval: could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("(results written to {path})");
}
