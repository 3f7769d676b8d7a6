//! The `udt-serve` server binary.
//!
//! ```text
//! udt-serve [--addr HOST:PORT] [--workers N] [--max-batch TUPLES]
//!           [--queue-capacity JOBS]
//!           [--queue-policy block|shed] [--request-deadline-ms MS]
//!           [--drain-deadline-ms MS] [--max-connections N]
//!           [--idle-timeout-ms MS] [--write-timeout-ms MS]
//!           [--faults SPEC] [--fault-seed N]
//!           [--model NAME=PATH]... [--preload NAME=PATH]...
//!           [--train-toy NAME] [--threads auto|N]
//! ```
//!
//! Loads every `--model` file into the registry (refusing to start on a
//! corrupt model — better to fail loud at boot than at first request),
//! loads every `--preload` file best-effort (a corrupt or unreadable
//! file is *quarantined*: counted, logged, surfaced by the `health`
//! request — and the server starts without it, so one bad artifact in a
//! model directory cannot take a whole replica down), optionally trains
//! the paper's Table 1 toy model in-process, prints one
//! `udt-serve listening on ADDR` line (scripts wait for it), and
//! serves until a `shutdown` request arrives.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use udt_serve::{ModelRegistry, ServeConfig};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: udt-serve [--addr HOST:PORT] [--workers N] [--max-batch TUPLES] \
             [--queue-capacity JOBS] \
             [--queue-policy block|shed] [--request-deadline-ms MS] \
             [--drain-deadline-ms MS] [--max-connections N] [--idle-timeout-ms MS] \
             [--write-timeout-ms MS] [--faults SPEC] [--fault-seed N] \
             [--model NAME=PATH]... [--preload NAME=PATH]... \
             [--train-toy NAME] [--threads auto|N]"
        );
        return ExitCode::SUCCESS;
    }
    let config = match ServeConfig::from_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("udt-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "udt-serve: queue policy {}, request deadline {}, max {} connections",
        config.queue_policy.name(),
        config
            .request_deadline
            .map(|d| format!("{} ms", d.as_millis()))
            .unwrap_or_else(|| "none".to_string()),
        config.max_connections
    );
    if !config.faults.is_empty() {
        eprintln!(
            "udt-serve: WARNING: {} fault(s) armed (seed {}) — chaos testing mode",
            config.faults.specs.len(),
            config.faults.seed
        );
    }

    let registry = Arc::new(ModelRegistry::new());
    for (name, path) in &config.models {
        match registry.load(name, Path::new(path)) {
            Ok(info) => eprintln!(
                "udt-serve: loaded model {name} from {} ({} nodes, {} bytes)",
                path.display(),
                info.nodes,
                info.heap_bytes
            ),
            Err(e) => {
                eprintln!(
                    "udt-serve: could not load {name} from {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    for (name, path) in &config.preload {
        match registry.load(name, Path::new(path)) {
            Ok(info) => eprintln!(
                "udt-serve: preloaded model {name} from {} ({} nodes, {} bytes)",
                path.display(),
                info.nodes,
                info.heap_bytes
            ),
            Err(e) => {
                // Best-effort by contract: quarantine the file and keep
                // booting so one corrupt artifact cannot down a replica.
                registry.record_quarantined();
                eprintln!(
                    "udt-serve: quarantined {name} from {}: {e} (starting without it)",
                    path.display()
                );
            }
        }
    }
    if let Some(name) = &config.train_toy {
        let data = match udt_data::toy::table1_dataset() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("udt-serve: toy data failed to build: {e}");
                return ExitCode::FAILURE;
            }
        };
        let built = TreeBuilder::new(
            UdtConfig::new(Algorithm::UdtEs)
                .with_postprune(false)
                .with_min_node_weight(0.0)
                .with_threads(config.threads),
        )
        .build(&data);
        match built {
            Ok(report) => match registry.insert_tree(name, report.tree) {
                Ok(info) => eprintln!("udt-serve: trained toy model {name} ({} nodes)", info.nodes),
                Err(e) => {
                    eprintln!("udt-serve: could not register toy model {name}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("udt-serve: toy model training failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match udt_serve::server::serve_until_shutdown(&config, registry, |addr| {
        // Stdout, flushed: the smoke script parses this line to learn
        // the ephemeral port.
        println!("udt-serve listening on {addr}");
        let _ = std::io::stdout().flush();
    }) {
        Ok(()) => {
            eprintln!("udt-serve: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("udt-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
