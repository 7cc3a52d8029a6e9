//! One repetition of one workload, printed as a line of JSON.
//!
//! ```sh
//! e2ebench <wire_journaled|history_soak|fabric_federated> --seed N [--trace 0|1] [--dir PATH]
//! ```
//!
//! `run.py` is the benchmark's entry point; it builds this binary, runs
//! it once per repetition and aggregates the results.

use dgf_e2ebench::{fabric, history, wire};
use std::path::PathBuf;
use std::process::ExitCode;

// Counting allocations is what `engine.allocs_per_step` and the
// per-phase alloc columns of dgf-prof read; it is installed in traced
// and untraced runs alike so both run the same code.
#[global_allocator]
static ALLOC: datagridflows::obs::CountingAllocator = datagridflows::obs::CountingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first() else {
        eprintln!("usage: e2ebench <workload> --seed N [--trace 0|1] [--dir PATH]");
        return ExitCode::from(2);
    };
    let flag = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("--seed must be a whole number");
        return ExitCode::from(2);
    };
    let trace = flag("--trace").is_some_and(|t| t == "1");
    let dir = flag("--dir").map_or_else(|| PathBuf::from(".bench_run"), PathBuf::from);
    let rep = match workload.as_str() {
        "history_soak" => history::run(&history::Config::STANDARD, seed, trace),
        "fabric_federated" => fabric::run(&fabric::Config::STANDARD, seed, trace),
        "wire_journaled" => match wire::run(&wire::Config::STANDARD, seed, trace, &dir) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("wire_journaled: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}
