//! Determinism self-check: a scaled-down version of each workload runs
//! twice with one seed — once untraced, once traced — and must report
//! the same deterministic counts (steps, provenance records, bus
//! deliveries, allocations in the pump, journal bytes) with every
//! output check passing. Another seed must change the request mix.
//!
//! ```sh
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use dgf_e2ebench::report::Rep;
use dgf_e2ebench::{fabric, history, wire};
use std::sync::Mutex;

// The allocation counter is process-wide: install it, and run one
// workload at a time so no other test allocates inside a timed pump.
#[global_allocator]
static ALLOC: datagridflows::obs::CountingAllocator = datagridflows::obs::CountingAllocator;
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn assert_clean(rep: &Rep) {
    assert!(rep.attempted > 0, "{}: nothing attempted", rep.workload);
    assert_eq!(rep.failed, 0, "{}: failed checks {:?}", rep.workload, rep.failures);
    assert!(!rep.windows.is_empty() && !rep.submit_ms.is_empty() && !rep.query_ms.is_empty());
}

/// The traced ledger: every layer row and `unattributed` is at least 0.
/// The rows sum to the wall by construction (unattributed is the rest),
/// so time counted twice would show as a row below zero.
fn assert_ledger(rep: &Rep) {
    let rows: Vec<_> = rep.layer.iter().filter(|(k, _)| k.starts_with("ledger.") && *k != "ledger.wall_s").collect();
    assert_eq!(rows.len(), 10, "{}: nine layer rows and unattributed", rep.workload);
    for (name, secs) in rows {
        assert!(*secs >= 0.0, "{}: {name} = {secs}", rep.workload);
    }
    assert!(rep.layer["ledger.unattributed_s"] < rep.layer["ledger.wall_s"], "{}: nothing attributed", rep.workload);
}

/// Runs `run(seed, trace)` untraced and traced with one seed, then
/// untraced with another; returns the three repetitions.
fn three(run: impl Fn(u64, bool) -> Rep) -> (Rep, Rep, Rep) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (a, b, c) = (run(7, false), run(7, true), run(8, false));
    for rep in [&a, &b, &c] {
        assert_clean(rep);
    }
    assert_eq!(a.counts, b.counts, "{}: one seed, different counts", a.workload);
    assert_ne!(a.counts.mix_digest, c.counts.mix_digest, "{}: the seed does not reach the inputs", a.workload);
    assert!(!b.layer.is_empty() && a.layer.is_empty(), "per-layer metrics only when traced");
    assert_ledger(&b);
    (a, b, c)
}

#[test]
fn history_soak_repeats_exactly() {
    let (a, ..) = three(|seed, trace| history::run(&history::Config::SMALL, seed, trace));
    let cfg = history::Config::SMALL;
    let measured = (cfg.waves * cfg.wave_flows * cfg.steps) as u64;
    assert!(a.counts.steps > measured, "set-up and measured steps: {}", a.counts.steps);
    assert!(a.counts.provenance_records > a.counts.steps);
    assert!(a.counts.pump_allocs > 0, "the counting allocator is installed");
}

#[test]
fn fabric_federated_repeats_exactly() {
    let (a, b, _) = three(|seed, trace| fabric::run(&fabric::Config::SMALL, seed, trace));
    let cfg = fabric::Config::SMALL;
    let federated = (cfg.waves * cfg.wave_flows / 2) as u64;
    assert_eq!(a.counts.deliveries, 4 * federated, "one Delegate and one Ack per sub-flow");
    assert_eq!(b.layer["fabric.deliveries_per_fed_flow"], 4.0);
}

#[test]
fn wire_journaled_repeats_exactly() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-wire");
    let (a, b, _) = three(|seed, trace| wire::run(&wire::Config::SMALL, seed, trace, &dir).expect("wire repetition"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(a.counts.journal_bytes > 0);
    assert!(b.layer["recovery.replay_commands"] > 0.0);
}
