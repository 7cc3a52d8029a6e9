//! The host probe: a fixed computation, timed in a process of its own.
//!
//! ```sh
//! e2ebench-probe
//! ```
//!
//! Prints the wall seconds of each of three timed passes, one per line,
//! after one untimed pass that faults in the heap.
//!
//! A pass formats strings, makes small allocations, inserts into a
//! B-tree and sorts — the engine's own mix of work — using only the
//! standard library and the system allocator, none of the repository's
//! code. `run.py` runs this before and after every repetition, in a
//! fresh process, so neither the benchmark's counting allocator nor the
//! heap a repetition leaves behind can move it; its time tracks the
//! host's speed alone.

use std::collections::BTreeMap;
use std::time::Instant;

/// Entries in one pass.
const ITEMS: u64 = 20_000;

/// Timed passes.
const PASSES: usize = 3;

fn pass() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..ITEMS {
        map.insert(format!("/cal/{:016x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), vec![i as u8; 64]);
    }
    let acc = map.iter().fold(0u64, |acc, (k, v)| acc.wrapping_add(k.len() as u64 ^ u64::from(v[63])));
    let mut keys: Vec<String> = map.into_keys().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    std::hint::black_box((acc, keys));
    start.elapsed().as_secs_f64()
}

fn main() {
    pass();
    for _ in 0..PASSES {
        println!("{}", pass());
    }
}
