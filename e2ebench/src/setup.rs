//! Shared building blocks: engines, the seeded generator, timing.

use datagridflows::prelude::*;
use std::time::Instant;

/// The grid user every workload submits as.
pub const USER: &str = "u";

/// A mesh-grid engine of `domains` domains with one admin user and a
/// cost-based scheduler seeded with `seed`. Built here rather than
/// taken from `dgf-bench`, so that no change outside this directory can
/// change the benchmark's inputs.
pub fn mesh_engine(domains: u32, seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains });
    let mut users = UserRegistry::new();
    users.register(Principal::new(USER, topology.domain_ids().next().expect("a mesh has domains")));
    users.make_admin(USER).expect("the user was just registered");
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed))
}

/// A splitmix64 generator: the benchmark's only source of input
/// variation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seed's name tag: eight hex digits woven into every generated
/// path and message, so each seed gives different inputs of one size.
pub fn tag(seed: u64) -> String {
    format!("{:08x}", Rng::new(seed, 0x7A9).next_u64() as u32)
}

/// The starting value of a [`digest`].
pub const DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `value` into a running FNV-1a digest.
pub fn digest(acc: u64, value: &str) -> u64 {
    value.bytes().fold(acc, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// A sequential flow: create `collection`, then `notifies` notify steps.
pub fn create_then_notify(name: &str, collection: String, notifies: usize, note: &str) -> Flow {
    let mut b = FlowBuilder::sequential(name).step("mk", DglOperation::CreateCollection { path: collection });
    for s in 0..notifies {
        b = b.step(format!("n{s}"), DglOperation::Notify { message: format!("{note} {s}") });
    }
    b.build().expect("generated flow is valid")
}

/// Run `f` and return its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}
