//! Layer attribution for traced runs.
//!
//! The benchmark times calls into each crate's public functions from
//! outside. A call's *self* time is its duration minus the dgf-prof
//! phases that ran inside it; each phase's self time is charged to the
//! layer that owns it. The [`Ledger`] collects both, and whatever part
//! of the measured wall no timed call covered is its `unattributed`
//! row, so the rows always sum to the wall.

use crate::report::Rep;
use datagridflows::dfms::Dfms;
use datagridflows::obs::{Phase, ProfileSnapshot};
use std::collections::BTreeMap;

/// The layers, named after the crates that own them.
pub const LAYERS: [&str; 9] = ["dgl", "lint", "engine", "provenance", "obs", "journal", "recovery", "server", "fabric"];

/// The layer a dgf-prof phase's work belongs to.
pub fn phase_layer(phase: Phase) -> &'static str {
    match phase {
        Phase::DglParse => "dgl",
        Phase::LintGate => "lint",
        Phase::Schedule | Phase::StepExecute | Phase::TriggerEval => "engine",
        Phase::ProvenanceAppend => "provenance",
        Phase::JournalAppend | Phase::JournalFsync => "journal",
        Phase::TelemetrySample => "obs",
    }
}

/// Per-phase totals between two profile snapshots of one engine.
#[derive(Debug, Clone, Default)]
pub struct PhaseDelta {
    /// Self wall ns per phase, summed over every tree position.
    pub self_ns: BTreeMap<Phase, u64>,
    /// Inclusive wall ns per phase, summed over every tree position.
    pub incl_ns: BTreeMap<Phase, u64>,
    /// Calls per phase, summed over every tree position.
    pub calls: BTreeMap<Phase, u64>,
    /// Heap allocations per phase (self), summed over tree positions.
    pub allocs: BTreeMap<Phase, u64>,
    /// Inclusive wall ns of the root phases: everything profiled.
    pub root_ns: u64,
}

impl PhaseDelta {
    /// What `after` accumulated since `before` (same engine, no reset
    /// in between).
    pub fn between(before: &ProfileSnapshot, after: &ProfileSnapshot) -> Self {
        let base: BTreeMap<String, (u64, u64, u64, u64)> = before
            .flattened()
            .into_iter()
            .map(|(path, n)| (path, (n.self_wall_ns, n.stats.wall_ns, n.stats.calls, n.stats.allocs)))
            .collect();
        let mut delta = PhaseDelta::default();
        for (path, node) in after.flattened() {
            let (self0, incl0, calls0, allocs0) = base.get(&path).copied().unwrap_or_default();
            let incl = node.stats.wall_ns.saturating_sub(incl0);
            *delta.self_ns.entry(node.phase).or_default() += node.self_wall_ns.saturating_sub(self0);
            *delta.incl_ns.entry(node.phase).or_default() += incl;
            *delta.calls.entry(node.phase).or_default() += node.stats.calls.saturating_sub(calls0);
            *delta.allocs.entry(node.phase).or_default() += node.stats.allocs.saturating_sub(allocs0);
            if node.depth == 0 {
                delta.root_ns += incl;
            }
        }
        delta
    }

    /// Everything a snapshot accumulated since its engine started.
    pub fn of(snapshot: &ProfileSnapshot) -> Self {
        PhaseDelta::between(&ProfileSnapshot::default(), snapshot)
    }

    /// Fold another engine's (or another interval's) totals in.
    pub fn add(&mut self, other: &PhaseDelta) {
        for (map, theirs) in [
            (&mut self.self_ns, &other.self_ns),
            (&mut self.incl_ns, &other.incl_ns),
            (&mut self.calls, &other.calls),
            (&mut self.allocs, &other.allocs),
        ] {
            for (phase, v) in theirs {
                *map.entry(*phase).or_default() += v;
            }
        }
        self.root_ns += other.root_ns;
    }

    /// Self wall ns of one phase.
    pub fn self_of(&self, phase: Phase) -> u64 {
        self.self_ns.get(&phase).copied().unwrap_or(0)
    }

    /// Inclusive wall ns of one phase.
    pub fn incl_of(&self, phase: Phase) -> u64 {
        self.incl_ns.get(&phase).copied().unwrap_or(0)
    }

    /// `prof.<phase>.us_per_step` for all nine phases.
    pub fn per_step(&self, steps: u64) -> Vec<(String, f64)> {
        Phase::ALL
            .iter()
            .map(|p| (format!("prof.{}.us_per_step", p.name()), self.self_of(*p) as f64 / 1e3 / steps.max(1) as f64))
            .collect()
    }
}

/// Self time per layer over one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    rows: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Charge `secs` of self time to `layer`.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        *self.rows.entry(layer).or_default() += secs;
    }

    /// Charge every phase's self time to its layer.
    pub fn add_phases(&mut self, delta: &PhaseDelta) {
        for (phase, ns) in &delta.self_ns {
            self.add(phase_layer(*phase), *ns as f64 / 1e9);
        }
    }

    /// Charge the time spent inside calls to `layer`'s public functions,
    /// net of the profiled phases that ran inside them.
    pub fn add_calls(&mut self, layer: &'static str, call_secs: f64, inner: &PhaseDelta) {
        self.add(layer, call_secs - inner.root_ns as f64 / 1e9);
        self.add_phases(inner);
    }

    /// The ledger as per-layer metrics: one `ledger.<layer>_s` row per
    /// layer, `ledger.unattributed_s` for the rest of `wall_s`, and the
    /// wall itself.
    pub fn rows(&self, wall_s: f64) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = LAYERS
            .iter()
            .map(|layer| (format!("ledger.{layer}_s"), self.rows.get(layer).copied().unwrap_or(0.0)))
            .collect();
        let attributed: f64 = out.iter().map(|(_, v)| v).sum();
        out.push(("ledger.unattributed_s".to_owned(), wall_s - attributed));
        out.push(("ledger.wall_s".to_owned(), wall_s));
        out
    }
}

/// Retained observability and provenance state per finished flow,
/// summed over `engines`.
pub fn probe_obs(rep: &mut Rep, engines: &[&Dfms], finished_flows: u64) {
    let per_flow = |n: usize| n as f64 / finished_flows.max(1) as f64;
    let sum = |f: &dyn Fn(&Dfms) -> usize| engines.iter().map(|d| f(d)).sum::<usize>();
    rep.layer("obs.spans_retained", per_flow(sum(&|d| d.obs().spans().len())));
    rep.layer("obs.why_marks_retained", per_flow(sum(&|d| d.obs().why_marks().len())));
    rep.layer("obs.alerts_retained", per_flow(sum(&|d| d.obs().why_alerts().len())));
    rep.layer("obs.events_dropped", per_flow(sum(&|d| d.obs().events_dropped() as usize)));
    rep.layer("provenance.records_per_flow", per_flow(sum(&|d| d.provenance().records().len())));
}
