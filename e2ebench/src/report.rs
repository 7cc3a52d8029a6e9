//! One repetition's raw results and their JSON rendering.
//!
//! A repetition reports raw samples, not summaries: `run.py` pools the
//! windows and latencies of every repetition of a run before it takes
//! medians and percentiles.

use crate::sys::Noise;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measurement window: a wave (history, fabric) or an equal share
/// of the completed requests (wire).
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Flows completed in the window.
    pub flows: u64,
    /// Steps those flows ran.
    pub steps: u64,
    /// Wall seconds the window took.
    pub wall_s: f64,
}

/// Counts that are a pure function of the workload's inputs: two runs
/// with one seed must report identical values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Steps executed by every engine of the workload.
    pub steps: u64,
    /// Provenance records held by every engine.
    pub provenance_records: u64,
    /// Inter-shard bus deliveries (fabric only).
    pub deliveries: u64,
    /// Heap allocations inside the timed pump calls (single-threaded
    /// workloads only; 0 on the wire, where client threads share the
    /// counter).
    pub pump_allocs: u64,
    /// Journal size after the measured phase (wire only).
    pub journal_bytes: u64,
    /// A digest of the generated request mix (changes with the seed).
    pub mix_digest: u64,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted (flows submitted plus queries sent).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed check (capped).
    pub failures: Vec<String>,
    /// Wall seconds of each set-up done in this repetition.
    pub setup_s: Vec<f64>,
    /// The measured windows, in order.
    pub windows: Vec<Window>,
    /// Flow submission latencies, ms.
    pub submit_ms: Vec<f64>,
    /// Query latencies, ms.
    pub query_ms: Vec<f64>,
    /// RSS at the end of the early windows, KiB.
    pub rss_early_kb: u64,
    /// RSS at the end of the late windows, KiB.
    pub rss_late_kb: u64,
    /// Flows completed between the two RSS readings.
    pub flows_between: u64,
    /// Peak RSS of the process, KiB.
    pub peak_rss_kb: u64,
    /// Wall seconds of the whole measured phase.
    pub wall_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// Deterministic counts.
    pub counts: Counts,
    /// Noise over the measured phase.
    pub noise: Noise,
}

/// Failed checks kept verbatim; the rest are only counted.
const MAX_FAILURE_LINES: usize = 20;

impl Rep {
    /// A fresh repetition record for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Rep { workload, ..Rep::default() }
    }

    /// Count one attempted operation that passed (`ok`) or failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail_unless(ok, what);
    }

    /// Record an output check on an operation already counted.
    pub fn fail_unless(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_LINES {
                self.failures.push(what());
            }
        }
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_owned(), value);
    }

    /// The repetition as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"workload\": \"{}\"", self.workload);
        let _ = write!(out, ", \"attempted\": {}, \"failed\": {}", self.attempted, self.failed);
        out.push_str(", \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(f));
        }
        out.push(']');
        let _ = write!(out, ", \"setup_s\": {}", floats(&self.setup_s));
        out.push_str(", \"windows\": [");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}, {}]", w.flows, w.steps, num(w.wall_s));
        }
        out.push(']');
        let _ = write!(out, ", \"submit_ms\": {}", floats(&self.submit_ms));
        let _ = write!(out, ", \"query_ms\": {}", floats(&self.query_ms));
        let _ = write!(
            out,
            ", \"rss_early_kb\": {}, \"rss_late_kb\": {}, \"flows_between\": {}, \"peak_rss_kb\": {}",
            self.rss_early_kb, self.rss_late_kb, self.flows_between, self.peak_rss_kb
        );
        let _ = write!(out, ", \"wall_s\": {}", num(self.wall_s));
        out.push_str(", \"layer\": {");
        for (i, (k, v)) in self.layer.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", escape(k), num(*v));
        }
        out.push('}');
        let c = &self.counts;
        let _ = write!(
            out,
            ", \"counts\": {{\"steps\": {}, \"provenance_records\": {}, \"deliveries\": {}, \"pump_allocs\": {}, \"journal_bytes\": {}, \"mix_digest\": {}}}",
            c.steps, c.provenance_records, c.deliveries, c.pump_allocs, c.journal_bytes, c.mix_digest
        );
        let n = &self.noise;
        let _ = write!(
            out,
            ", \"noise\": {{\"runq_wait_ms\": {}, \"steal_share\": {}, \"minor_faults\": {}}}",
            num(n.runq_wait_ms),
            num(n.steal_share),
            n.minor_faults
        );
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (a ratio over nothing) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn floats(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", body.join(", "))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
