//! The BENCH trajectory runner: executes the engine-throughput,
//! journal-replay, DGL-parse, and workspace-audit workloads under the
//! deterministic phase profiler (`dgf-prof`) and emits
//! `BENCH_engine.json`.
//!
//! Wall-clock numbers are **report-only** — they vary between machines
//! and runs. The profile *structure* (phase tree shape, call counts,
//! sim-time totals) is deterministic: two runs of this bench on any
//! machine produce identical phase trees. `scripts/verify.sh` gates on
//! exactly that.
//!
//! Plain `main` harness, like `experiments`:
//!
//! ```sh
//! cargo bench -p dgf-bench --bench bench_report           # full run
//! DGF_BENCH_SMOKE=1 cargo bench -p dgf-bench --bench bench_report
//! DGF_BENCH_OUT=/tmp/b.json ...                           # output path
//! ```

use datagridflows::prelude::*;
use dgf_bench::{mesh_dfms, notify_flow, wide_request};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

// Per-phase allocation deltas in the profile are live only when the
// counting allocator is global — benches opt in, the library never does.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const LABEL: &str = "bench-grid";

struct WallStats {
    iters: u64,
    min_ns: u64,
    mean_ns: u64,
    max_ns: u64,
}

fn wall_stats(samples: &[u64]) -> WallStats {
    let iters = samples.len() as u64;
    let sum: u64 = samples.iter().sum();
    WallStats {
        iters,
        min_ns: samples.iter().copied().min().unwrap_or(0),
        mean_ns: sum.checked_div(iters).unwrap_or(0),
        max_ns: samples.iter().copied().max().unwrap_or(0),
    }
}

struct WorkloadResult {
    name: &'static str,
    /// Workload size (steps, commands, or documents per iteration).
    size: u64,
    wall: WallStats,
    profile: ProfileSnapshot,
}

/// E1 shape: pure engine overhead — dispatch, provenance, scopes.
fn engine_throughput(iters: usize, steps: usize) -> WorkloadResult {
    let mut samples = Vec::with_capacity(iters);
    let mut profile = ProfileSnapshot::default();
    for _ in 0..iters {
        let mut d = mesh_dfms(1, PlannerKind::CostBased, 1);
        let started = Instant::now();
        let txn = d.submit_flow("u", notify_flow("bench", steps)).unwrap();
        d.pump();
        samples.push(started.elapsed().as_nanos() as u64);
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        profile = d.profile_snapshot();
    }
    WorkloadResult { name: "engine_throughput", size: steps as u64, wall: wall_stats(&samples), profile }
}

/// Crash-recovery shape: replay a journal of `commands` flows. The
/// profile comes from the *recovered* engine — replay drives the same
/// phase scopes live execution does.
fn journal_replay(iters: usize, commands: usize) -> WorkloadResult {
    let dir = std::env::temp_dir().join("dgf-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench-report-{}.dgj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = JournalConfig::default();
    let factory = || mesh_dfms(2, PlannerKind::CostBased, 42);
    {
        let mut d = factory();
        d.attach_journal(&path, LABEL, config).unwrap();
        for i in 0..commands {
            d.submit_flow("u", notify_flow(&format!("f{i}"), 4)).unwrap();
            d.pump();
        }
    }
    let mut samples = Vec::with_capacity(iters);
    let mut profile = ProfileSnapshot::default();
    for _ in 0..iters {
        let started = Instant::now();
        let (d, report) = Dfms::recover(&path, LABEL, config, factory).unwrap();
        samples.push(started.elapsed().as_nanos() as u64);
        assert_eq!(report.replay.unwrap().divergences, 0);
        profile = d.profile_snapshot();
    }
    let _ = std::fs::remove_file(&path);
    WorkloadResult { name: "journal_replay", size: commands as u64, wall: wall_stats(&samples), profile }
}

/// F-series shape: DGL document handling without execution — each
/// iteration parses and lints `docs` wide validation requests through
/// the full `handle_xml` path, so the profile shows the dgl-parse and
/// lint-gate phases in isolation.
fn dgl_parse(iters: usize, docs: usize, steps: usize) -> WorkloadResult {
    let flow = match wide_request(steps).body {
        RequestBody::Flow(flow) => flow,
        _ => unreachable!("wide_request builds a flow"),
    };
    let xml = DataGridRequest::validation("bench", "u", flow).to_xml();
    let mut samples = Vec::with_capacity(iters);
    let mut profile = ProfileSnapshot::default();
    for _ in 0..iters {
        let mut d = mesh_dfms(1, PlannerKind::CostBased, 1);
        let started = Instant::now();
        for _ in 0..docs {
            let response = d.handle_xml(&xml);
            assert!(response.contains("validationReport"), "{response}");
        }
        samples.push(started.elapsed().as_nanos() as u64);
        profile = d.profile_snapshot();
    }
    WorkloadResult { name: "dgl_parse", size: docs as u64, wall: wall_stats(&samples), profile }
}

/// Verify-gate shape: the DGA determinism audit sweeping the whole
/// workspace — walk, lex every crate source, run the rule passes over
/// the authoritative set, render the report. Size is files scanned.
/// The auditor runs outside the engine, so its phase profile is empty;
/// only the wall numbers (report-only) and the scan size land here.
fn audit_workspace(iters: usize) -> WorkloadResult {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut samples = Vec::with_capacity(iters);
    let mut files = 0u64;
    for _ in 0..iters {
        let started = Instant::now();
        let report = datagridflows::audit::audit_workspace(&root).expect("workspace audit");
        let rendered = report.render();
        samples.push(started.elapsed().as_nanos() as u64);
        assert!(report.clean(), "workspace must audit clean:\n{rendered}");
        files = report.files_scanned as u64;
    }
    WorkloadResult { name: "audit_workspace", size: files, wall: wall_stats(&samples), profile: ProfileSnapshot::default() }
}

/// A routable unit of federation work: create one distinct object under
/// the shard's zone, then burn `steps - 1` notify steps. The leading
/// path is what the fabric routes on.
fn zone_work(zone: &str, j: usize, steps: usize) -> Flow {
    let mut b = FlowBuilder::sequential(format!("w{j}"))
        .step("mk", DglOperation::CreateCollection { path: format!("{zone}/f{j}") });
    for s in 1..steps {
        b = b.step(format!("n{s}"), DglOperation::Notify { message: format!("tick {s}") });
    }
    b.build().unwrap()
}

/// Build an in-memory fabric of `shards` engines, each owning `/s{i}`,
/// with the zone roots already created.
fn bench_fabric(shards: usize) -> Fabric {
    let mut fabric = Fabric::new();
    for i in 0..shards {
        let name = format!("s{i}");
        let zone = format!("/s{i}");
        fabric.add_shard(&name, &[zone.as_str()], mesh_dfms(1, PlannerKind::CostBased, i as u64 + 1)).unwrap();
        let root = FlowBuilder::sequential("root")
            .step("mk", DglOperation::CreateCollection { path: zone.clone() })
            .build()
            .unwrap();
        fabric.route(DataGridRequest::flow(format!("root-{name}"), "u", root).asynchronous()).unwrap();
    }
    fabric.pump().unwrap();
    fabric
}

/// One timed federation run: `flows` flows of `steps` steps fanned over
/// `shards` shards by path prefix, then every shard pumped to
/// quiescence with its own timer. In a one-node-per-shard deployment
/// the shards pump concurrently, so the config's wall time is the
/// *slowest shard's* pump wall — that is what the aggregate throughput
/// divides by.
fn fabric_run(shards: usize, flows: usize, steps: usize) -> u64 {
    let mut fabric = bench_fabric(shards);
    for j in 0..flows {
        let zone = format!("/s{}", j % shards);
        let req = DataGridRequest::flow(format!("r{j}"), "u", zone_work(&zone, j, steps)).asynchronous();
        fabric.route(req).unwrap();
    }
    let mut slowest_ns = 0u64;
    for i in 0..shards {
        let name = format!("s{i}");
        let started = Instant::now();
        fabric.pump_shard(&name).unwrap();
        slowest_ns = slowest_ns.max(started.elapsed().as_nanos() as u64);
    }
    for i in 0..shards {
        let done = fabric.engine(&format!("s{i}")).unwrap().flow_summaries();
        assert!(done.iter().all(|f| f.state == RunState::Completed));
    }
    slowest_ns
}

/// E1b shape: federation scaling. The same flow population spread over
/// 1, 2, and 4 shards; aggregate steps/s = total steps / slowest
/// shard's pump wall. One entry per shard count (`size` is the shard
/// count); the sharded configs run first so the heavyweight
/// single-engine config cannot warm or skew them. In full mode the
/// run asserts the federation scales ≥3× from one shard to four.
fn fabric_scaling(iters: usize, flows: usize, steps: usize, assert_ratio: bool) -> Vec<WorkloadResult> {
    let names: [&'static str; 3] = ["fabric_scaling_s4", "fabric_scaling_s2", "fabric_scaling_s1"];
    let mut results = Vec::new();
    let mut rate_of = std::collections::BTreeMap::new();
    for (name, shards) in names.into_iter().zip([4usize, 2, 1]) {
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            samples.push(fabric_run(shards, flows, steps));
        }
        let wall = wall_stats(&samples);
        let total_steps = (flows * steps) as f64;
        rate_of.insert(shards, total_steps / (wall.mean_ns as f64 / 1e9));
        results.push(WorkloadResult { name, size: shards as u64, wall, profile: ProfileSnapshot::default() });
    }
    let (r1, r4) = (rate_of[&1], rate_of[&4]);
    println!(
        "  fabric_scaling: {flows} flows x {steps} steps; aggregate {:.0} steps/s @1 shard -> {:.0} @4 shards ({:.2}x)",
        r1,
        r4,
        r4 / r1
    );
    if assert_ratio {
        assert!(
            r4 >= 3.0 * r1,
            "federation must scale >=3x from 1 to 4 shards: got {:.2}x",
            r4 / r1
        );
    }
    results
}

/// Sustained-load shape: a large flow population streamed through a
/// 4-shard fabric in bounded waves (so per-engine concurrency stays
/// realistic), every shard pumped on its own timer per wave. `size` is
/// the total flow count; the wall sample is the sum over waves of the
/// slowest shard's pump wall.
fn fabric_manyflows(flows: usize) -> WorkloadResult {
    const SHARDS: usize = 4;
    const WAVE: usize = 1_000;
    let mut fabric = bench_fabric(SHARDS);
    let mut total_ns = 0u64;
    let mut submitted = 0usize;
    while submitted < flows {
        let wave = WAVE.min(flows - submitted);
        for j in submitted..submitted + wave {
            let zone = format!("/s{}", j % SHARDS);
            let req = DataGridRequest::flow(format!("r{j}"), "u", zone_work(&zone, j, 2)).asynchronous();
            fabric.route(req).unwrap();
        }
        submitted += wave;
        let mut slowest_ns = 0u64;
        for i in 0..SHARDS {
            let started = Instant::now();
            fabric.pump_shard(&format!("s{i}")).unwrap();
            slowest_ns = slowest_ns.max(started.elapsed().as_nanos() as u64);
        }
        total_ns += slowest_ns;
    }
    let profile = fabric.engine("s0").unwrap().profile_snapshot();
    WorkloadResult {
        name: "fabric_manyflows",
        size: flows as u64,
        wall: wall_stats(&[total_ns]),
        profile,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// One run of the trajectory: a labeled entry holding every workload.
/// No trailing newline — the caller splices it into the document.
fn render_entry(results: &[WorkloadResult], label: &str, smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"label\": \"{}\",", json_escape(label));
    let _ = writeln!(out, "      \"smoke\": {smoke},");
    out.push_str("      \"workloads\": [\n");
    for (wi, w) in results.iter().enumerate() {
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"name\": \"{}\",", w.name);
        let _ = writeln!(out, "          \"size\": {},", w.size);
        let _ = writeln!(out, "          \"iters\": {},", w.wall.iters);
        let _ = writeln!(
            out,
            "          \"wall_ns\": {{\"min\": {}, \"mean\": {}, \"max\": {}}},",
            w.wall.min_ns, w.wall.mean_ns, w.wall.max_ns
        );
        let _ = writeln!(out, "          \"folded\": \"{}\",", json_escape(&w.profile.folded()));
        out.push_str("          \"profile\": [\n");
        for (ni, node) in w.profile.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "            {{\"phase\": \"{}\", \"depth\": {}, \"calls\": {}, \"sim_us\": {}, \"wall_ns\": {}, \"allocs\": {}}}",
                node.phase.name(),
                node.depth,
                node.stats.calls,
                node.stats.sim_us,
                node.stats.wall_ns,
                node.stats.allocs
            );
            out.push_str(if ni + 1 < w.profile.nodes.len() { ",\n" } else { "\n" });
        }
        out.push_str("          ]\n");
        out.push_str(if wi + 1 < results.len() { "        },\n" } else { "        }\n" });
    }
    out.push_str("      ]\n");
    out.push_str("    }");
    out
}

/// A fresh single-entry trajectory document.
fn render_document(entry: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"engine\",");
    let _ = writeln!(out, "  \"wall_clock_note\": \"wall_ns and allocs are report-only; phases/calls/sim_us are deterministic\",");
    out.push_str("  \"trajectory\": [\n");
    out.push_str(entry);
    out.push_str("\n  ]\n}\n");
    out
}

/// Append the entry to an existing trajectory file, or start a new
/// document. A file in any other shape (the pre-trajectory format, a
/// truncated write) is replaced wholesale rather than corrupted further.
fn append_entry(existing: Option<&str>, entry: &str) -> String {
    const TAIL: &str = "\n  ]\n}\n";
    match existing {
        Some(prev) if prev.contains("\"trajectory\": [") => match prev.strip_suffix(TAIL) {
            Some(head) => format!("{head},\n{entry}{TAIL}"),
            None => render_document(entry),
        },
        _ => render_document(entry),
    }
}

fn main() {
    let smoke = std::env::var("DGF_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let label = std::env::var("DGF_BENCH_LABEL").unwrap_or_else(|_| "dev".to_string());
    let out_path = std::env::var("DGF_BENCH_OUT").map_or_else(|_| PathBuf::from("BENCH_engine.json"), PathBuf::from);
    let (iters, steps, commands, docs) = if smoke { (2, 100, 10, 5) } else { (10, 1_000, 100, 50) };
    let (fab_iters, fab_flows, fab_steps, many_flows) =
        if smoke { (1, 40, 5, 400) } else { (3, 2_000, 20, 100_000) };

    println!("dgf-prof bench report ({} mode, label {label:?})", if smoke { "smoke" } else { "full" });
    let mut results = vec![
        engine_throughput(iters, steps),
        journal_replay(iters, commands),
        dgl_parse(iters, docs, 50),
        audit_workspace(iters),
    ];
    results.extend(fabric_scaling(fab_iters, fab_flows, fab_steps, !smoke));
    results.push(fabric_manyflows(many_flows));
    for w in &results {
        println!(
            "  {:18} size={:<5} iters={} wall mean {:.3} ms  ({} profile nodes)",
            w.name,
            w.size,
            w.wall.iters,
            w.wall.mean_ns as f64 / 1e6,
            w.profile.nodes.len()
        );
    }
    let entry = render_entry(&results, &label, smoke);
    let existing = std::fs::read_to_string(&out_path).ok();
    let json = append_entry(existing.as_deref(), &entry);
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("wrote {} ({} trajectory entries)", out_path.display(), json.matches("\"label\": ").count());
}
