//! # dgf-bench — experiment harness for the paper-implied evaluation
//!
//! The paper (a systems/vision workshop paper) has no quantitative
//! tables; `DESIGN.md` reconstructs an evaluation from its scenarios and
//! requirements. This crate provides the shared workload builders, a
//! plain-text table printer, and a wall-clock timer used by the
//! `experiments` bench target (one section per experiment id F1–F4 and
//! E1–E11), `bench_report`, and the plain-`main` micro-benches.

use datagridflows::prelude::*;
use std::time::Instant;

/// Mean wall time of `f` in µs per call: one untimed warm-up call,
/// then `iters` timed calls.
pub fn time_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Format and print one paper-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i] + 2))
        .collect();
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let line: String = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8) + 2))
            .collect();
        println!("{line}");
    }
}

/// Dump an experiment's metrics snapshot when `DGF_METRICS` is set.
///
/// `DGF_METRICS=text` (or `1`) prints the plain-text exporter,
/// `DGF_METRICS=json` prints the JSON exporter; unset prints nothing,
/// so the default experiment tables stay byte-identical.
pub fn maybe_dump_metrics(label: &str, d: &Dfms) {
    let Ok(mode) = std::env::var("DGF_METRICS") else { return };
    let snap = d.metrics_snapshot();
    match mode.as_str() {
        "json" => println!("\n--- metrics {label} (json) ---\n{}", snap.to_json()),
        _ => println!("\n--- metrics {label} ---\n{}", snap.to_text()),
    }
}

/// A mesh-grid DfMS with one admin user `u` and the given planner.
pub fn mesh_dfms(domains: u32, planner: PlannerKind, seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(planner, seed))
}

/// An imploding-star DfMS with an `admin` user at the archiver.
pub fn star_dfms(sources: u32, seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::ImplodingStar { sources });
    let mut users = UserRegistry::new();
    users.register(Principal::new("admin", topology.domain_by_name("archiver").unwrap()));
    users.make_admin("admin").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed))
}

/// A flow of `n` trivial (notify) steps — pure engine overhead.
pub fn notify_flow(name: &str, n: usize) -> Flow {
    let mut b = FlowBuilder::sequential(name);
    for i in 0..n {
        b = b.step(format!("s{i}"), DglOperation::Notify { message: format!("step {i}") });
    }
    b.build().expect("generated flow is valid")
}

/// A flow ingesting `n` objects of `size` bytes into `resource`.
pub fn ingest_flow(name: &str, collection: &str, n: usize, size: u64, resource: &str) -> Flow {
    let mut b = FlowBuilder::sequential(name)
        .add_step(
            Step::new("mk", DglOperation::CreateCollection { path: collection.into() })
                .with_error_policy(ErrorPolicy::Ignore), // idempotent re-use
        );
    for i in 0..n {
        b = b.step(
            format!("put{i}"),
            DglOperation::Ingest { path: format!("{collection}/f{i}"), size: size.to_string(), resource: resource.into() },
        );
    }
    b.build().expect("generated flow is valid")
}

/// A flow of `n` independent compute tasks, each consuming one seeded
/// input of `input_size` bytes at site0.
pub fn analysis_flow(name: &str, n: usize, nominal_secs: u64) -> Flow {
    let mut b = FlowBuilder::sequential(name);
    for i in 0..n {
        b = b.step(
            format!("t{i}"),
            DglOperation::Execute {
                code: format!("{name}-job{i}"),
                nominal_secs: nominal_secs.to_string(),
                resource_type: None,
                inputs: vec![format!("/data/in{i}")],
                outputs: vec![(format!("/data/{name}-out{i}"), "1000000".into())],
            },
        );
    }
    b.build().expect("generated flow is valid")
}

/// Seed `/data/in0..n` at site0's parallel filesystem.
pub fn seed_inputs(dfms: &mut Dfms, n: usize, size: u64) {
    let mut b = FlowBuilder::sequential("seed-in").add_step(
        Step::new("mk", DglOperation::CreateCollection { path: "/data".into() })
            .with_error_policy(ErrorPolicy::Ignore),
    );
    for i in 0..n {
        b = b.step(
            format!("put{i}"),
            DglOperation::Ingest { path: format!("/data/in{i}"), size: size.to_string(), resource: "site0-pfs".into() },
        );
    }
    let txn = dfms.submit_flow("u", b.build().unwrap()).expect("seed flow");
    dfms.pump();
    assert_eq!(dfms.status(&txn, None).unwrap().state, RunState::Completed, "seeding succeeded");
}

/// A deep DGL request document: nested flows `depth` levels, one step at
/// the bottom — for the F1–F4 parse rows.
pub fn deep_request(depth: usize) -> DataGridRequest {
    fn nest(level: usize) -> Flow {
        if level == 0 {
            FlowBuilder::sequential("leaf")
                .step("s", DglOperation::Checksum { path: "/x".into(), resource: None, register: false })
                .build()
                .unwrap()
        } else {
            FlowBuilder::sequential(format!("level{level}")).flow(nest(level - 1)).build().unwrap()
        }
    }
    DataGridRequest::flow("deep", "u", nest(depth))
}

/// A wide DGL request document with `steps` sibling steps.
pub fn wide_request(steps: usize) -> DataGridRequest {
    let mut b = FlowBuilder::sequential("wide").var("base", "/data");
    for i in 0..steps {
        b = b.step(
            format!("s{i}"),
            DglOperation::Replicate { path: format!("${{base}}/f{i}"), src: Some("r1".into()), dst: "r2".into() },
        );
    }
    DataGridRequest::flow("wide", "u", b.build().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_produce_valid_flows() {
        assert_eq!(notify_flow("n", 10).step_count(), 10);
        assert_eq!(ingest_flow("i", "/c", 5, 100, "r").step_count(), 6);
        assert_eq!(analysis_flow("a", 3, 60).step_count(), 3);
        let deep = deep_request(10);
        let reparsed = datagridflows::dgl::parse_request(&deep.to_xml()).unwrap();
        assert_eq!(reparsed, deep);
        let wide = wide_request(50);
        let reparsed = datagridflows::dgl::parse_request(&wide.to_xml()).unwrap();
        assert_eq!(reparsed, wide);
    }

    #[test]
    fn seeding_populates_inputs() {
        let mut d = mesh_dfms(2, PlannerKind::CostBased, 1);
        seed_inputs(&mut d, 4, 1000);
        for i in 0..4 {
            assert!(d.grid().exists(&LogicalPath::parse(&format!("/data/in{i}")).unwrap()));
        }
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table("demo", &["a", "bee"], &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]]);
    }
}
