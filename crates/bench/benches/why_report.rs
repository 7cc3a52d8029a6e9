//! Attribution micro-bench: `whyQuery` evaluation and wire rendering
//! against a grid that has completed flows, wait-state history, and
//! resolved SLA alerts.
//!
//! The why report is an operator-console hot path — `dgf_top` refreshes
//! it alongside the telemetry scrape — so critical-path extraction and
//! bottleneck aggregation must stay cheap as the path set grows. Plain
//! `main` harness, like `experiments`:
//!
//! ```sh
//! cargo bench -p dgf-bench --bench why_report
//! ```

use datagridflows::prelude::*;
use dgf_bench::{mesh_dfms, time_per_iter};

/// A two-site grid that completed `flows` pipelines under a class
/// objective. Even flows run locally; odd flows pin their compute to
/// site1 so the critical path crosses the WAN and the bottleneck table
/// has links to blame. Distinct job codes defeat virtual-data
/// memoization — every flow really executes.
fn warmed_dfms(flows: usize) -> Dfms {
    let mut d = mesh_dfms(2, PlannerKind::CostBased, 7);
    d.set_class_objective("batch", Duration::from_secs(900));
    for i in 0..flows {
        let base = format!("/w{i}");
        let pin = if i % 2 == 1 { Some("compute@site1".to_string()) } else { None };
        let flow = FlowBuilder::sequential(format!("why-{i}"))
            .with_class("batch")
            .step("mk", DglOperation::CreateCollection { path: base.clone() })
            .step(
                "put",
                DglOperation::Ingest {
                    path: format!("{base}/in"),
                    size: "200000000".into(),
                    resource: "site0-disk".into(),
                },
            )
            .step(
                "run",
                DglOperation::Execute {
                    code: format!("why-job{i}"),
                    nominal_secs: "120".into(),
                    resource_type: pin,
                    inputs: vec![format!("{base}/in")],
                    outputs: vec![(format!("{base}/out"), "1000000".into())],
                },
            )
            .build()
            .unwrap();
        let txn = d.submit_flow("u", flow).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    }
    d
}

fn main() {
    println!("why-report micro-bench (wall time, {ITERS} iters per point)");

    println!("\nfull report (paths + bottlenecks + alerts):");
    println!("  {:>6} {:>6} {:>8} {:>8} {:>12}", "flows", "paths", "segs", "alerts", "us/iter");
    for flows in [8usize, 32, 128] {
        let mut d = warmed_dfms(flows);
        let query = WhyQuery::new().with_top_k(16);
        let report = d.why_query(&query);
        // The tentpole invariant holds for every path in the report.
        for p in &report.paths {
            assert_eq!(p.segments_sum_us(), p.makespan_us(), "critical path partitions the makespan");
        }
        let segs: usize = report.paths.iter().map(|p| p.segments.len()).sum();
        let us = time_per_iter(ITERS, || {
            std::hint::black_box(d.why_query(&query));
        });
        println!(
            "  {flows:>6} {:>6} {segs:>8} {:>8} {us:>12.1}",
            report.paths.len(),
            report.alerts.len()
        );
    }

    println!("\nfiltered single-flow query:");
    println!("  {:>6} {:>12}", "flows", "us/iter");
    for flows in [32usize, 128] {
        let mut d = warmed_dfms(flows);
        let query = WhyQuery::new().with_flow("why-3");
        let us = time_per_iter(ITERS, || {
            let report = d.why_query(&query);
            assert_eq!(report.paths.len(), 1);
            std::hint::black_box(report);
        });
        println!("  {flows:>6} {us:>12.1}");
    }

    println!("\nwire render (whyReport → pretty XML):");
    println!("  {:>6} {:>10} {:>12}", "flows", "bytes", "us/iter");
    for flows in [32usize, 128] {
        let mut d = warmed_dfms(flows);
        let report = d.why_query(&WhyQuery::new().with_top_k(16));
        let bytes = report.to_element().to_xml_pretty().len();
        let us = time_per_iter(ITERS, || {
            std::hint::black_box(report.to_element().to_xml_pretty());
        });
        println!("  {flows:>6} {bytes:>10} {us:>12.1}");
    }
}

const ITERS: u32 = 100;
