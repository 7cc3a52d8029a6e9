//! Telemetry micro-bench: scrape rendering and event-tail paging
//! against a grid that has accumulated metric and series history.
//!
//! The scrape is the operator hot path — a monitoring system polls it
//! continuously — so rendering must stay cheap even with hundreds of
//! retained series points. Plain `main` harness, like `experiments`:
//!
//! ```sh
//! cargo bench -p dgf-bench --bench telemetry_scrape
//! ```

use datagridflows::prelude::*;
use dgf_bench::time_per_iter;

/// A two-site grid that ran `flows` pipelines with a 10 s sampling
/// cadence, leaving metrics, series history, and recorder events.
fn warmed_dfms(flows: usize) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    let mut d = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 17));
    d.configure_telemetry(
        SamplingConfig { interval: Duration::from_secs(10), capacity: 512 },
        HealthConfig::default(),
    );
    for i in 0..flows {
        let base = format!("/b{i}");
        let flow = FlowBuilder::sequential(format!("bench-{i}"))
            .step("mk", DglOperation::CreateCollection { path: base.clone() })
            .step("put", DglOperation::Ingest { path: format!("{base}/in"), size: "50000000".into(), resource: "site0-pfs".into() })
            .step(
                "run",
                DglOperation::Execute {
                    code: "job".into(),
                    nominal_secs: "60".into(),
                    resource_type: None,
                    inputs: vec![format!("{base}/in")],
                    outputs: vec![(format!("{base}/out"), "1000".into())],
                },
            )
            .build()
            .unwrap();
        let txn = d.submit_flow("u", flow).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    }
    d.sample_telemetry();
    d
}

fn main() {
    println!("telemetry micro-bench (wall time, {} iters per point)", ITERS);
    println!("\nscrape render:");
    println!("  {:>6} {:>10} {:>12}", "flows", "bytes", "us/iter");
    for flows in [1usize, 8, 32] {
        let d = warmed_dfms(flows);
        let bytes = d.telemetry_scrape().len();
        let us = time_per_iter(ITERS, || {
            std::hint::black_box(d.telemetry_scrape());
        });
        println!("  {flows:>6} {bytes:>10} {us:>12.1}");
    }

    println!("\ntail paging (full recorder sweep):");
    println!("  {:>6} {:>10} {:>12}", "page", "events", "us/iter");
    let d = warmed_dfms(16);
    let total = d.obs().events_total();
    for page in [16usize, 256] {
        let us = time_per_iter(ITERS, || {
            // Page through the whole recorder, as a tailing client would.
            let mut cursor = 0u64;
            let mut delivered = 0u64;
            loop {
                let t = d.tail_events(cursor, page);
                if t.events.is_empty() {
                    break;
                }
                delivered += t.events.len() as u64;
                cursor = t.next_cursor;
            }
            assert!(delivered <= total);
            std::hint::black_box(delivered);
        });
        println!("  {page:>6} {total:>10} {us:>12.1}");
    }
}

const ITERS: u32 = 200;
