//! The experiment suite: regenerates every table of the reconstructed
//! evaluation (`DESIGN.md`, figures F1–F4 and experiments E1–E11). Runs under
//! `cargo bench -p dgf-bench --bench experiments`; results are recorded
//! in `EXPERIMENTS.md`.

use datagridflows::prelude::*;
use dgf_bench::{
    analysis_flow, deep_request, maybe_dump_metrics, mesh_dfms, notify_flow, print_table,
    seed_inputs, star_dfms, time_per_iter, wide_request,
};
use std::time::Instant;

fn main() {
    println!("Datagridflows experiment suite (deterministic; seeds fixed)");
    f1_f4_dgl_documents();
    e1_scalability();
    e2_imploding_star();
    e3_exploding_star();
    e4_triggers();
    e5_planners();
    e6_binding();
    e7_virtual_data();
    e8_replicas();
    e9_provenance();
    e10_lifecycle();
    e11_prototypes();
    println!("\nall experiments completed");
}

/// Acceptance invariant for the E1 scenarios: every completed flow's
/// critical path partitions its makespan exactly — each sim-µs of the
/// flow's lifetime is attributed to exactly one wait state.
fn assert_attribution_invariant(d: &Dfms) {
    for p in d.obs().why_paths() {
        assert_eq!(
            p.segments_sum_us(),
            p.makespan_us(),
            "critical path must partition the makespan of {}",
            p.txn
        );
    }
}

/// F1–F4 — DGL documents (paper Figures 1–4): parse and serialize cost
/// vs document width and nesting depth.
fn f1_f4_dgl_documents() {
    const ITERS: u32 = 50;
    let mut rows = Vec::new();
    let mut row = |op: &str, shape: String, request: &DataGridRequest| {
        let xml = request.to_xml();
        let us = if op == "serialize" {
            time_per_iter(ITERS, || {
                std::hint::black_box(std::hint::black_box(request).to_xml());
            })
        } else {
            time_per_iter(ITERS, || {
                datagridflows::dgl::parse_request(std::hint::black_box(&xml)).unwrap();
            })
        };
        rows.push(vec![op.to_owned(), shape, xml.len().to_string(), format!("{us:.1}")]);
    };
    for steps in [10usize, 100, 1_000] {
        row("parse", format!("wide, {steps} steps"), &wide_request(steps));
    }
    for depth in [4usize, 16, 64] {
        row("parse", format!("deep, depth {depth}"), &deep_request(depth));
    }
    for steps in [10usize, 100, 1_000] {
        row("serialize", format!("wide, {steps} steps"), &wide_request(steps));
    }
    print_table(
        &format!("F1–F4: DGL document parse/serialize (wall µs, mean of {ITERS})"),
        &["op", "document", "bytes", "µs/doc"],
        &rows,
    );
}

/// E1 — §3.1 scalability: tasks per workflow, concurrent workflows,
/// resource count.
fn e1_scalability() {
    let mut rows = Vec::new();
    for steps in [10usize, 100, 1_000, 10_000] {
        let mut d = mesh_dfms(3, PlannerKind::CostBased, 1);
        let flow = notify_flow("scale", steps);
        let wall = Instant::now();
        let txn = d.submit_flow("u", flow).unwrap();
        d.pump();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        assert_attribution_invariant(&d);
        rows.push(vec![
            format!("steps/flow={steps}"),
            format!("{wall_ms:.1}"),
            format!("{:.0}", steps as f64 / (wall_ms / 1e3)),
        ]);
    }
    print_table("E1a: tasks per workflow", &["workload", "engine wall ms", "steps/s"], &rows);

    let mut rows = Vec::new();
    for flows in [1usize, 10, 100, 500] {
        let mut d = mesh_dfms(3, PlannerKind::CostBased, 1);
        let wall = Instant::now();
        let txns: Vec<String> = (0..flows)
            .map(|i| d.submit_flow("u", notify_flow(&format!("f{i}"), 20)).unwrap())
            .collect();
        d.pump();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert!(txns.iter().all(|t| d.status(t, None).unwrap().state == RunState::Completed));
        assert_attribution_invariant(&d);
        rows.push(vec![
            format!("concurrent flows={flows}"),
            format!("{wall_ms:.1}"),
            format!("{:.0}", (flows * 20) as f64 / (wall_ms / 1e3)),
        ]);
    }
    print_table("E1b: concurrent workflows", &["workload", "engine wall ms", "steps/s"], &rows);

    let mut rows = Vec::new();
    for domains in [2u32, 8, 32] {
        let mut d = mesh_dfms(domains, PlannerKind::CostBased, 1);
        let tasks = 256usize;
        let mut b = FlowBuilder::parallel("compute");
        for i in 0..tasks {
            b = b.flow(
                FlowBuilder::sequential(format!("lane{i}"))
                    .step(
                        "t",
                        DglOperation::Execute {
                            code: format!("job{i}"),
                            nominal_secs: "600".into(),
                            resource_type: None,
                            inputs: vec![],
                            outputs: vec![],
                        },
                    )
                    .build()
                    .unwrap(),
            );
        }
        let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        assert_attribution_invariant(&d);
        maybe_dump_metrics(&format!("E1c domains={domains}"), &d);
        rows.push(vec![
            format!("domains={domains} (slots={})", domains * 32),
            format!("{}", d.now()),
        ]);
    }
    print_table(
        "E1c: 256 parallel 600s tasks vs grid size (makespan shrinks with resources)",
        &["grid", "simulated makespan"],
        &rows,
    );
}

/// E2 — §2.1 imploding star: DfMS windowed ILM vs the cron baseline.
fn e2_imploding_star() {
    let mut rows = Vec::new();
    for sources in [4u32, 16, 64] {
        // --- DfMS path -------------------------------------------------
        let mut d = star_dfms(sources, 2);
        let mut seed = FlowBuilder::sequential("seed");
        for h in 0..sources {
            seed = seed.step(format!("mk{h}"), DglOperation::CreateCollection { path: format!("/h{h:02}") });
            for s in 0..3 {
                seed = seed.step(
                    format!("put{h}-{s}"),
                    DglOperation::Ingest {
                        path: format!("/h{h:02}/scan{s}"),
                        size: "200000000".into(),
                        resource: format!("hospital{h:02}-disk"),
                    },
                );
            }
        }
        d.submit_flow("admin", seed.build().unwrap()).unwrap();
        d.pump();
        let srcs: Vec<_> = (0..sources)
            .map(|h| (LogicalPath::parse(&format!("/h{h:02}")).unwrap(), format!("hospital{h:02}-disk")))
            .collect();
        let star = imploding_star_flow(d.grid(), &srcs, "archiver-disk", "archiver-tape").unwrap();
        let options = RunOptions { window: Some(ScheduleWindow::weekends()), ..Default::default() };
        let txn = d.submit_flow_with("admin", star, options).unwrap();
        d.pump_until(SimTime::from_days(14));
        let report = d.status(&txn, None).unwrap();
        let violations = d
            .grid()
            .events()
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::ObjectMigrated | EventKind::ObjectReplicated)
                    && !matches!(e.time.day_of_week(), 5 | 6)
            })
            .count();
        maybe_dump_metrics(&format!("E2 sources={sources} (DfMS)"), &d);
        rows.push(vec![
            format!("{sources}"),
            "DfMS (weekend window)".into(),
            report.state.to_string(),
            format!("{:.1}", d.metrics().bytes_moved as f64 / 1e9),
            violations.to_string(),
            d.provenance().len().to_string(),
        ]);

        // --- cron baseline ----------------------------------------------
        let mut d = star_dfms(sources, 2);
        let mut seed = FlowBuilder::sequential("seed");
        for h in 0..sources {
            seed = seed.step(format!("mk{h}"), DglOperation::CreateCollection { path: format!("/h{h:02}") });
            for s in 0..3 {
                seed = seed.step(
                    format!("put{h}-{s}"),
                    DglOperation::Ingest {
                        path: format!("/h{h:02}/scan{s}"),
                        size: "200000000".into(),
                        resource: format!("hospital{h:02}-disk"),
                    },
                );
            }
        }
        d.submit_flow("admin", seed.build().unwrap()).unwrap();
        d.pump();
        let mut cron = CronScriptIlm::new();
        for h in 0..sources {
            cron.add_entry(CronEntry {
                domain: format!("hospital{h:02}"),
                user: "admin".into(),
                hour: 2, // every night at 02:00 — cron knows no windows
                rule: CronRule::PushTo {
                    scope: LogicalPath::parse(&format!("/h{h:02}")).unwrap(),
                    dst_resource: "archiver-disk".into(),
                },
            });
        }
        // Grid mutation needs the grid out of the engine: use grid_mut.
        let from = SimTime::ZERO;
        let to = SimTime::from_days(14);
        cron.run_between(d.grid_mut(), from, to);
        let s = cron.stats();
        let violations = d
            .grid()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::ObjectReplicated && !matches!(e.time.day_of_week(), 5 | 6))
            .count();
        rows.push(vec![
            format!("{sources}"),
            "cron scripts (02:00 nightly)".into(),
            "done (no status API)".into(),
            format!("{:.1}", s.bytes_moved as f64 / 1e9),
            violations.to_string(),
            "0".into(),
        ]);
    }
    print_table(
        "E2: imploding star (hospitals → archiver), DfMS vs cron",
        &["hospitals", "system", "final status", "GB moved", "window violations", "provenance records"],
        &rows,
    );
}

/// E3 — §2.1 exploding star: staged tier replication.
fn e3_exploding_star() {
    let mut rows = Vec::new();
    for (t1, t2) in [(2u32, 2u32), (4, 3)] {
        let topology = GridBuilder::preset(GridPreset::Tiered { tier1: t1, tier2_per_tier1: t2 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_by_name("tier0").unwrap()));
        users.make_admin("u").unwrap();
        let mut d = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 3));
        let mut seed = FlowBuilder::sequential("seed")
            .step("mk", DglOperation::CreateCollection { path: "/run".into() });
        for e in 0..4 {
            seed = seed.step(
                format!("e{e}"),
                DglOperation::Ingest { path: format!("/run/evt{e}"), size: "1000000000".into(), resource: "tier0-pfs".into() },
            );
        }
        d.submit_flow("u", seed.build().unwrap()).unwrap();
        d.pump();
        let seeded_bytes = d.metrics().bytes_moved;
        let tiers = vec![
            TierSpec {
                label: "tier1".into(),
                fanout: (0..t1).map(|i| ("tier0-pfs".to_owned(), format!("tier1-{i}-disk"))).collect(),
            },
            TierSpec {
                label: "tier2".into(),
                fanout: (0..t1)
                    .flat_map(|i| (0..t2).map(move |j| (format!("tier1-{i}-disk"), format!("tier2-{i}-{j}-disk"))))
                    .collect(),
            },
        ];
        let star = exploding_star_flow(d.grid(), &LogicalPath::parse("/run").unwrap(), &tiers).unwrap();
        let start = d.now();
        let txn = d.submit_flow("u", star).unwrap();
        // Sample when tier-1 finished: poll status of stage 0.
        let mut tier1_done: Option<SimTime> = None;
        loop {
            let before = d.now();
            if d.pump_until(before + Duration::from_secs(30)) == 0 && d.status(&txn, None).unwrap().state.is_terminal() {
                break;
            }
            if tier1_done.is_none() {
                if let Ok(s) = d.status(&txn, Some("/0")) {
                    if s.state == RunState::Completed {
                        tier1_done = Some(d.now());
                    }
                }
            }
            if d.status(&txn, None).unwrap().state.is_terminal() {
                break;
            }
        }
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        maybe_dump_metrics(&format!("E3 shape=T1:{t1},T2:{t2}"), &d);
        let moved = (d.metrics().bytes_moved - seeded_bytes) as f64 / 1e9;
        let replicas = d.grid().stats().replicas / d.grid().stats().objects;
        rows.push(vec![
            format!("T1={t1}, T2/T1={t2}"),
            format!("{}", tier1_done.map(|t| t.since(start)).unwrap_or(Duration::ZERO)),
            format!("{}", d.now().since(start)),
            format!("{moved:.1}"),
            replicas.to_string(),
        ]);
    }
    print_table(
        "E3: exploding star (4 GB dataset staged through tiers)",
        &["shape", "tier-1 complete", "total makespan", "GB moved", "replicas/object"],
        &rows,
    );
}

/// E4 — §2.2 triggers: event-storm throughput, ordering, cascades.
fn e4_triggers() {
    let mut rows = Vec::new();
    for (events, trigger_count) in [(200usize, 1usize), (200, 10), (200, 100), (2_000, 10)] {
        let mut d = mesh_dfms(1, PlannerKind::CostBased, 4);
        for t in 0..trigger_count {
            d.triggers_mut().register(
                Trigger::new(
                    format!("t{t}"),
                    "u",
                    LogicalPath::parse("/in").unwrap(),
                    TriggerAction::Notify(format!("t{t}: ${{event.path}}")),
                )
                .on(&[EventKind::ObjectIngested])
                .when(Expr::parse("object.size > 50").unwrap()),
            );
        }
        let mut b = FlowBuilder::sequential("storm")
            .step("mk", DglOperation::CreateCollection { path: "/in".into() });
        for i in 0..events {
            b = b.step(
                format!("p{i}"),
                DglOperation::Ingest { path: format!("/in/f{i}"), size: "100".into(), resource: "site0-disk".into() },
            );
        }
        let wall = Instant::now();
        d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let stats = d.triggers().stats();
        maybe_dump_metrics(&format!("E4a events={events} triggers={trigger_count}"), &d);
        rows.push(vec![
            format!("{events}"),
            format!("{trigger_count}"),
            format!("{}", stats.fired),
            format!("{wall_ms:.1}"),
            format!("{:.0}", stats.events_seen as f64 / (wall_ms / 1e3)),
        ]);
    }
    print_table(
        "E4a: trigger event storms",
        &["events", "triggers", "firings", "wall ms", "events/s"],
        &rows,
    );

    // Cascade-depth ablation: a trigger whose flow re-ingests (a classic
    // feedback loop), suppressed at different depth limits.
    let mut rows = Vec::new();
    for max_depth in [1u32, 2, 4, 8] {
        let mut d = mesh_dfms(1, PlannerKind::CostBased, 4);
        *d.triggers_mut() = std::mem::take(d.triggers_mut()).with_max_depth(max_depth);
        let echo_flow = FlowBuilder::sequential("echo")
            .add_step(
                Step::new(
                    "again",
                    DglOperation::Ingest { path: "${event.path}-x".into(), size: "10".into(), resource: "site0-disk".into() },
                )
                .with_error_policy(ErrorPolicy::Ignore),
            )
            .build()
            .unwrap();
        d.triggers_mut().register(
            Trigger::new("echo", "u", LogicalPath::root(), TriggerAction::Flow(echo_flow))
                .on(&[EventKind::ObjectIngested]),
        );
        let flow = FlowBuilder::sequential("seed")
            .step("p", DglOperation::Ingest { path: "/seed".into(), size: "10".into(), resource: "site0-disk".into() })
            .build()
            .unwrap();
        d.submit_flow("u", flow).unwrap();
        d.pump();
        let stats = d.triggers().stats();
        rows.push(vec![
            max_depth.to_string(),
            stats.fired.to_string(),
            stats.suppressed_by_depth.to_string(),
            d.grid().stats().objects.to_string(),
        ]);
    }
    print_table(
        "E4b: cascade control (self-feeding trigger)",
        &["depth limit", "fired", "suppressed", "objects created"],
        &rows,
    );

    // Ordering-policy ablation: two users' triggers race on the same
    // event; under non-transactional semantics the policy decides whose
    // effect lands first — observable in the final state.
    let mut rows = Vec::new();
    for (label, policy) in [
        ("registration", OrderingPolicy::Registration),
        ("priority", OrderingPolicy::Priority),
        ("owner-rank [bob, alice]", OrderingPolicy::OwnerRank(vec!["bob".into(), "alice".into()])),
    ] {
        let mut d = mesh_dfms(1, PlannerKind::CostBased, 4);
        let home = d.grid().topology().domain_ids().next().unwrap();
        d.grid_mut().users_mut().register(Principal::new("alice", home));
        d.grid_mut().users_mut().register(Principal::new("bob", home));
        d.grid_mut().users_mut().make_admin("alice").unwrap();
        d.grid_mut().users_mut().make_admin("bob").unwrap();
        *d.triggers_mut() = std::mem::take(d.triggers_mut()).with_policy(policy);
        // Both triggers stamp the same metadata attribute; last writer is
        // whoever the policy fires second.
        for (owner, priority) in [("alice", 1), ("bob", 10)] {
            let stamp = FlowBuilder::sequential("stamp")
                .step(
                    "tag",
                    DglOperation::SetMetadata { path: "${event.path}".into(), attribute: "stamped-by".into(), value: owner.into() },
                )
                .build()
                .unwrap();
            d.triggers_mut().register(
                Trigger::new(format!("{owner}-stamp"), owner, LogicalPath::root(), TriggerAction::Flow(stamp))
                    .on(&[EventKind::ObjectIngested])
                    .with_priority(priority),
            );
        }
        let flow = FlowBuilder::sequential("seed")
            .step("p", DglOperation::Ingest { path: "/contested".into(), size: "1".into(), resource: "site0-disk".into() })
            .build()
            .unwrap();
        d.submit_flow("u", flow).unwrap();
        d.pump();
        let final_stamp = d
            .grid()
            .stat_object(&LogicalPath::parse("/contested").unwrap())
            .unwrap()
            .metadata
            .iter()
            .rfind(|t| t.attribute == "stamped-by")
            .map(|t| t.value.clone())
            .unwrap_or_default();
        rows.push(vec![label.to_string(), final_stamp]);
    }
    print_table(
        "E4c: trigger ordering policy decides the last writer (§2.2)",
        &["policy", "final stamped-by"],
        &rows,
    );
}

/// E5 — §2.3 planners on a data-intensive workload, plus cost-term
/// ablation.
fn e5_planners() {
    let run = |planner: PlannerKind, weights: Option<CostWeights>| {
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 4 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        users.make_admin("u").unwrap();
        let mut scheduler = Scheduler::new(planner, 42);
        if let Some(w) = weights {
            scheduler = scheduler.with_weights(w);
        }
        let mut d = Dfms::new(DataGrid::new(topology, users), scheduler);
        seed_inputs(&mut d, 8, 2_000_000_000);
        let seeded = d.metrics().bytes_moved;
        let start = d.now();
        let txn = d.submit_flow("u", analysis_flow("e5", 8, 300)).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        maybe_dump_metrics(&format!("E5a planner={planner}"), &d);
        let moved = (d.metrics().bytes_moved - seeded) as f64 / 1e9;
        (moved, d.now().since(start))
    };
    let mut rows = Vec::new();
    for planner in PlannerKind::ALL {
        let (moved, makespan) = run(planner, None);
        rows.push(vec![planner.to_string(), format!("{moved:.1}"), format!("{makespan}")]);
    }
    print_table(
        "E5a: planners on 8×(2 GB input, 300 s) tasks, data at site0",
        &["planner", "GB moved", "makespan"],
        &rows,
    );

    // Ablation needs a real trade-off: the data sits next to a *slow*
    // cluster; a fast cluster is one WAN hop away. Makespan-weights move
    // the data; data-movement-weights stay local and run slow.
    let run_hetero = |weights: CostWeights| {
        let mut builder = GridBuilder::new();
        let slow = builder.add_site("slowsite", 32);
        let fast = builder.add_site("fastsite", 32);
        builder.wan_link(slow, fast);
        let topology = {
            let mut t = builder.build();
            let slow_cluster = t.domain(slow).compute[0];
            let fast_cluster = t.domain(fast).compute[0];
            t.compute_mut(slow_cluster).speed = 0.1; // 10× slower
            t.compute_mut(fast_cluster).speed = 2.0;
            t
        };
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", slow));
        users.make_admin("u").unwrap();
        let mut d = Dfms::new(
            DataGrid::new(topology, users),
            Scheduler::new(PlannerKind::CostBased, 42).with_weights(weights),
        );
        // 2 GB of input at the slow site.
        let seed = FlowBuilder::sequential("seed")
            .step("mk", DglOperation::CreateCollection { path: "/data".into() })
            .step("put", DglOperation::Ingest { path: "/data/in0".into(), size: "2000000000".into(), resource: "slowsite-pfs".into() })
            .build()
            .unwrap();
        d.submit_flow("u", seed).unwrap();
        d.pump();
        let seeded = d.metrics().bytes_moved;
        let start = d.now();
        let txn = d.submit_flow("u", analysis_flow("e5b", 1, 600)).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        let moved = (d.metrics().bytes_moved - seeded) as f64 / 1e9;
        (moved, d.now().since(start))
    };
    let mut rows = Vec::new();
    for (label, weights) in [
        ("balanced (default)", CostWeights::default()),
        ("makespan-only", CostWeights::makespan_only()),
        ("data-movement-only", CostWeights::data_only()),
    ] {
        let (moved, makespan) = run_hetero(weights);
        rows.push(vec![label.to_string(), format!("{moved:.1}"), format!("{makespan}")]);
    }
    print_table(
        "E5b: cost-term ablation (2 GB input at a 10x-slow site; fast site one hop away)",
        &["weights", "GB moved", "makespan"],
        &rows,
    );
}

/// E6 — §2.3 late vs early binding under resource churn.
fn e6_binding() {
    let run = |mode: BindingMode, mtbf_hours: u64, seed: u64| {
        let mut d = mesh_dfms(4, PlannerKind::RoundRobin, seed);
        d.set_binding_mode(mode);
        let tasks = 24;
        let flow = {
            let mut b = FlowBuilder::sequential("churny");
            for i in 0..tasks {
                b = b.add_step(
                    Step::new(
                        format!("t{i}"),
                        DglOperation::Execute { code: format!("j{i}"), nominal_secs: "120".into(), resource_type: None, inputs: vec![], outputs: vec![] },
                    )
                    .with_error_policy(ErrorPolicy::Retry(1)),
                );
            }
            b.build().unwrap()
        };
        let plan = if mtbf_hours == 0 {
            FailurePlan::none()
        } else {
            FailurePlan::generate(
                d.grid().topology(),
                Duration::from_days(2),
                Duration::from_hours(mtbf_hours),
                Duration::from_hours(1),
                seed,
            )
        };
        let txn = d.submit_flow("u", flow).unwrap();
        // Interleave failure events with engine pumping.
        let mut cursor = SimTime::ZERO;
        let state = loop {
            let next = cursor + Duration::from_secs(60);
            d.pump_until(next);
            let events = plan.apply_between(d.grid_mut().topology_mut(), cursor, next);
            let _ = events;
            cursor = next;
            let state = d.status(&txn, None).unwrap().state;
            if state.is_terminal() {
                break state;
            }
            if cursor > SimTime::from_days(2) {
                break d.status(&txn, None).unwrap().state;
            }
        };
        maybe_dump_metrics(&format!("E6 {mode:?} mtbf={mtbf_hours}h seed={seed}"), &d);
        state
    };
    let mut rows = Vec::new();
    for (label, mtbf) in [("no churn", 0u64), ("MTBF 8h", 8), ("MTBF 1h", 1)] {
        let mut late_ok = 0;
        let mut early_ok = 0;
        let trials = 5;
        for seed in 0..trials {
            if run(BindingMode::Late, mtbf, seed) == RunState::Completed {
                late_ok += 1;
            }
            if run(BindingMode::Early, mtbf, seed) == RunState::Completed {
                early_ok += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            format!("{late_ok}/{trials}"),
            format!("{early_ok}/{trials}"),
        ]);
    }
    print_table(
        "E6: 24-task workflows completing under churn (late vs early binding, retry=1)",
        &["churn", "late binding", "early binding"],
        &rows,
    );
}

/// E7 — §2.3 virtual data: derivation reuse.
fn e7_virtual_data() {
    let mut rows = Vec::new();
    for reuse_pct in [0usize, 25, 50, 75, 100] {
        let mut d = mesh_dfms(2, PlannerKind::CostBased, 5);
        seed_inputs(&mut d, 8, 1_000);
        let tasks = 8;
        let repeated = tasks * reuse_pct / 100;
        // First wave derives `repeated` of the products.
        if repeated > 0 {
            let txn = d.submit_flow("u", analysis_flow("warm", repeated, 600)).unwrap();
            d.pump();
            assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        }
        // Second wave derives all 8 — the warm ones should be skipped.
        // (Same codes+inputs for the first `repeated`, new for the rest.)
        let mut b = FlowBuilder::sequential("wave2");
        for i in 0..tasks {
            let (code, out) = if i < repeated {
                (format!("warm-job{i}"), format!("/data/warm-out{i}"))
            } else {
                (format!("cold-job{i}"), format!("/data/cold-out{i}"))
            };
            b = b.step(
                format!("t{i}"),
                DglOperation::Execute {
                    code,
                    nominal_secs: "600".into(),
                    resource_type: None,
                    inputs: vec![format!("/data/in{i}")],
                    outputs: vec![(out, "1000".into())],
                },
            );
        }
        let start = d.now();
        let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        maybe_dump_metrics(&format!("E7 reuse={reuse_pct}%"), &d);
        let (hits, _misses) = d.catalog().stats();
        rows.push(vec![
            format!("{reuse_pct}%"),
            format!("{}", d.metrics().steps_skipped_virtual),
            format!("{hits}"),
            format!("{}", d.now().since(start)),
        ]);
    }
    print_table(
        "E7: virtual data (8 × 600 s derivations, varying reuse)",
        &["reuse", "derivations skipped", "catalog hits", "wave-2 makespan"],
        &rows,
    );
}

/// E8 — replica selection: more replicas, shorter transfers.
fn e8_replicas() {
    let mut rows = Vec::new();
    for replicas in [1usize, 2, 4, 8] {
        // A consumer site connected to 8 provider sites over links of
        // increasing bandwidth: provider k gets 10*(k+1) MB/s. Replicas
        // are placed slowest-provider-first, so each added replica opens
        // a faster path for the DGMS replica selector.
        let mut builder = GridBuilder::new();
        let consumer = builder.add_site("consumer", 8);
        let providers: Vec<_> = (0..8).map(|k| builder.add_leaf_site(&format!("prov{k}"))).collect();
        for (k, p) in providers.iter().enumerate() {
            builder.link(*p, consumer, Duration::from_millis(40), (10 + 10 * k as u64) * 1_000_000);
        }
        let topology = builder.build();
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", consumer));
        users.make_admin("u").unwrap();
        let mut d = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 6));
        let mut b = FlowBuilder::sequential("seed")
            .step("put", DglOperation::Ingest { path: "/big".into(), size: "4000000000".into(), resource: "prov0-disk".into() });
        for r in 1..replicas {
            b = b.step(
                format!("cp{r}"),
                DglOperation::Replicate { path: "/big".into(), src: Some("prov0-disk".into()), dst: format!("prov{r}-disk") },
            );
        }
        d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();
        let consume = FlowBuilder::sequential("consume")
            .step("cp", DglOperation::Replicate { path: "/big".into(), src: None, dst: "consumer-disk".into() })
            .build()
            .unwrap();
        let start = d.now();
        let txn = d.submit_flow("u", consume).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        maybe_dump_metrics(&format!("E8 replicas={replicas}"), &d);
        rows.push(vec![replicas.to_string(), format!("{}", d.now().since(start))]);
    }
    print_table(
        "E8: replica selection (4 GB to the consumer; replica k sits behind a 10(k+1) MB/s link)",
        &["replicas available", "transfer time"],
        &rows,
    );
}

/// E9 — provenance capture overhead and query latency vs log size.
fn e9_provenance() {
    let mut rows = Vec::new();
    for steps in [1_000usize, 10_000, 50_000] {
        let mut d = mesh_dfms(1, PlannerKind::CostBased, 9);
        let txn = d.submit_flow("u", notify_flow("p", steps)).unwrap();
        d.pump();
        assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        maybe_dump_metrics(&format!("E9 steps={steps}"), &d);
        let records = d.provenance().len();
        let wall = Instant::now();
        let hits = d.provenance().query(&ProvenanceQuery::transaction(&txn)).len();
        let query_us = wall.elapsed().as_secs_f64() * 1e6;
        let wall = Instant::now();
        let snapshot = d.provenance().snapshot();
        let snap_ms = wall.elapsed().as_secs_f64() * 1e3;
        let wall = Instant::now();
        let restored = ProvenanceStore::restore(&snapshot).unwrap();
        let restore_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert_eq!(restored.len(), records);
        // The restart memo: has this lineage already completed a step
        // at this node? Probed with a step from the middle of the log.
        let probe = &d.provenance().records()[records / 2];
        assert!(d.provenance().step_completed(&probe.lineage, &probe.node));
        let memo_ns = 1e3
            * time_per_iter(100_000, || {
                std::hint::black_box(
                    d.provenance().step_completed(std::hint::black_box(&probe.lineage), &probe.node),
                );
            });
        rows.push(vec![
            records.to_string(),
            hits.to_string(),
            format!("{query_us:.0}"),
            format!("{:.1}", snapshot.len() as f64 / 1e6),
            format!("{snap_ms:.1}"),
            format!("{restore_ms:.1}"),
            format!("{memo_ns:.0}"),
        ]);
    }
    print_table(
        "E9: provenance store scaling",
        &["records", "query hits", "query µs", "snapshot MB", "snapshot ms", "restore ms", "memo lookup ns"],
        &rows,
    );
}

/// E10 — §3.1 lifecycle + §5 client-side contrast: work lost on
/// interruption.
fn e10_lifecycle() {
    let steps = 20usize;
    let mut rows = Vec::new();
    for stop_frac in [25usize, 50, 75] {
        let stop_after = steps * stop_frac / 100;
        // --- DfMS: stop mid-run, restart, count re-executed steps. ------
        let mut d = mesh_dfms(2, PlannerKind::CostBased, 10);
        let flow = {
            let mut b = FlowBuilder::sequential("work");
            for i in 0..steps {
                b = b.step(
                    format!("s{i}"),
                    DglOperation::Ingest { path: format!("/f{i}"), size: "80000000".into(), resource: "site0-disk".into() },
                );
            }
            b.build().unwrap()
        };
        let txn = d.submit_flow("u", flow.clone()).unwrap();
        // Each step ≈ 1 s; stop after `stop_after` steps' worth of time.
        d.pump_until(SimTime::from_secs(stop_after as u64) + Duration::from_millis(500));
        let done_before = d.status(&txn, None).unwrap().steps_completed;
        d.stop(&txn).unwrap();
        d.pump();
        let txn2 = d.restart(&txn).unwrap();
        let executed_before = d.metrics().steps_executed;
        d.pump();
        assert_eq!(d.status(&txn2, None).unwrap().state, RunState::Completed);
        maybe_dump_metrics(&format!("E10 stop={stop_frac}%"), &d);
        let re_executed = d.metrics().steps_executed - executed_before;
        let skipped = d.metrics().steps_skipped_restart;
        rows.push(vec![
            format!("{stop_frac}%"),
            "DfMS stop+restart".into(),
            done_before.to_string(),
            skipped.to_string(),
            re_executed.to_string(),
        ]);

        // --- client-side engine: crash loses the bookmark. --------------
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        users.make_admin("u").unwrap();
        let mut grid = DataGrid::new(topology, users);
        let mut client = ClientSideEngine::new("u");
        let (s1, t1) = client.run(&mut grid, &flow, SimTime::ZERO, Some(ClientCrash { after_steps: stop_after }));
        assert!(!s1.completed);
        client.crash_and_restart();
        let (s2, _) = client.run(&mut grid, &flow, t1, None);
        assert!(s2.completed);
        rows.push(vec![
            format!("{stop_frac}%"),
            "client-side crash+rerun".into(),
            s1.steps_executed.to_string(),
            "0".into(),
            s2.steps_executed.to_string(),
        ]);
    }
    print_table(
        "E10: interruption recovery on a 20-step flow",
        &["interrupted at", "system", "steps done before", "steps skipped on recovery", "steps executed on recovery"],
        &rows,
    );
}

/// E11 — the §4 prototype runs, end to end.
fn e11_prototypes() {
    let mut rows = Vec::new();
    // UCSD Libraries MD5 integrity pipeline.
    {
        let mut d = mesh_dfms(2, PlannerKind::CostBased, 11);
        let mut b = FlowBuilder::sequential("ucsd")
            .step("mk", DglOperation::CreateCollection { path: "/lib".into() });
        for i in 0..10 {
            b = b
                .step(format!("put{i}"), DglOperation::Ingest { path: format!("/lib/d{i}"), size: "20000000".into(), resource: "site0-disk".into() })
                .step(format!("sum{i}"), DglOperation::Checksum { path: format!("/lib/d{i}"), resource: None, register: true })
                .step(format!("cp{i}"), DglOperation::Replicate { path: format!("/lib/d{i}"), src: None, dst: "site1-disk".into() });
        }
        d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();
        d.grid_mut().corrupt_replica(&LogicalPath::parse("/lib/d4").unwrap(), "site1-disk").unwrap();
        let sweep = FlowBuilder::for_each_in_collection("sweep", "f", "/lib")
            .add_step(
                Step::new("verify", DglOperation::Checksum { path: "${f}".into(), resource: Some("site1-disk".into()), register: false })
                    .with_error_policy(ErrorPolicy::Ignore),
            )
            .build()
            .unwrap();
        let txn = d.submit_flow("u", sweep).unwrap();
        d.pump();
        let mismatches = d.grid().events().iter().filter(|e| e.kind == EventKind::ChecksumMismatch).count();
        maybe_dump_metrics("E11 ucsd-md5", &d);
        rows.push(vec![
            "UCSD MD5 integrity".into(),
            d.status(&txn, None).unwrap().state.to_string(),
            format!("{}", d.metrics().dgms_ops),
            format!("{:.2}", d.metrics().bytes_moved as f64 / 1e9),
            format!("{}", d.now()),
            format!("{mismatches} corruption(s) found"),
        ]);
    }
    // SCEC ingest + derive pipeline.
    {
        let mut d = mesh_dfms(3, PlannerKind::CostBased, 12);
        let mut b = FlowBuilder::sequential("scec")
            .step("mk", DglOperation::CreateCollection { path: "/scec".into() });
        for i in 0..4 {
            b = b
                .step(format!("in{i}"), DglOperation::Ingest { path: format!("/scec/w{i}"), size: "2000000000".into(), resource: "site0-pfs".into() })
                .step(
                    format!("dv{i}"),
                    DglOperation::Execute {
                        code: format!("pgm{i}"),
                        nominal_secs: "1800".into(),
                        resource_type: None,
                        inputs: vec![format!("/scec/w{i}")],
                        outputs: vec![(format!("/scec/pgm{i}"), "50000000".into())],
                    },
                )
                .step(format!("ar{i}"), DglOperation::Replicate { path: format!("/scec/pgm{i}"), src: None, dst: "site1-archive".into() });
        }
        let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();
        rows.push(vec![
            "SCEC ingest+derive".into(),
            d.status(&txn, None).unwrap().state.to_string(),
            format!("{}", d.metrics().dgms_ops),
            format!("{:.2}", d.metrics().bytes_moved as f64 / 1e9),
            format!("{}", d.now()),
            format!("{} exec tasks", d.metrics().exec_tasks),
        ]);
    }
    print_table(
        "E11: the paper's §4 prototype runs",
        &["pipeline", "status", "DGMS ops", "GB moved", "simulated time", "notes"],
        &rows,
    );
}
