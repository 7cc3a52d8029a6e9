//! `history_soak`: waves of flows at fixed concurrency through one
//! in-process engine — no XML, no journal, no server — while history
//! piles up.
//!
//! Each wave submits `wave_flows` flows of one create plus
//! `steps - 1` notify steps with `Dfms::submit_flow`, pumps the engine
//! until they finish, then asks for the status of flows picked at
//! random from all history. A wave is one measurement window.

use crate::layers::{probe_obs, Ledger, PhaseDelta};
use crate::report::{median, ms, Counts, Rep, Window};
use crate::setup::{create_then_notify, digest, mesh_engine, tag, timed, Rng, DIGEST_INIT, USER};
use crate::sys::{peak_rss_kb, rss_kb, NoiseMark};
use datagridflows::dgl::parse_request;
use datagridflows::obs::allocations;
use datagridflows::prelude::*;
use std::time::Instant;

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-ups per repetition (each builds an engine and runs one
    /// untimed warm-up wave; the last one is measured).
    pub setups: usize,
    /// Measured waves.
    pub waves: usize,
    /// Flows in flight per wave.
    pub wave_flows: usize,
    /// Steps per flow: one create plus `steps - 1` notifies.
    pub steps: usize,
    /// Status queries after each wave.
    pub queries_per_wave: usize,
}

impl Config {
    /// The benchmark's shape: ROADMAP's 500 flows in flight, 20 steps
    /// each.
    pub const STANDARD: Config = Config { setups: 3, waves: 8, wave_flows: 500, steps: 20, queries_per_wave: 64 };
    /// A scaled-down shape for the determinism self-check.
    pub const SMALL: Config = Config { setups: 1, waves: 4, wave_flows: 20, steps: 5, queries_per_wave: 4 };
}

fn wave_flow(tag: &str, wave: &str, i: usize, steps: usize) -> Flow {
    create_then_notify(
        &format!("{tag}-{wave}-f{i}"),
        format!("/soak/{tag}/{wave}f{i}"),
        steps - 1,
        &format!("{tag}/{wave}/{i}"),
    )
}

fn wave_flows(cfg: &Config, tag: &str, wave: &str) -> Vec<Flow> {
    (0..cfg.wave_flows).map(|i| wave_flow(tag, wave, i, cfg.steps)).collect()
}

/// Build an engine, create the collection roots, and run one warm-up
/// wave.
fn set_up(cfg: &Config, seed: u64, tag: &str, rep: &mut Rep) -> Dfms {
    let mut d = mesh_engine(1, seed);
    let roots = FlowBuilder::sequential("roots")
        .step("soak", DglOperation::CreateCollection { path: "/soak".into() })
        .step("tag", DglOperation::CreateCollection { path: format!("/soak/{tag}") })
        .build()
        .expect("generated flow is valid");
    let mut txns = Vec::new();
    // The roots must exist before the warm-up wave creates under them.
    for batch in [vec![roots], wave_flows(cfg, tag, "warm")] {
        for flow in batch {
            match d.submit_flow(USER, flow) {
                Ok(txn) => txns.push(txn),
                Err(e) => rep.check(false, || format!("set-up submit refused: {e}")),
            }
        }
        d.pump();
    }
    for txn in &txns {
        let state = d.status(txn, None).map(|s| s.state);
        rep.check(state == Ok(RunState::Completed), || format!("set-up flow {txn} ended {state:?}"));
    }
    d
}

/// Run one repetition.
pub fn run(cfg: &Config, seed: u64, trace: bool) -> Rep {
    let mut rep = Rep::new("history_soak");
    let tag = tag(seed);
    // Earlier set-ups stay alive until the end, so the measured engine
    // never reuses their freed pages and RSS growth stays honest.
    let mut kept = Vec::new();
    for _ in 0..cfg.setups {
        let (d, secs) = timed(|| set_up(cfg, seed, &tag, &mut rep));
        rep.setup_s.push(secs);
        kept.push(d);
    }
    let mut d = kept.pop().expect("at least one set-up");

    let mut rng = Rng::new(seed, 1);
    let mut mix = digest(DIGEST_INIT, &tag);
    let quarter = (cfg.waves / 4).max(1);
    let wave_steps = (cfg.wave_flows * cfg.steps) as u64;
    let mut txns: Vec<String> = Vec::new();
    let mut pump_s = Vec::new();
    let mut pump_allocs = 0u64;
    let mut calls_s = 0.0;
    let mut in_pumps = PhaseDelta::default();
    let prof0 = trace.then(|| d.profile_snapshot());
    let noise0 = NoiseMark::now();
    let started = Instant::now();
    for w in 0..cfg.waves {
        let flows = wave_flows(cfg, &tag, &format!("w{w}"));
        let wave_start = Instant::now();
        for flow in flows {
            let t = Instant::now();
            let submitted = d.submit_flow(USER, flow);
            let took = t.elapsed();
            rep.submit_ms.push(ms(took));
            calls_s += took.as_secs_f64();
            match submitted {
                Ok(txn) => {
                    rep.attempted += 1;
                    txns.push(txn);
                }
                Err(e) => rep.check(false, || format!("submit refused: {e}")),
            }
        }
        let before = trace.then(|| d.profile_snapshot());
        let allocs0 = allocations();
        let t = Instant::now();
        d.pump();
        let took = t.elapsed();
        pump_allocs += allocations() - allocs0;
        let wall = wave_start.elapsed();
        if let Some(before) = before {
            in_pumps.add(&PhaseDelta::between(&before, &d.profile_snapshot()));
        }
        calls_s += took.as_secs_f64();
        pump_s.push(took.as_secs_f64());
        rep.windows.push(Window { flows: cfg.wave_flows as u64, steps: wave_steps, wall_s: wall.as_secs_f64() });

        for _ in 0..cfg.queries_per_wave {
            let txn = &txns[rng.below(txns.len())];
            mix = digest(mix, txn);
            let t = Instant::now();
            let status = d.status(txn, None);
            let took = t.elapsed();
            rep.query_ms.push(ms(took));
            calls_s += took.as_secs_f64();
            let state = status.map(|s| s.state);
            rep.check(state == Ok(RunState::Completed), || format!("status of {txn}: {state:?}"));
        }
        if w + 1 == quarter {
            rep.rss_early_kb = rss_kb();
        }
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.noise = noise0.until(&NoiseMark::now(), 0);
    rep.rss_late_kb = rss_kb();
    rep.peak_rss_kb = peak_rss_kb();
    rep.flows_between = ((cfg.waves - quarter) * cfg.wave_flows) as u64;

    // Output checks: every flow completed, one step provenance record
    // per step run (flow nodes get a record of their own on top).
    for txn in &txns {
        let state = d.status(txn, None).map(|s| s.state);
        rep.fail_unless(state == Ok(RunState::Completed), || format!("flow {txn} ended {state:?}"));
    }
    let metrics = d.metrics();
    let records = d.provenance().records();
    let step_records = records.iter().filter(|r| r.verb != "flow").count() as u64;
    rep.check(step_records == metrics.steps_executed, || {
        format!("{step_records} step provenance records for {} steps", metrics.steps_executed)
    });
    let records = records.len() as u64;
    rep.counts = Counts {
        steps: metrics.steps_executed,
        provenance_records: records,
        pump_allocs,
        mix_digest: mix,
        ..Counts::default()
    };

    if let Some(prof0) = prof0 {
        let measured_steps = wave_steps * cfg.waves as u64;
        let delta = PhaseDelta::between(&prof0, &d.profile_snapshot());
        let mut ledger = Ledger::default();
        ledger.add_calls("engine", calls_s, &delta);
        for (name, v) in ledger.rows(rep.wall_s) {
            rep.layer(&name, v);
        }
        for (name, v) in delta.per_step(measured_steps) {
            rep.layer(&name, v);
        }
        let per_step_us = |s: &[f64]| median(s) * 1e6 / wave_steps as f64;
        rep.layer("engine.submit_us", median(&rep.submit_ms) * 1e3);
        rep.layer("engine.pump_us_per_step.early", per_step_us(&pump_s[..quarter]));
        rep.layer("engine.pump_us_per_step.late", per_step_us(&pump_s[pump_s.len() - quarter..]));
        rep.layer("engine.allocs_per_step", pump_allocs as f64 / measured_steps as f64);
        let pump_total: f64 = pump_s.iter().sum();
        rep.layer("engine.unattributed_share", (pump_total - in_pumps.root_ns as f64 / 1e9) / pump_total);
        probe_layers(&mut rep, &d, cfg, &tag, &txns[txns.len() - cfg.wave_flows..]);
    }
    drop(kept);
    rep
}

/// Traced runs only: time single calls into the dgl, lint and obs
/// layers on the workload's own last wave, after the measured phase.
fn probe_layers(rep: &mut Rep, d: &Dfms, cfg: &Config, tag: &str, last: &[String]) {
    let flows = wave_flows(cfg, tag, &format!("w{}", cfg.waves - 1));
    let mut parse = Vec::new();
    let mut validate = Vec::new();
    let mut encode = Vec::new();
    for (flow, txn) in flows.into_iter().zip(last) {
        validate.push(timed(|| d.validate_flow(&flow, None)).1 * 1e6);
        let xml = DataGridRequest::flow(format!("probe-{txn}"), USER, flow).to_xml();
        let (parsed, secs) = timed(|| parse_request(&xml));
        rep.fail_unless(parsed.is_ok(), || format!("probe document for {txn} does not parse"));
        parse.push(secs * 1e6);
        if let Ok(report) = d.status(txn, None) {
            encode.push(timed(|| DataGridResponse::status(txn, report).to_xml()).1 * 1e6);
        }
    }
    rep.layer("dgl.parse_us", median(&parse));
    rep.layer("dgl.encode_us", median(&encode));
    rep.layer("lint.validate_us", median(&validate));
    probe_obs(rep, &[d], d.metrics().runs_completed);
    let scrapes: Vec<f64> = (0..5).map(|_| timed(|| d.telemetry_scrape()).1 * 1e3).collect();
    rep.layer("obs.scrape_ms", median(&scrapes));
}
