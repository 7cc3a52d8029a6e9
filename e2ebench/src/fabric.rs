//! `fabric_federated`: an in-memory 4-shard `Fabric` with prefix-owned
//! zones `/s0`..`/s3`.
//!
//! Each wave routes `wave_flows` asynchronous requests — half of them
//! cross-shard sequential compositions of two sub-flows in different
//! zones (one bus Delegate and one Ack per sub-flow), half single-shard
//! flows of the same step count — then pumps the federation to
//! quiescence and routes status queries for transactions picked at
//! random from all history. A wave is one measurement window.
//!
//! `Fabric::pump` rescans every federated run ever submitted on each
//! iteration, so a wave's cost grows with the federated history; the
//! run is sized so that this scan is visible (late windows) without
//! taking over the run.

use crate::layers::{probe_obs, Ledger, PhaseDelta};
use crate::report::{median, ms, Counts, Rep, Window};
use crate::setup::{create_then_notify, digest, mesh_engine, tag, timed, Rng, DIGEST_INIT, USER};
use crate::sys::{peak_rss_kb, rss_kb, NoiseMark};
use datagridflows::dgl::{parse_request, FlowStatusQuery, ResponseBody};
use datagridflows::obs::{allocations, Phase};
use datagridflows::prelude::*;
use std::time::Instant;

/// Engine shards in the federation.
pub const SHARDS: usize = 4;

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-ups per repetition (each builds a federation and runs one
    /// untimed warm-up wave; the last one is measured).
    pub setups: usize,
    /// Measured waves.
    pub waves: usize,
    /// Requests routed per wave; every other one is federated.
    pub wave_flows: usize,
    /// Steps per sub-flow (one create plus notifies). A federated flow
    /// has two sub-flows; a single-shard flow has the same step count.
    pub sub_steps: usize,
    /// Status queries after each wave.
    pub queries_per_wave: usize,
}

impl Config {
    /// The benchmark's shape.
    pub const STANDARD: Config = Config { setups: 3, waves: 8, wave_flows: 500, sub_steps: 5, queries_per_wave: 128 };
    /// A scaled-down shape for the determinism self-check.
    pub const SMALL: Config = Config { setups: 1, waves: 4, wave_flows: 16, sub_steps: 3, queries_per_wave: 4 };

    fn flow_steps(&self) -> u64 {
        2 * self.sub_steps as u64
    }
}

/// One routed flow: who answered and whether it federated.
struct Routed {
    shard: String,
    txn: String,
    federated: bool,
}

impl Routed {
    /// The id a status query routes on: federated ids are fabric-wide,
    /// engine ids collide across shards and must be qualified.
    fn query_id(&self) -> String {
        if self.federated {
            self.txn.clone()
        } else {
            format!("{}/{}", self.shard, self.txn)
        }
    }
}

/// The requests of one wave. Flow `j` is federated when `j` is even.
/// Zones rotate from seeded offsets, so every shard owns the same share
/// of first sub-flows, second sub-flows and single-shard flows whatever
/// the seed.
fn wave_requests(cfg: &Config, tag: &str, wave: &str, rng: &mut Rng) -> Vec<DataGridRequest> {
    let (offset, hop) = (rng.below(SHARDS), rng.below(SHARDS - 1));
    (0..cfg.wave_flows)
        .map(|j| {
            let a = (j / 2 + offset) % SHARDS;
            let name = format!("{tag}-{wave}-f{j}");
            let path = |zone: usize, part: &str| format!("/s{zone}/{tag}/{wave}f{j}{part}");
            let flow = if j % 2 == 0 {
                let b = (a + 1 + (j / 2 / SHARDS + hop) % (SHARDS - 1)) % SHARDS;
                FlowBuilder::sequential(&name)
                    .flow(create_then_notify(&format!("{name}a"), path(a, "a"), cfg.sub_steps - 1, &name))
                    .flow(create_then_notify(&format!("{name}b"), path(b, "b"), cfg.sub_steps - 1, &name))
                    .build()
                    .expect("generated flow is valid")
            } else {
                create_then_notify(&name, path(a, ""), 2 * cfg.sub_steps - 1, &name)
            };
            DataGridRequest::flow(format!("r-{name}"), USER, flow).asynchronous()
        })
        .collect()
}

/// Route one flow request; `None` (and a failed check) when refused.
fn route_flow(fabric: &mut Fabric, req: DataGridRequest, rep: &mut Rep) -> Option<Routed> {
    let id = req.id.clone();
    match fabric.route(req) {
        Ok((shard, response)) => {
            let accepted = matches!(&response.body, ResponseBody::Ack(ack) if ack.valid);
            rep.check(accepted, || format!("{id} refused by {shard}: {response:?}"));
            accepted.then(|| Routed { federated: shard == "fabric", txn: response.transaction().to_owned(), shard })
        }
        Err(e) => {
            rep.check(false, || format!("{id} unroutable: {e}"));
            None
        }
    }
}

/// Build a federation, create the zone roots, and run one warm-up wave.
fn set_up(cfg: &Config, seed: u64, tag: &str, rep: &mut Rep) -> Fabric {
    let mut fabric = Fabric::new();
    for i in 0..SHARDS {
        let zone = format!("/s{i}");
        fabric
            .add_shard(&format!("s{i}"), &[zone.as_str()], mesh_engine(1, seed.wrapping_add(i as u64)))
            .expect("fresh shard names and prefixes");
        let roots = FlowBuilder::sequential("roots")
            .step("zone", DglOperation::CreateCollection { path: zone.clone() })
            .step("tag", DglOperation::CreateCollection { path: format!("{zone}/{tag}") })
            .build()
            .expect("generated flow is valid");
        route_flow(&mut fabric, DataGridRequest::flow(format!("root-s{i}"), USER, roots).asynchronous(), rep);
    }
    // The roots must exist before the warm-up wave creates under them.
    if let Err(e) = fabric.pump() {
        rep.check(false, || format!("set-up pump failed: {e}"));
    }
    let mut rng = Rng::new(seed, 2);
    let warm: Vec<Routed> =
        wave_requests(cfg, tag, "warm", &mut rng).into_iter().filter_map(|r| route_flow(&mut fabric, r, rep)).collect();
    if let Err(e) = fabric.pump() {
        rep.check(false, || format!("set-up pump failed: {e}"));
    }
    for r in &warm {
        let state = final_state(&fabric, r);
        rep.check(state == Some(RunState::Completed), || format!("set-up flow {} ended {state:?}", r.query_id()));
    }
    fabric
}

fn final_state(fabric: &Fabric, r: &Routed) -> Option<RunState> {
    if r.federated {
        Some(fabric.federated_status(&r.txn).state)
    } else {
        fabric.engine(&r.shard)?.status(&r.txn, None).ok().map(|s| s.state)
    }
}

fn shard_engines(fabric: &Fabric) -> Vec<&Dfms> {
    fabric.shard_names().iter().filter_map(|name| fabric.engine(name)).collect()
}

/// The phase totals of every shard engine, summed.
fn shard_phases(fabric: &Fabric, base: Option<&[ProfileSnapshot]>) -> (PhaseDelta, Vec<ProfileSnapshot>) {
    let snaps: Vec<ProfileSnapshot> = shard_engines(fabric).iter().map(|d| d.profile_snapshot()).collect();
    let mut total = PhaseDelta::default();
    for (i, snap) in snaps.iter().enumerate() {
        match base {
            Some(base) => total.add(&PhaseDelta::between(&base[i], snap)),
            None => total.add(&PhaseDelta::of(snap)),
        }
    }
    (total, snaps)
}

fn shard_steps(fabric: &Fabric) -> Vec<u64> {
    shard_engines(fabric).iter().map(|d| d.metrics().steps_executed).collect()
}

/// Run one repetition.
pub fn run(cfg: &Config, seed: u64, trace: bool) -> Rep {
    let mut rep = Rep::new("fabric_federated");
    let tag = tag(seed);
    // Earlier set-ups stay alive until the end (see `history::run`).
    let mut kept = Vec::new();
    for _ in 0..cfg.setups {
        let (fabric, secs) = timed(|| set_up(cfg, seed, &tag, &mut rep));
        rep.setup_s.push(secs);
        kept.push(fabric);
    }
    let mut fabric = kept.pop().expect("at least one set-up");

    let mut rng = Rng::new(seed, 3);
    let mut mix = digest(DIGEST_INIT, &tag);
    let quarter = (cfg.waves / 4).max(1);
    let wave_steps = cfg.wave_flows as u64 * cfg.flow_steps();
    let mut routed: Vec<Routed> = Vec::new();
    let mut pump_s = Vec::new();
    let mut wave_step_exec_ns = Vec::new();
    let mut pump_allocs = 0u64;
    let mut calls_s = 0.0;
    let mut in_pumps = PhaseDelta::default();
    let steps0 = trace.then(|| shard_steps(&fabric));
    let deliveries0 = fabric.deliveries();
    let prof0 = trace.then(|| shard_phases(&fabric, None).1);
    let noise0 = NoiseMark::now();
    let started = Instant::now();
    for w in 0..cfg.waves {
        let requests = wave_requests(cfg, &tag, &format!("w{w}"), &mut rng);
        let wave_start = Instant::now();
        for req in requests {
            mix = digest(mix, &req.id);
            let t = Instant::now();
            let r = route_flow(&mut fabric, req, &mut rep);
            let took = t.elapsed();
            rep.submit_ms.push(ms(took));
            calls_s += took.as_secs_f64();
            routed.extend(r);
        }
        let before = trace.then(|| shard_phases(&fabric, None).1);
        let allocs0 = allocations();
        let t = Instant::now();
        let pumped = fabric.pump();
        let took = t.elapsed();
        pump_allocs += allocations() - allocs0;
        let wall = wave_start.elapsed();
        if let Some(before) = before {
            let delta = shard_phases(&fabric, Some(&before)).0;
            wave_step_exec_ns.push(delta.incl_of(Phase::StepExecute) as f64);
            in_pumps.add(&delta);
        }
        if let Err(e) = pumped {
            rep.check(false, || format!("pump of wave {w} failed: {e}"));
        }
        calls_s += took.as_secs_f64();
        pump_s.push(took.as_secs_f64());
        rep.windows.push(Window { flows: cfg.wave_flows as u64, steps: wave_steps, wall_s: wall.as_secs_f64() });

        for q in 0..cfg.queries_per_wave {
            let id = routed[rng.below(routed.len())].query_id();
            mix = digest(mix, &id);
            let req = DataGridRequest::status(format!("q{w}-{q}"), USER, FlowStatusQuery::whole(&id));
            let t = Instant::now();
            let answer = fabric.route(req);
            let took = t.elapsed();
            rep.query_ms.push(ms(took));
            calls_s += took.as_secs_f64();
            let state = match answer {
                Ok((_, DataGridResponse { body: ResponseBody::Status(s), .. })) => Some(s.state),
                _ => None,
            };
            rep.check(state == Some(RunState::Completed), || format!("status of {id}: {state:?}"));
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

    // Output checks: every federated transaction terminal and
    // Completed via `federated_status`, every single-shard flow
    // Completed, and one Delegate plus one Ack per sub-flow.
    let mut status_us = Vec::new();
    let mut federated = 0u64;
    for r in &routed {
        let state = if r.federated {
            federated += 1;
            let (report, secs) = timed(|| fabric.federated_status(&r.txn));
            status_us.push(secs * 1e6);
            let subs_done = report.children.iter().all(|(_, _, s)| *s == RunState::Completed);
            (subs_done && report.children.len() == 2).then_some(report.state)
        } else {
            final_state(&fabric, r)
        };
        rep.fail_unless(state == Some(RunState::Completed), || format!("flow {} ended {state:?}", r.query_id()));
    }
    let deliveries = fabric.deliveries() - deliveries0;
    rep.check(deliveries == 4 * federated, || format!("{deliveries} bus deliveries for {federated} federated flows"));
    let engines = shard_engines(&fabric);
    rep.counts = Counts {
        steps: engines.iter().map(|d| d.metrics().steps_executed).sum(),
        provenance_records: engines.iter().map(|d| d.provenance().records().len() as u64).sum(),
        deliveries,
        pump_allocs,
        mix_digest: mix,
        ..Counts::default()
    };

    if let (Some(prof0), Some(steps0)) = (prof0, steps0) {
        let measured_steps = wave_steps * cfg.waves as u64;
        let delta = shard_phases(&fabric, Some(&prof0)).0;
        let mut ledger = Ledger::default();
        ledger.add_calls("fabric", calls_s, &delta);
        for (name, v) in ledger.rows(rep.wall_s) {
            rep.layer(&name, v);
        }
        for (name, v) in delta.per_step(measured_steps) {
            rep.layer(&name, v);
        }
        let per_step = |ns: &[f64]| median(ns) / 1e3 / wave_steps as f64;
        rep.layer("engine.pump_us_per_step.early", per_step(&wave_step_exec_ns[..quarter]));
        rep.layer("engine.pump_us_per_step.late", per_step(&wave_step_exec_ns[wave_step_exec_ns.len() - quarter..]));
        rep.layer("engine.allocs_per_step", pump_allocs as f64 / measured_steps as f64);
        let pump_total: f64 = pump_s.iter().sum();
        rep.layer("engine.unattributed_share", (pump_total - in_pumps.root_ns as f64 / 1e9) / pump_total);
        rep.layer("fabric.route_us", median(&rep.submit_ms) * 1e3);
        rep.layer("fabric.pump_ms_per_wave.early", median(&pump_s[..quarter]) * 1e3);
        rep.layer("fabric.pump_ms_per_wave.late", median(&pump_s[pump_s.len() - quarter..]) * 1e3);
        rep.layer("fabric.deliveries_per_fed_flow", deliveries as f64 / federated.max(1) as f64);
        let per_shard: Vec<u64> = shard_steps(&fabric).iter().zip(&steps0).map(|(a, b)| a - b).collect();
        let (lo, hi) = (per_shard.iter().min().copied().unwrap_or(0), per_shard.iter().max().copied().unwrap_or(0));
        rep.layer("fabric.shard_step_skew", hi as f64 / lo.max(1) as f64);
        rep.layer("fabric.status_us", median(&status_us));
        probe_layers(&mut rep, &fabric, cfg, seed, &tag);
    }
    drop(kept);
    rep
}

/// Traced runs only: time single calls into the dgl, lint, engine and
/// obs layers on the workload's own requests, after the measured phase.
fn probe_layers(rep: &mut Rep, fabric: &Fabric, cfg: &Config, seed: u64, tag: &str) {
    let requests = wave_requests(cfg, tag, "probe", &mut Rng::new(seed, 4));
    let s0 = fabric.engine("s0").expect("shard s0 exists");
    // A fresh engine owning every zone, for timing Dfms::submit_flow
    // outside the federation.
    let mut fresh = mesh_engine(1, seed);
    for i in 0..SHARDS {
        let roots = FlowBuilder::sequential("roots")
            .step("zone", DglOperation::CreateCollection { path: format!("/s{i}") })
            .step("tag", DglOperation::CreateCollection { path: format!("/s{i}/{tag}") })
            .build()
            .expect("generated flow is valid");
        let submitted = fresh.submit_flow(USER, roots);
        rep.fail_unless(submitted.is_ok(), || format!("probe roots refused: {submitted:?}"));
    }
    fresh.pump();
    let mut parse = Vec::new();
    let mut validate = Vec::new();
    let mut submit = Vec::new();
    for req in requests {
        let xml = req.to_xml();
        let (parsed, secs) = timed(|| parse_request(&xml));
        rep.fail_unless(parsed.is_ok(), || format!("probe document {} does not parse", req.id));
        parse.push(secs * 1e6);
        let RequestBody::Flow(flow) = req.body else {
            continue;
        };
        validate.push(timed(|| s0.validate_flow(&flow, None)).1 * 1e6);
        let (submitted, secs) = timed(|| fresh.submit_flow(USER, flow));
        rep.fail_unless(submitted.is_ok(), || format!("probe submit refused: {submitted:?}"));
        submit.push(secs * 1e6);
    }
    let encode: Vec<f64> = (1..=cfg.wave_flows.min(500))
        .map(|i| {
            let report = fabric.federated_status(&format!("x{i}"));
            timed(|| DataGridResponse::status("probe", report).to_xml()).1 * 1e6
        })
        .collect();
    rep.layer("dgl.parse_us", median(&parse));
    rep.layer("dgl.encode_us", median(&encode));
    rep.layer("lint.validate_us", median(&validate));
    rep.layer("engine.submit_us", median(&submit));
    let engines = shard_engines(fabric);
    let finished: u64 = engines.iter().map(|d| d.metrics().runs_completed).sum();
    probe_obs(rep, &engines, finished);
    let scrapes: Vec<f64> = (0..5).map(|_| timed(|| s0.telemetry_scrape()).1 * 1e3).collect();
    rep.layer("obs.scrape_ms", median(&scrapes));
}
