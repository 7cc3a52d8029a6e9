//! `wire_journaled`: raw DGL XML through a journaled `DfmsServer`.
//!
//! The server runs on a 2-domain mesh with the default
//! `JournalConfig` (transitions synced in batches of 32, every command
//! synced, a checkpoint every 64 commands). Closed-loop client threads
//! each send one seeded mix of documents — synchronous flows that
//! ingest, replicate and checksum an object across the domains,
//! interleaved with `flowStatusQuery` and `telemetryQuery` documents —
//! and wait for every reply before sending the next. Afterwards the
//! server is shut down and recovered from its own journal.
//!
//! Windows are equal shares of all completed requests, in completion
//! order.

use crate::layers::{probe_obs, Ledger, PhaseDelta};
use crate::report::{median, ms, Counts, Rep, Window};
use crate::setup::{digest, mesh_engine, tag, timed, Rng, DIGEST_INIT, USER};
use crate::sys::{own_runq_wait_ns, peak_rss_kb, settled_rss_kb, NoiseMark};
use datagridflows::dfms::{DfmsServer, JournalConfig, ServerHandle};
use datagridflows::dgl::{
    parse_request, parse_response, FlowStatusQuery, ProfileQuery, ResponseBody, ServerContention, TelemetryQuery,
};
use datagridflows::obs::{Phase, ProfileSnapshot};
use datagridflows::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The journal's genesis label.
const LABEL: &str = "e2ebench-wire";

/// The mix, per block of 4 requests: flows, status queries, telemetry
/// queries.
///
/// No measured DGL traffic mix is at hand, so this is a plain default:
/// as many writes as reads, the reads split evenly between the two
/// query kinds.
const BLOCK: [(Kind, usize); 3] = [(Kind::Flow, 2), (Kind::Status, 1), (Kind::Telemetry, 1)];

/// Steps of one generated flow: ingest, replicate, checksum.
const FLOW_STEPS: u64 = 3;

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-ups per repetition (each starts a journaled server and sends
    /// the warm-up requests; the last one is measured).
    pub setups: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Measured requests per client.
    pub requests_per_client: usize,
    /// Warm-up requests per set-up.
    pub warmup_requests: usize,
    /// Measurement windows.
    pub windows: usize,
    /// Size of each ingested object, bytes.
    pub object_bytes: u64,
}

impl Config {
    /// The benchmark's shape: two clients, so with the server worker the
    /// load uses two threads, matching a 2-core host.
    pub const STANDARD: Config = Config {
        setups: 3,
        clients: 2,
        requests_per_client: 800,
        warmup_requests: 100,
        windows: 8,
        object_bytes: 4_096,
    };
    /// A scaled-down shape for the determinism self-check; one client,
    /// so the journal's command order is fixed.
    pub const SMALL: Config =
        Config { setups: 1, clients: 1, requests_per_client: 80, warmup_requests: 20, windows: 4, object_bytes: 4_096 };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Flow,
    Status,
    Telemetry,
}

/// One client's seeded script: the kinds in order, the flow documents
/// it will send, and the generator that picks status-query targets.
struct Script {
    client: String,
    kinds: Vec<Kind>,
    flows: Vec<String>,
    rng: Rng,
}

impl Script {
    fn new(cfg: &Config, seed: u64, tag: &str, client: &str, requests: usize) -> Self {
        let mut rng = Rng::new(seed, digest(DIGEST_INIT, client));
        let mut kinds = Vec::with_capacity(requests);
        while kinds.len() < requests {
            let mut block: Vec<Kind> = BLOCK.iter().flat_map(|(k, n)| std::iter::repeat_n(*k, *n)).collect();
            rng.shuffle(&mut block);
            kinds.extend(block);
        }
        kinds.truncate(requests);
        let flows = (0..kinds.iter().filter(|k| **k == Kind::Flow).count())
            .map(|i| {
                let (src, dst) =
                    if rng.below(2) == 0 { ("site0-disk", "site1-disk") } else { ("site1-disk", "site0-disk") };
                let path = format!("/wire/{tag}/{client}/r{i}");
                let flow = FlowBuilder::sequential(format!("{tag}-{client}-r{i}"))
                    .step(
                        "put",
                        DglOperation::Ingest {
                            path: path.clone(),
                            size: cfg.object_bytes.to_string(),
                            resource: src.into(),
                        },
                    )
                    .step("rep", DglOperation::Replicate { path: path.clone(), src: None, dst: dst.into() })
                    .step("sum", DglOperation::Checksum { path, resource: Some(dst.into()), register: true })
                    .build()
                    .expect("generated flow is valid");
                DataGridRequest::flow(format!("{client}-f{i}"), USER, flow).to_xml()
            })
            .collect();
        Script { client: client.to_owned(), kinds, flows, rng }
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    latency_ms: f64,
    /// Seconds from the start of the measured phase to the reply.
    end_s: f64,
}

/// What one client saw.
struct ClientLog {
    samples: Vec<Sample>,
    /// Every document sent (kept for the traced parse probe).
    sent: Vec<String>,
    /// Transactions this client knows: the ones it started with plus
    /// every flow it completed.
    known: Vec<String>,
    /// One line per request whose reply failed its check.
    failures: Vec<String>,
    digest: u64,
    /// This thread's run-queue wait over the script, ns.
    runq_wait_ns: u64,
}

impl ClientLog {
    /// Count every request of this log as attempted, and its failures.
    fn report(&self, rep: &mut Rep) {
        rep.attempted += self.samples.len() as u64;
        for line in &self.failures {
            rep.fail_unless(false, || line.clone());
        }
    }
}

/// Output check of one reply: it parses; a flow reports Completed with
/// all its steps (its transaction joins `known`), a status query reports
/// Completed, a telemetry query carries a scrape.
fn reply_ok(kind: Kind, reply: &str, known: &mut Vec<String>) -> bool {
    let Ok(response) = parse_response(reply) else {
        return false;
    };
    match (kind, response.body) {
        (Kind::Flow, ResponseBody::Status(s)) if s.state == RunState::Completed => {
            known.push(s.transaction);
            s.steps_completed as u64 == FLOW_STEPS
        }
        (Kind::Status, ResponseBody::Status(s)) => s.state == RunState::Completed,
        (Kind::Telemetry, ResponseBody::Telemetry(t)) => t.scrape.is_some(),
        _ => false,
    }
}

/// Drive one client's script against the server, closed loop: send,
/// wait for the reply, check it, send the next. After every
/// `mark_every` requests (0: never) `mark` runs on this thread.
fn drive(
    handle: &ServerHandle,
    script: Script,
    known: Vec<String>,
    start: Instant,
    keep_sent: bool,
    mark_every: usize,
    mut mark: impl FnMut(),
) -> ClientLog {
    let Script { client, kinds, flows, mut rng } = script;
    let telemetry = DataGridRequest::telemetry(format!("{client}-tel"), USER, TelemetryQuery::scrape()).to_xml();
    let wait0 = own_runq_wait_ns();
    let mut log = ClientLog {
        samples: Vec::with_capacity(kinds.len()),
        sent: Vec::new(),
        known,
        failures: Vec::new(),
        digest: DIGEST_INIT,
        runq_wait_ns: 0,
    };
    let mut flows = flows.into_iter();
    for (i, kind) in kinds.into_iter().enumerate() {
        let xml = match kind {
            Kind::Flow => flows.next().expect("one document per flow in the script"),
            Kind::Status => {
                let txn = &log.known[rng.below(log.known.len())];
                DataGridRequest::status(format!("{client}-q{i}"), USER, FlowStatusQuery::whole(txn)).to_xml()
            }
            Kind::Telemetry => telemetry.clone(),
        };
        log.digest = digest(log.digest, &xml);
        let t = Instant::now();
        let reply = handle.request(&xml);
        let latency_ms = ms(t.elapsed());
        let end_s = start.elapsed().as_secs_f64();
        log.samples.push(Sample { kind, latency_ms, end_s });
        if !reply.as_deref().is_some_and(|r| reply_ok(kind, r, &mut log.known)) {
            log.failures.push(format!("{client} request {i} ({kind:?}) answered {reply:?}"));
        }
        if keep_sent {
            log.sent.push(xml);
        }
        if mark_every > 0 && (i + 1) % mark_every == 0 {
            mark();
        }
    }
    log.runq_wait_ns = own_runq_wait_ns().saturating_sub(wait0);
    log
}

/// A running set-up.
struct Stage {
    server: DfmsServer,
    journal: PathBuf,
    /// Transactions of the set-up's flows (status queries may ask for
    /// them from the first measured request on).
    known: Vec<String>,
    /// The checkpoint that closes the set-up, ms.
    checkpoint_ms: f64,
}

fn set_up(cfg: &Config, seed: u64, tag: &str, journal: PathBuf, rep: &mut Rep) -> Result<Stage, String> {
    let _ = std::fs::remove_file(&journal);
    let server = DfmsServer::start_journaled(mesh_engine(2, seed), &journal, LABEL, JournalConfig::default())
        .map_err(|e| format!("journal {}: {e}", journal.display()))?;
    let handle = server.handle();
    let mut roots = FlowBuilder::sequential("roots")
        .step("wire", DglOperation::CreateCollection { path: "/wire".into() })
        .step("tag", DglOperation::CreateCollection { path: format!("/wire/{tag}") });
    for client in (0..cfg.clients).map(|c| format!("c{c}")).chain(["warm".to_owned()]) {
        roots = roots.step(client.clone(), DglOperation::CreateCollection { path: format!("/wire/{tag}/{client}") });
    }
    let roots = DataGridRequest::flow("roots", USER, roots.build().expect("generated flow is valid")).to_xml();
    let reply = handle.request(&roots).map(|r| parse_response(&r));
    let txn = match &reply {
        Some(Ok(DataGridResponse { body: ResponseBody::Status(s), .. })) if s.state == RunState::Completed => {
            s.transaction.clone()
        }
        _ => return Err(format!("collection roots failed: {reply:?}")),
    };
    let script = Script::new(cfg, seed, tag, "warm", cfg.warmup_requests);
    let log = drive(&handle, script, vec![txn], Instant::now(), false, 0, || {});
    log.report(rep);
    let (checkpoint, secs) = timed(|| server.with_engine(|d| d.checkpoint()));
    checkpoint.map_err(|e| format!("set-up checkpoint: {e}"))?;
    Ok(Stage { server, journal, known: log.known, checkpoint_ms: secs * 1e3 })
}

/// Run one repetition. Journals go under `dir`; this run's files are
/// removed afterwards.
pub fn run(cfg: &Config, seed: u64, trace: bool, dir: &Path) -> Result<Rep, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut rep = Rep::new("wire_journaled");
    let tag = tag(seed);
    let journals: Vec<PathBuf> =
        (0..cfg.setups).map(|k| dir.join(format!("wire-{}-{k}.dgj", std::process::id()))).collect();
    let mut stages = Vec::new();
    let mut result = Ok(());
    for journal in &journals {
        let (stage, secs) = timed(|| set_up(cfg, seed, &tag, journal.clone(), &mut rep));
        match stage {
            Ok(stage) => stages.push(stage),
            Err(e) => {
                result = Err(e);
                break;
            }
        }
        rep.setup_s.push(secs);
    }
    // Earlier set-ups stop serving but keep their engines alive until
    // the end, so the measured server never reuses their freed pages.
    let mut kept = Vec::new();
    if result.is_ok() {
        let stage = stages.pop().expect("at least one set-up");
        kept.extend(stages.drain(..).map(|old| old.server.shutdown().1));
        result = measure(cfg, seed, trace, &tag, stage, &mut rep);
    }
    drop(stages);
    drop(kept);
    for path in journals {
        let _ = std::fs::remove_file(path);
    }
    result.map(|()| rep)
}

/// A point client 0 marks at each quarter of its script.
struct Mark {
    at_s: f64,
    profile: Option<ProfileSnapshot>,
}

fn measure(cfg: &Config, seed: u64, trace: bool, tag: &str, stage: Stage, rep: &mut Rep) -> Result<(), String> {
    let Stage { server, journal, known, checkpoint_ms: checkpoint_early_ms } = stage;
    let handle = server.handle();
    let mut scripts: Vec<Script> =
        (0..cfg.clients).map(|c| Script::new(cfg, seed, tag, &format!("c{c}"), cfg.requests_per_client)).collect();
    // The measured phase starts from zeroed phase and contention
    // accumulators, so the final profile covers exactly this phase.
    handle.profile(ProfileQuery::new().with_reset(true)).ok_or("server stopped before the measured phase")?;
    let script0 = scripts.remove(0);
    let mut marks: Vec<Mark> = Vec::new();
    // RSS is read settled, at the quiescent edges of the measured phase:
    // a checkpoint frees megabytes whose return to the OS varies.
    rep.rss_early_kb = settled_rss_kb();
    let noise0 = NoiseMark::now();
    let start = Instant::now();
    let (logs, noise) = std::thread::scope(|scope| {
        let workers: Vec<_> = scripts
            .into_iter()
            .map(|script| {
                let (handle, known) = (handle.clone(), known.clone());
                scope.spawn(move || drive(&handle, script, known, start, trace, 0, || {}))
            })
            .collect();
        // Client 0 runs on this thread and marks each quarter of its
        // script (with a profile snapshot when traced).
        let log0 = drive(&handle, script0, known.clone(), start, trace, (cfg.requests_per_client / 4).max(1), || {
            let profile = trace.then(|| server.with_engine(|d| d.profile_snapshot()));
            marks.push(Mark { at_s: start.elapsed().as_secs_f64(), profile });
        });
        let mut logs = vec![log0];
        logs.extend(workers.into_iter().map(|w| w.join().expect("client thread panicked")));
        let exited: u64 = logs.iter().skip(1).map(|l| l.runq_wait_ns).sum();
        (logs, noise0.until(&NoiseMark::now(), exited))
    });
    rep.noise = noise;
    let mut samples: Vec<Sample> = logs.iter().flat_map(|l| l.samples.iter().copied()).collect();
    samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    rep.wall_s = samples.last().map_or(0.0, |s| s.end_s);
    rep.rss_late_kb = settled_rss_kb();
    rep.peak_rss_kb = peak_rss_kb();
    for log in &logs {
        log.report(rep);
    }
    for s in &samples {
        match s.kind {
            Kind::Flow => rep.submit_ms.push(s.latency_ms),
            Kind::Status | Kind::Telemetry => rep.query_ms.push(s.latency_ms),
        }
    }
    let per_window = samples.len().div_ceil(cfg.windows.max(1)).max(1);
    let mut prev_end = 0.0;
    for chunk in samples.chunks(per_window) {
        let flows = chunk.iter().filter(|s| s.kind == Kind::Flow).count() as u64;
        let end = chunk.last().map_or(prev_end, |s| s.end_s);
        rep.windows.push(Window { flows, steps: flows * FLOW_STEPS, wall_s: end - prev_end });
        prev_end = end;
    }
    rep.flows_between = samples.iter().filter(|s| s.kind == Kind::Flow).count() as u64;
    let mix = logs.iter().fold(digest(DIGEST_INIT, tag), |acc, l| digest(acc, &l.digest.to_string()));

    // After the measured phase: the traced readings of the phase, a late
    // checkpoint, then shutdown and recovery from the workload's own
    // journal. The profile is read before the contention report, so
    // neither covers the profileQuery that fetches the report.
    let phase = trace.then(|| {
        let profile = server.with_engine(|d| d.profile_snapshot());
        (handle.profile(ProfileQuery::new()).and_then(|p| p.contention), profile)
    });
    let (checkpoint, secs) = timed(|| server.with_engine(|d| d.checkpoint()));
    checkpoint.map_err(|e| format!("late checkpoint: {e}"))?;
    let checkpoint_late_ms = secs * 1e3;
    let journal_bytes = server.with_engine(|d| d.recovery_query().journal_bytes);
    let flows_total = rep.flows_between;
    if trace {
        server.with_engine(|d| {
            let finished = d.metrics().runs_completed;
            probe_obs(rep, &[&*d], finished);
            probe_engine_layers(rep, d, &logs, cfg, seed, tag);
        });
    }
    let (_, engine) = server.shutdown();
    let before = engine.flow_summaries();
    let steps = engine.metrics().steps_executed;
    let provenance_records = engine.provenance().records().len() as u64;
    drop(engine);
    let ((recovered, report), recover_s) = {
        let (r, secs) =
            timed(|| DfmsServer::recover(&journal, LABEL, JournalConfig::default(), || mesh_engine(2, seed)));
        (r.map_err(|e| format!("recovery: {e}"))?, secs)
    };
    let after = recovered.with_engine(|d| d.flow_summaries());
    let replay = report.replay.unwrap_or_default();
    rep.check(replay.divergences == 0, || format!("recovery diverged on {} records", replay.divergences));
    rep.check(before == after, || {
        format!("flow summaries differ after recovery: {} before, {} after", before.len(), after.len())
    });
    let replay_profile = recovered.with_engine(|d| d.profile_snapshot());
    drop(recovered.shutdown());
    rep.counts = Counts { steps, provenance_records, journal_bytes, mix_digest: mix, ..Counts::default() };

    if let Some((contention, profile)) = phase {
        let delta = PhaseDelta::of(&profile);
        let steps = flows_total * FLOW_STEPS;
        let served = contention.as_ref().map_or(0, |c| c.served);
        let hist = |name: &str| {
            contention.as_ref().and_then(|c: &ServerContention| c.hists.iter().find(|h| h.name == name).cloned())
        };
        let lock_hold_s = hist("lock-hold").map_or(0.0, |h| h.sum_ns as f64 / 1e9);
        let mut ledger = Ledger::default();
        ledger.add_calls("server", lock_hold_s, &delta);
        for (name, v) in ledger.rows(rep.wall_s) {
            rep.layer(&name, v);
        }
        for (name, v) in delta.per_step(steps) {
            rep.layer(&name, v);
        }
        // Per-step engine cost over client 0's first and last quarter.
        let window_step_us = |a: Option<&Mark>, b: Option<&Mark>| {
            let (Some(pa), Some(pb)) = (a.and_then(|m| m.profile.as_ref()), b.and_then(|m| m.profile.as_ref())) else {
                return 0.0;
            };
            let (ta, tb) = (a.map_or(0.0, |m| m.at_s), b.map_or(0.0, |m| m.at_s));
            let flows = samples.iter().filter(|s| s.kind == Kind::Flow && s.end_s > ta && s.end_s <= tb).count();
            PhaseDelta::between(pa, pb).incl_of(Phase::StepExecute) as f64
                / 1e3
                / (flows as u64 * FLOW_STEPS).max(1) as f64
        };
        let zero = Mark { at_s: 0.0, profile: Some(ProfileSnapshot::default()) };
        let n = marks.len();
        rep.layer("engine.pump_us_per_step.early", window_step_us(Some(&zero), marks.first()));
        rep.layer("engine.pump_us_per_step.late", window_step_us(marks.get(n.saturating_sub(2)), marks.last()));
        let step_allocs = delta.allocs.get(&Phase::StepExecute).copied().unwrap_or(0);
        rep.layer("engine.allocs_per_step", step_allocs as f64 / steps.max(1) as f64);
        rep.layer("engine.unattributed_share", (lock_hold_s - delta.root_ns as f64 / 1e9) / lock_hold_s);
        let fsyncs = delta.calls.get(&Phase::JournalFsync).copied().unwrap_or(0);
        let appends = delta.calls.get(&Phase::JournalAppend).copied().unwrap_or(0);
        rep.layer("journal.fsyncs_per_request", fsyncs as f64 / served.max(1) as f64);
        rep.layer("journal.fsync_us", delta.self_of(Phase::JournalFsync) as f64 / 1e3 / fsyncs.max(1) as f64);
        rep.layer("journal.append_us", delta.self_of(Phase::JournalAppend) as f64 / 1e3 / appends.max(1) as f64);
        rep.layer("journal.checkpoint_ms.early", checkpoint_early_ms);
        rep.layer("journal.checkpoint_ms.late", checkpoint_late_ms);
        rep.layer("journal.bytes_per_flow", journal_bytes as f64 / flows_total.max(1) as f64);
        rep.layer("recovery.replay_commands", replay.commands_replayed as f64);
        let replay_ns: u64 = replay_profile
            .nodes
            .iter()
            .filter(|n| n.depth == 0 && !matches!(n.phase, Phase::JournalAppend | Phase::JournalFsync))
            .map(|n| n.stats.wall_ns)
            .sum();
        rep.layer("recovery.replay_ms", replay_ns as f64 / 1e6);
        rep.layer("recover_s", recover_s);
        let mean_us = |name: &str| hist(name).map_or(0.0, |h| h.mean_ns() as f64 / 1e3);
        rep.layer("server.queue_wait_us", mean_us("queue-wait"));
        rep.layer("server.lock_hold_us", mean_us("lock-hold"));
        rep.layer("server.queue_depth_max", contention.as_ref().map_or(0, |c| c.queue_depth_max) as f64);
        probe_dgl(rep, &logs);
    }
    Ok(())
}

/// Traced runs only: time `Dfms::validate_flow`, status encoding and
/// the telemetry scrape on the measured engine, and `Dfms::submit_flow`
/// of the workload's flows on a fresh engine.
fn probe_engine_layers(rep: &mut Rep, d: &Dfms, logs: &[ClientLog], cfg: &Config, seed: u64, tag: &str) {
    let flows: Vec<Flow> = logs
        .iter()
        .flat_map(|l| &l.sent)
        .filter_map(|xml| match parse_request(xml).map(|r| r.body) {
            Ok(RequestBody::Flow(flow)) => Some(flow),
            _ => None,
        })
        .take(500)
        .collect();
    let validate: Vec<f64> = flows.iter().map(|f| timed(|| d.validate_flow(f, None)).1 * 1e6).collect();
    let encode: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.known)
        .take(500)
        .filter_map(|txn| d.status(txn, None).ok())
        .map(|report| timed(|| DataGridResponse::status("probe", report).to_xml()).1 * 1e6)
        .collect();
    let scrapes: Vec<f64> = (0..5).map(|_| timed(|| d.telemetry_scrape()).1 * 1e3).collect();
    let mut fresh = mesh_engine(2, seed);
    let mut roots = FlowBuilder::sequential("roots")
        .step("wire", DglOperation::CreateCollection { path: "/wire".into() })
        .step("tag", DglOperation::CreateCollection { path: format!("/wire/{tag}") });
    for c in 0..cfg.clients {
        roots = roots.step(format!("c{c}"), DglOperation::CreateCollection { path: format!("/wire/{tag}/c{c}") });
    }
    let submitted = fresh.submit_flow(USER, roots.build().expect("generated flow is valid"));
    rep.fail_unless(submitted.is_ok(), || format!("probe roots refused: {submitted:?}"));
    fresh.pump();
    let submit: Vec<f64> = flows
        .into_iter()
        .map(|f| {
            let (submitted, secs) = timed(|| fresh.submit_flow(USER, f));
            rep.fail_unless(submitted.is_ok(), || format!("probe submit refused: {submitted:?}"));
            secs * 1e6
        })
        .collect();
    rep.layer("engine.submit_us", median(&submit));
    rep.layer("lint.validate_us", median(&validate));
    rep.layer("dgl.encode_us", median(&encode));
    rep.layer("obs.scrape_ms", median(&scrapes));
}

/// Traced runs only: time `parse_request` on every document the
/// clients sent.
fn probe_dgl(rep: &mut Rep, logs: &[ClientLog]) {
    let parse: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.sent)
        .map(|xml| {
            let (parsed, secs) = timed(|| parse_request(xml));
            rep.fail_unless(parsed.is_ok(), || "a sent document does not parse".to_owned());
            secs * 1e6
        })
        .collect();
    rep.layer("dgl.parse_us", median(&parse));
}
