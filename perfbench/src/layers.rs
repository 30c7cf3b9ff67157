//! The traced run: where each operation's time goes, layer by layer.
//!
//! 1. Over loopback TCP, as in the untraced run: one set-up, then the
//!    closed loop for half the run, every other session with a client
//!    span around each request. The difference in mean per-request
//!    latency between the two kinds is the tracing overhead; the
//!    untraced sessions give the end-to-end time per request `E`.
//! 2. In-process, for the other half: the same generated request lines
//!    (set-up first, then sessions) go through
//!    `protocol::parse_request` and `Server::execute` on a server built
//!    with the same configuration. Beside each request, the benchmark
//!    calls the lower layers' public functions on the same inputs, the
//!    way the server's handler does: `revkb_logic::parse`,
//!    `registry::cache_key`, `RevisedKb::compile_iterated` (and, for
//!    its attribution, the chain's `distance::min_distance_over` /
//!    `omega_over` and `revkb_circuits::exa` steps),
//!    `QuerySession::with_query_alphabet` (with `tseitin_auto` of `T'`),
//!    `QuerySession::entails`, `Wal::append` and `Wal::write_snapshot`.
//!
//! Per request, `transport = E − parse_request − execute`, and
//! `unattributed = execute − Σ lower-layer calls on the server's path`:
//! the handler's own code outside every named call.

use crate::client::Conn;
use crate::gen::{Expect, Op};
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::workload::{self, Inputs, Tally};
use crate::{metric, Metric, Outcome};
use revkb_logic::{parse, tseitin_auto, Formula, Signature, Var, VarSupply};
use revkb_revision::distance::{min_distance_over, omega_over};
use revkb_revision::engine::DELTA_LIMIT;
use revkb_revision::{Backend, ModelBasedOp, RevisedKb};
use revkb_sat::{supply_above, QuerySession};
use revkb_server::protocol::parse_request;
use revkb_server::registry::cache_key;
use revkb_server::wal::Wal;
use revkb_server::{Artifact, ArtifactCache, Json, OpName, Server, ServerConfig, SyncMode, WalOp};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

const STEP_SPANS: [&str; 6] = [
    "revision.compile.step1",
    "revision.compile.step2",
    "revision.compile.step3",
    "revision.compile.step4",
    "revision.compile.step5",
    "revision.compile.step6+",
];

/// Lower-layer calls the server makes inside `execute`; their sum is
/// subtracted from `execute` to leave the unattributed remainder.
const ON_PATH: [&str; 7] = [
    "logic.parse",
    "server.registry.cache_key",
    "revision.compile",
    "sat.base_load",
    "sat.entails",
    "server.wal.append",
    "server.wal.snapshot",
];

/// The benchmark's copy of one KB, fed the same requests as the server.
struct Mirror {
    sig: Signature,
    theory: Vec<Formula>,
    ps: Vec<Formula>,
    rep: Option<Artifact>,
    session: Option<QuerySession>,
}

/// Query-solver counters summed over every `entails` call.
#[derive(Default)]
struct SolverTotals {
    queries: u64,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
}

struct Replay {
    rec: Recorder,
    kbs: HashMap<String, Mirror>,
    cache: ArtifactCache,
    wal: Wal,
    durable: bool,
    revises: usize,
    solver: SolverTotals,
    /// `entails` durations, not entailed then entailed.
    entails_ns: [Vec<u64>; 2],
    compiled_sizes: Vec<u64>,
    exa_sizes: Vec<u64>,
    tseitin_clauses: Vec<u64>,
}

impl Replay {
    fn new(origin: Instant, durable: bool) -> Result<Replay, String> {
        let wal = Wal::open(
            &workload::fresh_data_dir("layer-wal"),
            SyncMode::Always,
            SNAPSHOT_EVERY,
        )
        .map_err(|e| format!("opening the layer WAL: {e}"))?
        .wal;
        Ok(Replay {
            rec: Recorder::new(origin, 100),
            kbs: HashMap::new(),
            cache: ArtifactCache::new(CACHE_CAPACITY),
            wal,
            durable,
            revises: 0,
            solver: SolverTotals::default(),
            entails_ns: [Vec::new(), Vec::new()],
            compiled_sizes: Vec::new(),
            exa_sizes: Vec::new(),
            tseitin_clauses: Vec::new(),
        })
    }

    /// Call the lower layers for one request, as the server's handler
    /// would for the same input and state.
    fn layers(&mut self, op_id: u64, req: &Json, op: &Op) -> Result<(), String> {
        let kb = req
            .get("kb")
            .and_then(Json::as_str)
            .ok_or("request without kb")?
            .to_string();
        let rec = &mut self.rec;
        match op.expect {
            Expect::Load => {
                let mut sig = Signature::new();
                let mut theory = Vec::new();
                for segment in op.text.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                    let (f, _) = rec.time("logic.parse", op_id, |_| parse(segment, &mut sig));
                    theory.push(f.map_err(|e| e.to_string())?);
                }
                self.kbs.insert(
                    kb.clone(),
                    Mirror {
                        sig,
                        theory,
                        ps: Vec::new(),
                        rep: None,
                        session: None,
                    },
                );
                let record = WalOp::Load {
                    kb,
                    t: op.text.clone(),
                };
                self.append(op_id, &record)?;
            }
            Expect::Revise { .. } => {
                let tag = req.get("op").and_then(Json::as_str).unwrap_or("dalal");
                let model = ModelBasedOp::from_name(tag).ok_or("unknown operator")?;
                let mirror = self.kbs.get_mut(&kb).ok_or("revise of an unknown KB")?;
                let (p, _) = rec.time("logic.parse", op_id, |_| parse(&op.text, &mut mirror.sig));
                mirror.ps.push(p.map_err(|e| e.to_string())?);
                let (key, _) = rec.time("server.registry.cache_key", op_id, |_| {
                    cache_key(
                        OpName::Model(model),
                        Backend::Direct,
                        &mirror.theory,
                        &mirror.ps,
                    )
                });
                let artifact = match self.cache.get(&key) {
                    Some(artifact) => artifact,
                    None => {
                        let t = Formula::and_all(mirror.theory.iter().cloned());
                        let step = STEP_SPANS[(mirror.ps.len() - 1).min(STEP_SPANS.len() - 1)];
                        let (compiled, _) = rec.time("revision.compile", op_id, |rec| {
                            rec.time(step, op_id, |_| {
                                RevisedKb::compile_iterated(model, &t, &mirror.ps)
                            })
                            .0
                        });
                        let rep = compiled.map_err(|e| e.to_string())?;
                        let rep = rep.representation();
                        self.compiled_sizes.push(rep.size() as u64);
                        attribute_chain(rec, op_id, model, &t, &mirror.ps, &mut self.exa_sizes);
                        let artifact = Artifact {
                            formula: rep.formula.clone(),
                            base: rep.base.clone(),
                            logical: rep.logical,
                        };
                        self.cache.insert(key, artifact.clone());
                        artifact
                    }
                };
                mirror.rep = Some(artifact);
                mirror.session = None;
                let record = WalOp::Revise {
                    kb,
                    op: tag.to_string(),
                    p: op.text.clone(),
                    backend: "direct".to_string(),
                };
                self.append(op_id, &record)?;
                self.revises += 1;
                if self.revises.is_multiple_of(SNAPSHOT_EVERY) {
                    self.snapshot(op_id)?;
                }
            }
            Expect::Query { .. } => {
                let mirror = self.kbs.get_mut(&kb).ok_or("query of an unknown KB")?;
                let (q, _) = rec.time("logic.parse", op_id, |_| parse(&op.text, &mut mirror.sig));
                let q = q.map_err(|e| e.to_string())?;
                let rep = mirror.rep.as_ref().ok_or("query before revise")?;
                if mirror.session.is_none() {
                    let nq = rep.base.iter().map(|v| v.0 + 1).max().unwrap_or(0);
                    let (session, _) = rec.time("sat.base_load", op_id, |_| {
                        QuerySession::with_query_alphabet(&rep.formula, nq)
                    });
                    mirror.session = Some(session);
                    let (cnf, _) = rec.time("logic.tseitin", op_id, |_| tseitin_auto(&rep.formula));
                    self.tseitin_clauses.push(cnf.len() as u64);
                }
                let session = mirror.session.as_mut().expect("loaded above");
                let ((entailed, before, after), ns) = rec.time("sat.entails", op_id, |_| {
                    let before = session.stats();
                    let entailed = session.entails(&q);
                    (entailed, before, session.stats())
                });
                self.entails_ns[usize::from(entailed)].push(ns);
                self.solver.queries += 1;
                self.solver.decisions += after.decisions - before.decisions;
                self.solver.conflicts += after.conflicts - before.conflicts;
                self.solver.propagations += after.propagations - before.propagations;
            }
            Expect::Drop => {
                self.kbs.remove(&kb);
                self.append(op_id, &WalOp::Drop { kb })?;
            }
        }
        Ok(())
    }

    /// Snapshot the artifact cache, as the server does every
    /// `SNAPSHOT_EVERY` revises; the replay also takes one at its end,
    /// so a workload with few revises still measures the call.
    fn snapshot(&mut self, op_id: u64) -> Result<(), String> {
        let (wal, cache) = (&mut self.wal, &self.cache);
        self.rec
            .time("server.wal.snapshot", op_id, |_| {
                wal.write_snapshot(cache.entries())
            })
            .0
            .map_err(|e| format!("snapshot: {e}"))
    }

    fn append(&mut self, op_id: u64, record: &WalOp) -> Result<(), String> {
        let wal = &mut self.wal;
        self.rec
            .time("server.wal.append", op_id, |_| wal.append(record))
            .0
            .map(|_| ())
            .map_err(|e| format!("wal append: {e}"))
    }
}

/// Time the pieces of one compile that the revision crate does not
/// expose separately: for Dalal, `min_distance_over` and `exa` at each
/// step of Theorem 5.1's chain; for Weber, `omega_over`. The chain is
/// rebuilt the way `dalal_iterated` builds it, so the calls see the
/// same formulas.
fn attribute_chain(
    rec: &mut Recorder,
    op_id: u64,
    op: ModelBasedOp,
    t: &Formula,
    ps: &[Formula],
    exa_sizes: &mut Vec<u64>,
) {
    let xs = revkb_revision::compact::iterated::base_vars(t, ps);
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    let mut cur = t.clone();
    for p in ps {
        match op {
            ModelBasedOp::Dalal => {
                let (k, _) = rec.time("revision.distance", op_id, |_| {
                    min_distance_over(&cur, p, &xs)
                });
                let Some(k) = k else { return };
                let ys: Vec<Var> = xs.iter().map(|_| supply.fresh_var()).collect();
                let (exa, _) = rec.time("circuits.exa", op_id, |_| {
                    revkb_circuits::exa(k, &xs, &ys, &mut supply)
                });
                exa_sizes.push(exa.size() as u64);
                cur = cur.rename(&xs, &ys).and(p.clone()).and(exa);
            }
            ModelBasedOp::Weber => {
                let (omega, _) = rec.time("revision.omega", op_id, |_| {
                    omega_over(&cur, p, &xs, DELTA_LIMIT)
                });
                let Some(omega) = omega else { return };
                let omega: Vec<Var> = omega.into_iter().collect();
                let zs: Vec<Var> = omega.iter().map(|_| supply.fresh_var()).collect();
                cur = cur.rename(&omega, &zs).and(p.clone());
            }
            _ => return,
        }
    }
}

/// Server configuration matching the child server's flags.
const CACHE_CAPACITY: usize = 64;
const SNAPSHOT_EVERY: usize = 8;

fn server_config(durable: bool, data_dir: PathBuf) -> ServerConfig {
    let config = ServerConfig::default()
        .with_threads(2)
        .with_queue(64)
        .with_cache_capacity(CACHE_CAPACITY)
        .with_default_deadline_ms(120_000);
    if durable {
        config
            .with_data_dir(Some(data_dir))
            .with_wal_sync(SyncMode::Always)
            .with_snapshot_every(SNAPSHOT_EVERY)
    } else {
        config
    }
}

fn stats_of(addr: &str) -> Result<Json, String> {
    let (resp, _) = Conn::connect(addr)
        .and_then(|mut c| c.call("{\"cmd\":\"stats\"}"))
        .map_err(|e| format!("stats: {e}"))?;
    resp.get("result")
        .cloned()
        .ok_or_else(|| "stats without result".into())
}

fn field(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn run_traced(inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let w = inputs.workload;
    let origin = Instant::now();
    let mut outcome_tally = Tally::default();

    // 1. End to end over TCP, every other session traced.
    let (server, _, setup_tally) =
        workload::set_up(inputs, "trace").map_err(|e| format!("set-up: {e}"))?;
    outcome_tally.merge(setup_tally);
    let mut streams = inputs.streams();
    let stats_before = stats_of(&server.addr)?;
    let cpu_before = server.cpu_ms().map_err(|e| e.to_string())?;
    let (tcp, _) = workload::closed_loop(&mut streams, &server.addr, seconds / 2.0, Some(origin))
        .map_err(|e| format!("loop: {e}"))?;
    let cpu_ms = server.cpu_ms().map_err(|e| e.to_string())? - cpu_before;
    let stats_after = stats_of(&server.addr)?;
    server
        .stop()
        .map_err(|e| format!("stopping the server: {e}"))?;
    let tcp_ops = tcp.attempted as f64;
    let untraced: Vec<u64> = tcp
        .timeline
        .iter()
        .filter(|e| e.cmd != "session")
        .map(|e| e.ns)
        .collect();
    let e2e_ns = stats::mean(&untraced);
    let overhead_ns = stats::mean(&tcp.traced) - e2e_ns;
    outcome_tally.merge(tcp);
    let mut spans: Vec<Span> = std::mem::take(&mut outcome_tally.spans);

    // 2. In process: the same request lines, layer by layer.
    let replay_dir = workload::fresh_data_dir("replay");
    let server = Server::open(server_config(w.durable(), replay_dir.clone()))
        .map_err(|e| format!("opening the in-process server: {e}"))?;
    let mut replay = Replay::new(origin, w.durable())?;
    let mut op_id = 1u64 << 50;
    let mut first_timed = 0;
    let mut failed = Vec::new();
    let mut replayed = 0u64;
    let run_for = std::time::Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let mut streams = inputs.streams();
    let mut session: Vec<Op> = inputs.setup_ops();
    let mut next_stream = 0;
    loop {
        for op in &session {
            op_id += 1;
            replayed += 1;
            let (request, _) = replay
                .rec
                .time("server.protocol.parse", op_id, |_| parse_request(&op.line));
            let request =
                request.map_err(|e| format!("replayed line does not parse: {}", e.message))?;
            let (response, _) = replay.rec.time(execute_span(op.expect.cmd()), op_id, |_| {
                server.execute(&request)
            });
            let resp = Json::parse(&response.render()).map_err(|e| e.to_string())?;
            if let Err(why) = workload::check(op, &resp) {
                failed.push(why);
            }
            let req_json = Json::parse(&op.line).map_err(|e| e.to_string())?;
            replay.layers(op_id, &req_json, op)?;
        }
        if first_timed == 0 {
            first_timed = op_id + 1;
        } else if start.elapsed() >= run_for {
            break;
        }
        session = streams[next_stream].next_session();
        next_stream = (next_stream + 1) % streams.len();
    }
    replay.snapshot(op_id)?;
    drop(server);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let _ = std::fs::remove_dir_all(workload::fresh_data_dir("layer-wal"));
    let Replay {
        rec,
        solver,
        entails_ns,
        compiled_sizes,
        exa_sizes,
        tseitin_clauses,
        durable,
        ..
    } = replay;
    let layer_spans = rec.spans;

    // Per request over the timed part of the replay.
    let timed: Vec<&Span> = layer_spans.iter().filter(|s| s.op >= first_timed).collect();
    let timed_ops = (op_id + 1 - first_timed).max(1) as f64;
    let per_op = |pred: &dyn Fn(&str) -> bool| -> f64 {
        timed
            .iter()
            .filter(|s| pred(s.name))
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / timed_ops
    };
    let parse_ns = per_op(&|n| n == "server.protocol.parse");
    let execute_ns = per_op(&|n| n.starts_with("server.execute."));
    let lower_ns = per_op(&|n| ON_PATH.contains(&n) && (durable || !n.starts_with("server.wal.")));
    let transport_ns = e2e_ns - parse_ns - execute_ns;
    let unattributed_ns = execute_ns - lower_ns;

    let us = |name: &str| trace::mean_us(&layer_spans, name);
    let mean = |v: &[u64]| stats::mean(v);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let delta = |path: &[&str]| field(&stats_after, path) - field(&stats_before, path);
    let hits = field(&stats_after, &["cache", "hits"]);
    let misses = field(&stats_after, &["cache", "misses"]);
    let appends = delta(&["wal", "appends"]);
    let q = solver.queries as f64;
    let metrics = vec![
        metric(
            "server.protocol.parse_us",
            us("server.protocol.parse"),
            "us",
        ),
        metric("server.execute_us.load", us("server.execute.load"), "us"),
        metric(
            "server.execute_us.revise",
            us("server.execute.revise"),
            "us",
        ),
        metric("server.execute_us.query", us("server.execute.query"), "us"),
        metric("server.transport_us", transport_ns / 1000.0, "us"),
        metric(
            "server.registry.cache_key_us",
            us("server.registry.cache_key"),
            "us",
        ),
        metric(
            "server.registry.evictions",
            field(&stats_after, &["cache", "evictions"]),
            "count",
        ),
        metric("server.wal.append_us", us("server.wal.append"), "us"),
        metric("server.wal.snapshot_us", us("server.wal.snapshot"), "us"),
        metric("server.cpu_ms_per_op", cpu_ms / tcp_ops.max(1.0), "ms"),
        metric("revision.compile_us", us("revision.compile"), "us"),
        metric("revision.distance_us", us("revision.distance"), "us"),
        metric("revision.compiled_size", mean(&compiled_sizes), "count"),
        metric("circuits.exa_us", us("circuits.exa"), "us"),
        metric("circuits.exa_size", mean(&exa_sizes), "count"),
        metric("sat.base_load_us", us("sat.base_load"), "us"),
        metric("sat.entails_us", us("sat.entails"), "us"),
        metric(
            "sat.entails_us.entailed",
            mean(&entails_ns[1]) / 1000.0,
            "us",
        ),
        metric(
            "sat.entails_us.not_entailed",
            mean(&entails_ns[0]) / 1000.0,
            "us",
        ),
        metric(
            "sat.decisions_per_query",
            ratio(solver.decisions as f64, q),
            "count",
        ),
        metric(
            "sat.conflicts_per_query",
            ratio(solver.conflicts as f64, q),
            "count",
        ),
        metric(
            "sat.propagations_per_query",
            ratio(solver.propagations as f64, q),
            "count",
        ),
        metric("logic.parse_us", us("logic.parse"), "us"),
        metric("logic.tseitin_us", us("logic.tseitin"), "us"),
        metric("logic.tseitin_clauses", mean(&tseitin_clauses), "count"),
        metric("unattributed_us", unattributed_ns / 1000.0, "us"),
        metric("tracing_overhead_us", overhead_ns / 1000.0, "us"),
    ];
    let mut report: Vec<Metric> = vec![
        metric("e2e_us_per_request", e2e_ns / 1000.0, "us"),
        metric("parse_us_per_request", parse_ns / 1000.0, "us"),
        metric("execute_us_per_request", execute_ns / 1000.0, "us"),
        metric("lower_layers_us_per_request", lower_ns / 1000.0, "us"),
        metric("replayed_requests", replayed as f64, "count"),
        metric("revision.omega_us", us("revision.omega"), "us"),
        metric("server.execute_us.drop", us("server.execute.drop"), "us"),
        metric(
            "server.registry.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "server.wal.fsyncs_per_write",
            ratio(delta(&["wal", "fsyncs"]), appends),
            "count",
        ),
        metric(
            "server.wal.bytes_per_write",
            ratio(delta(&["wal", "bytes"]), appends),
            "bytes",
        ),
        metric("server.registry.cache_hits", hits, "count"),
        metric("server.registry.cache_misses", misses, "count"),
    ];
    for step in STEP_SPANS {
        if trace::total(&layer_spans, step).1 > 0 {
            report.push(metric(
                step.replace("compile.", "compile_us."),
                us(step),
                "us",
            ));
        }
    }
    spans.extend(layer_spans);
    let path = PathBuf::from(crate::SCRATCH_DIR).join(format!("trace-{}.json", w.name()));
    trace::write_chrome(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        spans.len(),
        path.display()
    );

    let mut errors = outcome_tally.errors;
    errors.extend(failed.iter().take(8).cloned());
    Ok(Outcome {
        attempted: outcome_tally.attempted + replayed,
        failed: outcome_tally.failed + failed.len() as u64,
        errors,
        metrics,
        report,
    })
}

fn execute_span(cmd: &str) -> &'static str {
    match cmd {
        "load" => "server.execute.load",
        "revise" => "server.execute.revise",
        "query" => "server.execute.query",
        _ => "server.execute.drop",
    }
}
