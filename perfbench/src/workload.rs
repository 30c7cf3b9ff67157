//! The three workloads: their set-up, their sessions, and a closed
//! loop that drives them over loopback TCP and checks every answer.

use crate::client::{Conn, ServerProc};
use crate::gen::{self, Expect, MixKey, Op, Rng};
use crate::trace::{Recorder, Span};
use revkb_server::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 3.6's read path: distinct `Q_π` queries against Dalal
    /// and Weber `T'` at n = 6.
    Thm36Query,
    /// Theorem 6.5's iterated Dalal chain at n = 5, recompiled per
    /// session on a fresh cache key.
    Thm65Chain,
    /// Durable writes beside reads over a cache-sized pool.
    DurableMix,
}

pub const ALL: [Workload; 3] = [
    Workload::Thm36Query,
    Workload::Thm65Chain,
    Workload::DurableMix,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm36Query => "thm36-query",
            Workload::Thm65Chain => "thm65-chain",
            Workload::DurableMix => "durable-mix",
        }
    }

    /// Client connections of the closed loop (at most `nproc` = 2).
    pub fn conns(self) -> usize {
        match self {
            Workload::Thm65Chain => 1,
            _ => 2,
        }
    }

    /// The command whose completions `ops_per_s` counts.
    pub fn counted(self) -> Option<&'static str> {
        match self {
            Workload::Thm36Query => Some("query"),
            Workload::Thm65Chain => Some("revise"),
            Workload::DurableMix => None,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableMix
    }
}

/// Everything a workload's requests are generated from.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub thm36: gen::Family,
    pub pool: Arc<Vec<MixKey>>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs {
            workload,
            seed,
            thm36: gen::thm36_family(),
            pool: Arc::new(if workload.durable() {
                gen::mix_pool(seed)
            } else {
                Vec::new()
            }),
        }
    }

    /// Requests that bring a fresh server to the timed loop's start
    /// state: compiled KBs and a warmed query path, or a filled cache.
    pub fn setup_ops(&self) -> Vec<Op> {
        let mut rng = Rng::new(self.seed, self.workload.name(), u64::MAX);
        match self.workload {
            Workload::Thm36Query => {
                let f = &self.thm36;
                let pi = f.instance(&mut rng, gen::THM36_PI);
                vec![
                    gen::load("dalal", &f.theory),
                    gen::load("weber", &f.theory),
                    gen::revise("dalal", "dalal", &f.p_single(), true),
                    gen::revise("weber", "weber", &f.p_single(), true),
                    f.query("dalal", &pi),
                    f.query("weber", &pi),
                ]
            }
            Workload::Thm65Chain => gen::thm65_session(&mut rng, "warm"),
            Workload::DurableMix => self
                .pool
                .iter()
                .flat_map(|key| {
                    [
                        gen::load("warm", &key.theory),
                        gen::revise("warm", "dalal", &key.p, false),
                        gen::drop_kb("warm"),
                    ]
                })
                .collect(),
        }
    }

    /// One session stream per client connection.
    pub fn streams(&self) -> Vec<SessionStream> {
        (0..self.workload.conns())
            .map(|c| self.sessions(c))
            .collect()
    }

    /// The session stream of connection `conn`: an endless sequence,
    /// the same for the same seed.
    pub fn sessions(&self, conn: usize) -> SessionStream {
        SessionStream {
            workload: self.workload,
            rng: Rng::new(self.seed, self.workload.name(), conn as u64),
            kb: format!("c{conn}"),
            thm36: self.thm36.clone(),
            pool: Arc::clone(&self.pool),
        }
    }
}

pub struct SessionStream {
    workload: Workload,
    rng: Rng,
    kb: String,
    thm36: gen::Family,
    pool: Arc<Vec<MixKey>>,
}

impl SessionStream {
    /// The next session's requests.
    pub fn next_session(&mut self) -> Vec<Op> {
        match self.workload {
            // The paper's claim pairs the operators: C_π ⊨ T *D P iff
            // C_π ⊨ T *Web P iff π is satisfiable, so one session asks
            // both KBs about one π.
            Workload::Thm36Query => {
                let pi = self.thm36.instance(&mut self.rng, gen::THM36_PI);
                vec![
                    self.thm36.query("dalal", &pi),
                    self.thm36.query("weber", &pi),
                ]
            }
            Workload::Thm65Chain => gen::thm65_session(&mut self.rng, &self.kb),
            Workload::DurableMix => gen::mix_session(&mut self.rng, &self.pool, &self.kb),
        }
    }
}

/// Check a response against the request's reference. Returns the
/// `compiled_size` of a revise.
pub fn check(op: &Op, resp: &Json) -> Result<Option<u64>, String> {
    let cmd = op.expect.cmd();
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{cmd} failed: {} {}",
            resp.get("code").and_then(Json::as_str).unwrap_or("?"),
            resp.get("error").and_then(Json::as_str).unwrap_or("")
        ));
    }
    let result = resp
        .get("result")
        .ok_or_else(|| format!("{cmd}: response has no result"))?;
    match op.expect {
        Expect::Load | Expect::Drop => Ok(None),
        Expect::Revise { miss } => {
            if result.get("degraded").and_then(Json::as_bool) != Some(false) {
                return Err("revise: degraded compile".into());
            }
            let cache = result.get("cache").and_then(Json::as_str).unwrap_or("?");
            if miss && cache != "miss" {
                return Err(format!("revise: cache {cache:?} on a new key"));
            }
            result
                .get("compiled_size")
                .and_then(Json::as_u64)
                .map(Some)
                .ok_or_else(|| "revise: no compiled_size".into())
        }
        Expect::Query { entails } => match result.get("entails").and_then(Json::as_bool) {
            Some(got) if got == entails => Ok(None),
            Some(got) => Err(format!("query: answered {got}, reference says {entails}")),
            None => Err("query: no answer".into()),
        },
    }
}

/// What one connection (or a set-up) saw.
#[derive(Default)]
pub struct Tally {
    /// Every untraced request and session, with when it ended.
    pub timeline: Vec<Event>,
    /// Round-trip ns of requests sent with a client span around them.
    pub traced: Vec<u64>,
    /// `compiled_size` per compiled chain (FNV of the theory and P's).
    pub sizes: BTreeMap<u64, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.timeline.extend(other.timeline);
        self.traced.extend(other.traced);
        self.sizes.extend(other.sizes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.spans.extend(other.spans);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Untraced round trips (or sessions) of `cmd`, in ns.
    pub fn samples(&self, cmd: &str) -> Vec<u64> {
        self.timeline
            .iter()
            .filter(|e| e.cmd == cmd)
            .map(|e| e.ns)
            .collect()
    }

    /// Untraced requests of any command.
    pub fn requests(&self) -> usize {
        self.timeline.iter().filter(|e| e.cmd != "session").count()
    }
}

/// A completed request (`cmd`) or session (`cmd` = `"session"`).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub cmd: &'static str,
    /// Session the event belongs to, unique within a loop.
    pub session: u64,
    /// When it ended, in ns since the loop started.
    pub end_ns: u64,
    pub ns: u64,
}

/// Run one session's requests in order on `conn`, checking each answer.
/// Event times are taken relative to `origin`.
pub fn run_session(
    conn: &mut Conn,
    ops: &[Op],
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
    op_id: &mut u64,
    origin: Instant,
    session: u64,
) {
    let start = Instant::now();
    let mut chain = gen::FNV_OFFSET;
    for op in ops {
        tally.attempted += 1;
        *op_id += 1;
        let call = match rec.as_deref_mut() {
            Some(rec) => {
                rec.time(span_name(op.expect.cmd()), *op_id, |_| conn.call(&op.line))
                    .0
            }
            None => conn.call(&op.line),
        };
        match call {
            Ok((resp, ns)) => {
                if rec.is_some() {
                    tally.traced.push(ns);
                } else {
                    tally.timeline.push(Event {
                        cmd: op.expect.cmd(),
                        session,
                        end_ns: origin.elapsed().as_nanos() as u64,
                        ns,
                    });
                }
                match op.expect {
                    Expect::Load => chain = gen::fnv(gen::FNV_OFFSET, op.text.as_bytes()),
                    Expect::Revise { .. } => {
                        chain = gen::fnv(gen::fnv(chain, b"|"), op.text.as_bytes())
                    }
                    _ => {}
                }
                match check(op, &resp) {
                    Ok(Some(size)) => {
                        tally.sizes.insert(chain, size);
                    }
                    Ok(None) => {}
                    Err(why) => tally.fail(why),
                }
            }
            Err(e) => tally.fail(format!("{}: transport error: {e}", op.expect.cmd())),
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    if rec.is_none() {
        tally.timeline.push(Event {
            cmd: "session",
            session,
            end_ns: origin.elapsed().as_nanos() as u64,
            ns,
        });
    }
}

fn span_name(cmd: &str) -> &'static str {
    match cmd {
        "load" => "tcp.load",
        "revise" => "tcp.revise",
        "query" => "tcp.query",
        _ => "tcp.drop",
    }
}

/// A data dir for one durable server, inside the working directory.
pub fn fresh_data_dir(tag: &str) -> PathBuf {
    PathBuf::from(crate::SCRATCH_DIR).join(format!("data-{}-{tag}", std::process::id()))
}

/// Start a server for `inputs`' workload and run its set-up; returns
/// the server, the set-up wall time in seconds and the set-up tally.
pub fn set_up(inputs: &Inputs, tag: &str) -> io::Result<(ServerProc, f64, Tally)> {
    let ops = inputs.setup_ops();
    let data_dir = inputs.workload.durable().then(|| fresh_data_dir(tag));
    let start = Instant::now();
    let server = ServerProc::spawn(data_dir)?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut tally = Tally::default();
    let mut op_id = 0;
    run_session(&mut conn, &ops, &mut tally, None, &mut op_id, start, 0);
    let secs = start.elapsed().as_secs_f64();
    Ok((server, secs, tally))
}

/// Drive the workload's closed loop for `seconds`, one connection per
/// stream; returns the merged tally and the loop's wall time. With
/// `traced`, every other session records a client span per request
/// (its latencies go to `Tally::traced`), so traced and untraced
/// requests see the same server state and the difference between them
/// is the tracing overhead alone.
pub fn closed_loop(
    streams: &mut [SessionStream],
    addr: &str,
    seconds: f64,
    traced: Option<Instant>,
) -> io::Result<(Tally, f64)> {
    let run_for = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let results: Vec<io::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> io::Result<Tally> {
                    let mut conn = Conn::connect(addr)?;
                    let mut tally = Tally::default();
                    let mut rec = traced.map(|origin| Recorder::new(origin, c as u64 + 1));
                    let mut op_id = (c as u64 + 1) << 40;
                    let mut session = 0u64;
                    while start.elapsed() < run_for {
                        let ops = stream.next_session();
                        let rec = rec.as_mut().filter(|_| session % 2 == 1);
                        let id = (c as u64) << 40 | session;
                        run_session(&mut conn, &ops, &mut tally, rec, &mut op_id, start, id);
                        session += 1;
                    }
                    if let Some(rec) = rec {
                        tally.spans = rec.spans;
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for r in results {
        tally.merge(r?);
    }
    Ok((tally, elapsed))
}
