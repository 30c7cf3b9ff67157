//! End-to-end and per-layer benchmark of the revkb revision service.
//!
//! ```text
//! perfbench [--workload thm36-query|thm65-chain|durable-mix|all]
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run starts `revkb-server` as a child process,
//! sets it up several times (reporting the median set-up time), then
//! drives the workload's closed loop over loopback TCP for `--seconds`
//! and checks every answer against an independent reference. With
//! `--trace 1` it instead replays the workload's own inputs through
//! the layers' public functions in-process, timing each call (see
//! `layers.rs`). The last line of standard output is the result
//! object; the exit code is non-zero when any answer was wrong or any
//! request failed.

mod client;
mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{Inputs, Tally, Workload};

/// Working directory for server data dirs (removed after each run)
/// and span files, relative to where the benchmark runs.
pub const SCRATCH_DIR: &str = ".perfbench_run";

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken
/// less than `SETUP_BUDGET_S` in all; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one workload run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Further figures for the human-readable report only.
    pub report: Vec<Metric>,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// A slice of the timed loop.
#[derive(Default)]
struct Window {
    secs: f64,
    counted: usize,
    queries: Vec<u64>,
    sessions: Vec<u64>,
}

/// Cut the loop into windows: one per session when a single connection
/// runs long sessions, else one per whole second (the partial last
/// second is dropped). The host's speed drifts over seconds; medians
/// over windows keep a slow or fast stretch from moving a run's figure
/// the way a mean over the whole run would.
fn windows(w: Workload, tally: &Tally, elapsed: f64) -> Vec<Window> {
    let mut by_key: BTreeMap<u64, Window> = BTreeMap::new();
    let per_session = w.conns() == 1;
    let whole_secs = elapsed.floor().max(1.0) as u64;
    for e in &tally.timeline {
        let key = if per_session {
            e.session
        } else {
            (e.end_ns / 1_000_000_000).min(whole_secs - 1)
        };
        if !per_session && elapsed >= 1.0 && e.end_ns >= whole_secs * 1_000_000_000 {
            continue;
        }
        let win = by_key.entry(key).or_default();
        match e.cmd {
            "session" => {
                win.sessions.push(e.ns);
                if per_session {
                    win.secs = e.ns as f64 / 1e9;
                }
            }
            cmd => {
                if cmd == "query" {
                    win.queries.push(e.ns);
                }
                if w.counted().is_none_or(|c| c == cmd) {
                    win.counted += 1;
                }
            }
        }
        if !per_session {
            win.secs = 1.0;
        }
    }
    by_key.into_values().filter(|w| w.secs > 0.0).collect()
}

/// Median over windows of `f`, skipping windows where it is undefined.
fn window_median(wins: &[Window], f: impl Fn(&Window) -> Option<f64>) -> f64 {
    let values: Vec<f64> = wins.iter().filter_map(f).collect();
    if values.is_empty() {
        return f64::NAN;
    }
    stats::median_f64(&values)
}

/// Run the workload untraced and derive the end-to-end metrics.
fn run_e2e(inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let w = inputs.workload;
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_tally = Tally::default();
    let server = loop {
        let (server, secs, tally) = workload::set_up(inputs, &format!("setup{}", setups.len()))
            .map_err(|e| format!("set-up: {e}"))?;
        setups.push(secs);
        setup_tally.merge(tally);
        let spent: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            break server;
        }
        server
            .stop()
            .map_err(|e| format!("stopping a set-up server: {e}"))?;
    };
    // Peak RSS after set-up is the memory a fixed amount of work needs;
    // the loop's peak also grows with how many requests the time-bound
    // loop served, so a faster server would read as a bigger one.
    let rss_setup = server.peak_rss_mb().map_err(|e| e.to_string())?;
    let cpu_before = server.cpu_ms().map_err(|e| e.to_string())?;
    let (tally, elapsed) =
        workload::closed_loop(&mut inputs.streams(), &server.addr, seconds, None)
            .map_err(|e| format!("loop: {e}"))?;
    let cpu_ms = server.cpu_ms().map_err(|e| e.to_string())? - cpu_before;
    let rss = server.peak_rss_mb().map_err(|e| e.to_string())?;
    server
        .stop()
        .map_err(|e| format!("stopping the server: {e}"))?;

    let queries = stats::sorted(&tally.samples("query"));
    let sessions = stats::sorted(&tally.samples("session"));
    let mut writes: Vec<u64> = ["load", "revise", "drop"]
        .iter()
        .flat_map(|c| tally.samples(c))
        .collect();
    writes.sort_unstable();
    let all_ops = tally.requests();
    let ops = w.counted().map_or(all_ops, |cmd| tally.samples(cmd).len());
    if queries.is_empty() || sessions.is_empty() || ops == 0 {
        return Err(format!(
            "the loop completed no work in {seconds}s: {:?}",
            tally.errors
        ));
    }
    let mut sizes = setup_tally.sizes.clone();
    sizes.extend(tally.sizes.iter());
    let compiled_nodes = sizes.values().sum::<u64>() as f64 / sizes.len().max(1) as f64;

    let wins = windows(w, &tally, elapsed);
    let median_of = |v: &[u64]| (!v.is_empty()).then(|| stats::quantile(&stats::sorted(v), 0.5));
    let metrics = vec![
        metric("setup_s", stats::median_f64(&setups), "s"),
        metric(
            "ops_per_s",
            window_median(&wins, |w| Some(w.counted as f64 / w.secs)),
            "1/s",
        ),
        metric(
            "session_p50_ms",
            ms(window_median(&wins, |w| median_of(&w.sessions))),
            "ms",
        ),
        metric("compiled_nodes", compiled_nodes, "count"),
        metric("server_rss_mb", rss_setup, "MB"),
    ];
    let mut report = vec![
        metric("setups", setups.len() as f64, "count"),
        metric("windows", wins.len() as f64, "count"),
        metric("ops_per_s_whole_run", ops as f64 / elapsed, "1/s"),
        metric("server_rss_mb_after_loop", rss, "MB"),
        metric(
            "query_p50_ms",
            ms(window_median(&wins, |w| median_of(&w.queries))),
            "ms",
        ),
        metric("query_samples", queries.len() as f64, "count"),
        metric("session_samples", sessions.len() as f64, "count"),
        metric("write_samples", writes.len() as f64, "count"),
        metric(
            "error_rate",
            (setup_tally.failed + tally.failed) as f64
                / (setup_tally.attempted + tally.attempted) as f64,
            "ratio",
        ),
        metric("server_cpu_ms_per_op", cpu_ms / all_ops as f64, "ms"),
    ];
    let mut tail = |name: &str, sorted: &[u64], q: f64| {
        if !sorted.is_empty() && (q == 0.5 || stats::tail_supported(sorted.len(), q)) {
            report.push(metric(name, ms(stats::quantile(sorted, q)), "ms"));
        }
    };
    tail("query_p90_ms", &queries, 0.9);
    tail("query_p99_ms", &queries, 0.99);
    tail("session_p90_ms", &sessions, 0.9);
    tail("write_p50_ms", &writes, 0.5);
    tail("write_p99_ms", &writes, 0.99);
    let mut errors = setup_tally.errors;
    errors.extend(tally.errors);
    Ok(Outcome {
        attempted: setup_tally.attempted + tally.attempted,
        failed: setup_tally.failed + tally.failed,
        errors,
        metrics,
        report,
    })
}

/// FNV-1a over the set-up requests and the first sessions of every
/// connection's stream: equal digests mean byte-identical streams.
fn stream_digest(inputs: &Inputs) -> String {
    let mut h = gen::FNV_OFFSET;
    let mut feed = |ops: &[gen::Op]| {
        for op in ops {
            h = gen::fnv(gen::fnv(h, op.line.as_bytes()), b"\n");
        }
    };
    feed(&inputs.setup_ops());
    for mut stream in inputs.streams() {
        for _ in 0..16 {
            feed(&stream.next_session());
        }
    }
    format!("{h:016x}")
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let describe = git_describe();
    let mut all_correct = true;
    for &w in &args.workloads {
        let inputs = Inputs::new(w, args.seed);
        let outcome = if args.trace {
            layers::run_traced(&inputs, args.seconds)
        } else {
            run_e2e(&inputs, args.seconds)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let correct = outcome.failed == 0;
        all_correct &= correct;
        eprintln!(
            "== {} (seed {}, {}s, trace {}, nproc {nproc}, {describe})",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for m in outcome.metrics.iter().chain(&outcome.report) {
            eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "  attempted {} failed {} error_rate {:.6}",
            outcome.attempted,
            outcome.failed,
            outcome.failed as f64 / outcome.attempted.max(1) as f64
        );
        for e in &outcome.errors {
            eprintln!("  error: {e}");
        }
        println!(
            "{{\"run\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
             \"git_describe\":\"{}\",\"stream_digest\":\"{}\",\"server_flags\":\"{}\"}},\"report\":{}}}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            describe.replace('"', ""),
            stream_digest(&inputs),
            server_flags(w),
            metrics_json(&outcome.report)
        );
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            outcome.attempted.max(1),
            outcome.failed,
            metrics_json(&outcome.metrics)
        );
    }
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn server_flags(w: Workload) -> String {
    let mut flags = client::BASE_FLAGS.join(" ");
    if w.durable() {
        flags.push_str(" --data-dir <fresh> ");
        flags.push_str(&client::DURABLE_FLAGS.join(" "));
    }
    flags
}
