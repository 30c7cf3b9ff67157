//! Standalone entry point for the revision service.
//!
//! ```text
//! revkb-server --stdio                 # serve one NDJSON session on stdin/stdout
//! revkb-server --listen 127.0.0.1:7878 # serve TCP clients until `shutdown`
//! ```
//!
//! `--listen` serves NDJSON and the HTTP gateway on the epoll event
//! loop, which answers each connection's requests in request order.
//! `--io evloop`, which named that front end when there were two, is
//! still accepted and has no effect.
//!
//! Tuning comes from `REVKB_SERVER_*` environment variables (see
//! `ServerConfig::from_env`) overridden by the flags below. The same
//! loops are reachable as `revkb serve` from the main CLI.

use revkb_obs as obs;
use revkb_server::{Server, ServerConfig, SyncMode};
use std::io::{self, BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;

const USAGE: &str = "usage: revkb-server (--stdio | --listen ADDR) \
                     [--threads N] [--queue N] [--deadline-ms N] \
                     [--compile-timeout-ms N] [--cache-cap N] \
                     [--slow-ms N] [--data-dir DIR] \
                     [--wal-sync always|batch|off] [--snapshot-every N] \
                     [--replica-of HOST:PORT] [--metrics-addr HOST:PORT] \
                     [--log-file PATH]";

enum Transport {
    Stdio,
    Tcp(String),
}

type Parsed = (Transport, ServerConfig, Option<std::path::PathBuf>);

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut transport = None;
    let mut log_file = None;
    let mut config = ServerConfig::from_env();
    let mut iter = args.iter();
    let value = |iter: &mut std::slice::Iter<String>, flag: &str| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--stdio" => transport = Some(Transport::Stdio),
            "--listen" => transport = Some(Transport::Tcp(value(&mut iter, "--listen")?)),
            "--io" => {
                if value(&mut iter, "--io")? != "evloop" {
                    return Err("--io accepts only evloop, the one TCP front end".to_string());
                }
            }
            "--threads" => {
                config = config.with_threads(
                    value(&mut iter, "--threads")?
                        .parse()
                        .map_err(|_| "--threads needs an integer".to_string())?,
                );
            }
            "--queue" => {
                config = config.with_queue(
                    value(&mut iter, "--queue")?
                        .parse()
                        .map_err(|_| "--queue needs an integer".to_string())?,
                );
            }
            "--deadline-ms" => {
                config = config.with_default_deadline_ms(
                    value(&mut iter, "--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs an integer".to_string())?,
                );
            }
            "--compile-timeout-ms" => {
                config = config.with_compile_timeout_ms(Some(
                    value(&mut iter, "--compile-timeout-ms")?
                        .parse()
                        .map_err(|_| "--compile-timeout-ms needs an integer".to_string())?,
                ));
            }
            "--cache-cap" => {
                config = config.with_cache_capacity(
                    value(&mut iter, "--cache-cap")?
                        .parse()
                        .map_err(|_| "--cache-cap needs an integer".to_string())?,
                );
            }
            "--slow-ms" => {
                config = config.with_slow_ms(
                    value(&mut iter, "--slow-ms")?
                        .parse()
                        .map_err(|_| "--slow-ms needs an integer".to_string())?,
                );
            }
            "--data-dir" => {
                config = config.with_data_dir(Some(value(&mut iter, "--data-dir")?.into()));
            }
            "--wal-sync" => {
                let raw = value(&mut iter, "--wal-sync")?;
                config = config.with_wal_sync(
                    SyncMode::parse(&raw)
                        .ok_or_else(|| "--wal-sync needs always|batch|off".to_string())?,
                );
            }
            "--snapshot-every" => {
                config = config.with_snapshot_every(
                    value(&mut iter, "--snapshot-every")?
                        .parse()
                        .map_err(|_| "--snapshot-every needs an integer".to_string())?,
                );
            }
            "--replica-of" => {
                config = config.with_replica_of(Some(value(&mut iter, "--replica-of")?));
            }
            "--metrics-addr" => {
                config = config.with_metrics_addr(Some(value(&mut iter, "--metrics-addr")?));
            }
            "--log-file" => {
                log_file = Some(std::path::PathBuf::from(value(&mut iter, "--log-file")?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let transport = transport.ok_or_else(|| "pick --stdio or --listen ADDR".to_string())?;
    Ok((transport, config, log_file))
}

/// Run the server on the chosen transport. Shared with `revkb serve`.
pub fn run(args: &[String]) -> ExitCode {
    let (transport, config, log_file) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            obs::error("server", None, || {
                format!("revkb-server: {message}\n{USAGE}")
            });
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &log_file {
        if let Err(e) = obs::set_log_file(path) {
            obs::error("server", None, || {
                format!("revkb-server: cannot open log file {}: {e}", path.display())
            });
            return ExitCode::FAILURE;
        }
    }
    let data_dir = config.data_dir.clone();
    let server = match Server::open(config) {
        Ok(server) => server,
        Err(e) => {
            let dir = data_dir.as_deref().unwrap_or(std::path::Path::new("?"));
            obs::error("server", None, || {
                format!("revkb-server: cannot open data dir {}: {e}", dir.display())
            });
            return ExitCode::FAILURE;
        }
    };
    if let Some(report) = server.recovery_report() {
        obs::info("wal", None, || {
            format!(
                "revkb-server: recovered {} op(s) ({} skipped, {} snapshot artifact(s), \
                 {} torn byte(s) truncated) in {} us",
                report.replayed,
                report.replay_errors,
                report.snapshot_artifacts,
                report.truncated_bytes,
                report.boot_micros
            )
        });
    }
    // Replica mode: the apply loop runs alongside the serving loop
    // and drains on `shutdown` like the serving loop.
    let replication = server.start_replication();
    if let Some(status) = server.replication_status() {
        obs::info("repl", None, || {
            format!(
                "revkb-server: replicating from {} (resume offset {})",
                status.primary, status.offset
            )
        });
    }
    // The metrics plane is a sidecar listener: it must not collide
    // with the stdio data plane, so the banner goes to stderr.
    let metrics = match server.start_metrics_listener() {
        Ok(handle) => {
            if let Some((addr, _)) = &handle {
                obs::info("http", None, || {
                    format!("revkb-server: metrics listening {addr}")
                });
            }
            handle
        }
        Err(e) => {
            obs::error("http", None, || {
                format!("revkb-server: cannot bind metrics listener: {e}")
            });
            return ExitCode::FAILURE;
        }
    };
    let outcome = match transport {
        Transport::Stdio => {
            let stdin = io::stdin();
            let stdout = io::stdout();
            server.serve_stdio(BufReader::new(stdin.lock()), stdout.lock())
        }
        Transport::Tcp(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                // Announce the bound address (the OS picks the port
                // for ":0" binds) so scripts can connect.
                if let Ok(local) = listener.local_addr() {
                    println!("listening {local}");
                    let _ = io::stdout().flush();
                }
                server.serve_event_loop(listener)
            }
            Err(e) => {
                obs::error("server", None, || {
                    format!("revkb-server: cannot bind {addr}: {e}")
                });
                return ExitCode::FAILURE;
            }
        },
    };
    if let Some(handle) = replication {
        // A stdio session can end at EOF without a `shutdown` command;
        // make sure the apply loop drains either way.
        server.begin_shutdown();
        let _ = handle.join();
    }
    if let Some((_, handle)) = metrics {
        server.begin_shutdown();
        let _ = handle.join();
    }
    write_trace_if_requested();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            obs::error("server", None, || format!("revkb-server: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// Under `REVKB_TRACE=chrome`, drain the telemetry accumulated over
/// the server's lifetime and write the trace file at exit — every
/// `server.*` span carries the `req` attribute, so the trace lines up
/// with the wire log's `req` fields.
fn write_trace_if_requested() {
    if obs::mode() != obs::TraceMode::Chrome {
        return;
    }
    let snap = obs::drain();
    let path = obs::trace_file_path();
    match obs::write_chrome_trace(&path, &snap) {
        Ok(()) => obs::info("server", None, || {
            format!("revkb-server: wrote chrome trace to {}", path.display())
        }),
        Err(e) => obs::error("server", None, || {
            format!(
                "revkb-server: cannot write chrome trace to {}: {e}",
                path.display()
            )
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}
