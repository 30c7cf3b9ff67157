//! The epoll event loop front end: per-connection request order
//! against one-line-at-a-time oracles (a fixed script across all eight
//! revision operators, seeded random pipelined scripts, and a burst
//! followed by a half-close), byte-identical behaviour versus the
//! stdio transport, protocol version negotiation, and the HTTP/1.1
//! gateway (data-plane routes, keep-alive, and a malformed-request
//! battery).
//!
//! Every test talks to a real listener over loopback TCP — the same
//! bytes a foreign client would send — so the serialization boundary
//! is part of what is under test.

use proptest::prelude::*;
use revkb::server::{Json, Server, ServerConfig, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};

/// The eight revision operators, as on the wire.
const OPERATORS: [&str; 8] = [
    "winslett", "borgida", "forbus", "satoh", "dalal", "weber", "gfuv", "widtio",
];

/// Serve a fresh server on a loopback event loop; returns the address
/// and the join handle (the loop exits after `shutdown`).
fn spawn_evloop() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::new(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.serve_event_loop(listener).expect("event loop");
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    stream.write_all(framed.as_bytes()).expect("loopback write");
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("loopback read");
    assert!(n > 0, "server closed the connection early");
    line.trim_end().to_string()
}

fn shutdown(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    send_line(stream, r#"{"cmd":"shutdown"}"#);
    let resp = read_line(reader);
    assert!(resp.contains("shutting_down"), "bad shutdown ack: {resp}");
}

/// The differential script: every revision operator compiled, queried
/// and batch-queried, plus the list/drop bookkeeping around them.
/// Responses carry no wall-clock fields, and every line supplies an
/// explicit trace id (a server-minted one would differ run to run —
/// even on the rejected `warp` line, whose trace must be salvaged),
/// so a fresh server answers the script deterministically.
fn differential_script() -> Vec<String> {
    let mut script = Vec::new();
    for (i, op) in OPERATORS.iter().enumerate() {
        script.push(format!(
            r#"{{"id":"load-{op}","trace":"1{i}","cmd":"load","kb":"kb-{op}","t":"a & b; b -> c"}}"#
        ));
        script.push(format!(
            r#"{{"id":"revise-{op}","trace":"2{i}","cmd":"revise","kb":"kb-{op}","op":"{op}","p":"!b | !c"}}"#
        ));
        script.push(format!(
            r#"{{"id":"query-{op}","trace":"3{i}","cmd":"query","kb":"kb-{op}","q":"a"}}"#
        ));
        script.push(format!(
            r#"{{"id":"batch-{op}","trace":"4{i}","cmd":"query_batch","kb":"kb-{op}","qs":["a","!a","b -> a"]}}"#
        ));
        if i % 2 == 0 {
            script.push(format!(
                r#"{{"id":"drop-{op}","trace":"5{i}","cmd":"drop","kb":"kb-{op}"}}"#
            ));
        }
    }
    script.push(r#"{"id":"list","trace":"91","cmd":"list"}"#.to_string());
    script.push(r#"{"id":"bad","trace":"92","cmd":"warp"}"#.to_string());
    script.push(r#"{"id":"hello","trace":"93","cmd":"hello"}"#.to_string());
    script
}

/// The script as one newline-framed burst.
fn framed(script: &[String]) -> String {
    script.iter().map(|l| format!("{l}\n")).collect()
}

/// The script's answers from a fresh server over the stdio transport,
/// which reads and answers one line at a time.
fn stdio_transcript(script: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(framed(script).as_bytes(), &mut out)
        .expect("stdio session");
    String::from_utf8(out)
        .expect("UTF-8 responses")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The script's answers from a fresh event loop, each line sent only
/// after the previous answer arrived.
fn sequential_transcript(script: &[String]) -> Vec<String> {
    let (addr, handle) = spawn_evloop();
    let (mut stream, mut reader) = connect(addr);
    let transcript = script
        .iter()
        .map(|line| {
            send_line(&mut stream, line);
            read_line(&mut reader)
        })
        .collect();
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
    transcript
}

/// The script's answers from a fresh event loop, the whole script
/// written in ONE burst on one connection.
fn burst_transcript(script: &[String]) -> Vec<String> {
    let (addr, handle) = spawn_evloop();
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(framed(script).as_bytes())
        .expect("burst write");
    let transcript = script.iter().map(|_| read_line(&mut reader)).collect();
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
    transcript
}

fn assert_same_lines(got: &[String], want: &[String], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: answer {i} differs");
    }
}

/// The event loop answers the differential script byte-for-byte like
/// the stdio transport — same envelopes, same `req` numbering, same
/// error text — across all eight operators.
#[test]
fn event_loop_matches_stdio_transport() {
    let script = differential_script();
    assert_same_lines(
        &sequential_transcript(&script),
        &stdio_transcript(&script),
        "event loop vs stdio",
    );
}

/// Pipelining oracle: the whole script sent in ONE write comes back
/// line for line as the one-at-a-time transcript, `req` included —
/// each connection's requests run and answer in request order.
#[test]
fn pipelined_burst_matches_sequential_oracle() {
    let script = differential_script();
    assert_same_lines(
        &burst_transcript(&script),
        &sequential_transcript(&script),
        "burst vs sequential",
    );
}

/// A client that half-closes its write side right after the burst
/// still gets every answer, in order, before the server closes the
/// connection.
#[test]
fn half_closed_burst_still_gets_every_answer() {
    let script = differential_script();
    let (addr, handle) = spawn_evloop();
    let (mut stream, reader) = connect(addr);
    stream
        .write_all(framed(&script).as_bytes())
        .expect("burst write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let answers: Vec<String> = reader
        .lines()
        .map(|line| line.expect("loopback read"))
        .collect();
    assert_same_lines(&answers, &stdio_transcript(&script), "half-closed burst");

    let (mut ctl, mut ctl_reader) = connect(addr);
    shutdown(&mut ctl, &mut ctl_reader);
    handle.join().expect("serve thread");
}

/// A burst far larger than the loop buffers per connection: reading
/// pauses while the backlog waits and resumes as answers go out, and
/// every answer still arrives in order.
#[test]
fn oversized_burst_answers_in_order() {
    let script: Vec<String> = (0..3000)
        .map(|i| {
            let cmd = match i % 3 {
                0 => r#""cmd":"load","kb":"k","t":"a & b""#,
                1 => r#""cmd":"query","kb":"k","q":"a""#,
                _ => r#""cmd":"ping""#,
            };
            format!(r#"{{"id":{i},"trace":"{:x}",{cmd}}}"#, 0x1000 + i)
        })
        .collect();
    let (addr, handle) = spawn_evloop();
    let (stream, mut reader) = connect(addr);
    let burst = framed(&script);
    assert!(burst.len() > 128 * 1024, "burst must overflow the buffer");
    let mut writer = stream.try_clone().expect("clone stream");
    let writing = std::thread::spawn(move || writer.write_all(burst.as_bytes()));
    let answers: Vec<String> = script.iter().map(|_| read_line(&mut reader)).collect();
    writing.join().expect("writer thread").expect("burst write");
    assert_same_lines(&answers, &stdio_transcript(&script), "oversized burst");

    let (mut ctl, mut ctl_reader) = connect(addr);
    shutdown(&mut ctl, &mut ctl_reader);
    handle.join().expect("serve thread");
}

/// A `replicate` pipelined behind a data request waits for it, then
/// takes the connection over: the earlier answer goes out first, then
/// the handshake's (a refusal here, as this server keeps no log), and
/// the replication stream closes the connection.
#[test]
fn replicate_behind_a_pipelined_request_keeps_its_answer() {
    let (addr, handle) = spawn_evloop();
    let (mut stream, mut reader) = connect(addr);
    let burst = concat!(
        r#"{"id":"first","trace":"1","cmd":"load","kb":"k","t":"a & b"}"#,
        "\n",
        r#"{"id":"repl","trace":"2","cmd":"replicate"}"#,
        "\n",
    );
    stream.write_all(burst.as_bytes()).expect("burst write");
    let first = read_line(&mut reader);
    assert!(
        first.contains(r#""id":"first""#) && first.contains(r#""ok":true"#),
        "{first}"
    );
    let repl = read_line(&mut reader);
    assert!(
        repl.contains(r#""id":"repl""#) && repl.contains(r#""code":"unsupported""#),
        "{repl}"
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("loopback read"),
        0,
        "{rest}"
    );

    let (mut ctl, mut ctl_reader) = connect(addr);
    shutdown(&mut ctl, &mut ctl_reader);
    handle.join().expect("serve thread");
}

/// Wire arguments the random scripts draw from: four letters, so
/// every compile and query stays small.
const THEORIES: [&str; 4] = ["a & b; b -> c", "a | b; !c", "a; b; c -> d", "!a & (b | c)"];
const REVISIONS: [&str; 4] = ["!b | !c", "!a", "c & d", "a -> !b"];
const QUERIES: [&str; 4] = ["a", "b -> c", "!d", "c | d"];
/// The model-based operators, whose KBs take revision chains.
const CHAIN_OPERATORS: [&str; 6] = ["winslett", "borgida", "forbus", "satoh", "dalal", "weber"];

/// One random script line: `kind` picks the command (weighted toward
/// `load` and `revise`), `k` one of three KB names, `x` and `y` its
/// arguments. Each line carries an explicit
/// trace id so the answers are deterministic.
fn script_line(i: usize, (kind, k, x, y): (u8, u8, u8, u8)) -> String {
    let (k, x, y) = (k as usize, x as usize, y as usize);
    let head = format!(r#"{{"id":"s{i}","trace":"{:x}","#, 0x1000 + i);
    let kb = format!("k{k}");
    let body = match kind {
        0..=2 => format!(r#""cmd":"load","kb":"{kb}","t":"{}""#, THEORIES[x % 4]),
        // Mostly the KB's own operator, so chains grow; sometimes
        // the next one, which a revised KB refuses.
        3..=6 => {
            let op = CHAIN_OPERATORS[(k + x / 5) % 6];
            format!(
                r#""cmd":"revise","kb":"{kb}","op":"{op}","p":"{}""#,
                REVISIONS[y]
            )
        }
        7 | 8 => format!(r#""cmd":"query","kb":"{kb}","q":"{}""#, QUERIES[x % 4]),
        9 => format!(
            r#""cmd":"query_batch","kb":"{kb}","qs":["{}","{}"]"#,
            QUERIES[x % 4],
            QUERIES[y]
        ),
        10 => r#""cmd":"list""#.to_string(),
        11 => format!(r#""cmd":"drop","kb":"{kb}""#),
        12 if x % 2 == 0 => r#""cmd":"ping""#.to_string(),
        12 => r#""cmd":"hello""#.to_string(),
        // Malformed, but still JSON objects: the trace survives the
        // rejection, and the first line still sniffs as NDJSON.
        _ => match x % 3 {
            0 => r#""cmd":"warp""#.to_string(),
            1 => format!(r#""cmd":"query","kb":"{kb}""#),
            _ => format!(r#""cmd":"revise","kb":"{kb}","op":"nonsense","p":"a""#),
        },
    };
    format!("{head}{body}}}")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Random pipelined scripts over three KBs (seeded by
    /// `REVKB_PROP_SEED`): one burst on one connection answers byte
    /// for byte like a fresh server answering one line at a time.
    #[test]
    fn random_bursts_match_one_at_a_time_transcript(
        steps in proptest::collection::vec((0u8..14, 0u8..3, 0u8..6, 0u8..4), 20..61)
    ) {
        let script: Vec<String> = steps
            .into_iter()
            .enumerate()
            .map(|(i, step)| script_line(i, step))
            .collect();
        let burst = burst_transcript(&script);
        let oracle = stdio_transcript(&script);
        prop_assert_eq!(burst.len(), oracle.len());
        for (i, (got, want)) in burst.iter().zip(&oracle).enumerate() {
            prop_assert_eq!(got, want, "answer {} to {}", i, &script[i]);
        }
    }
}

/// `hello` negotiation and the `v` field: in-range versions answered,
/// out-of-range versions rejected with a stable error, every envelope
/// stamped with the current protocol version.
#[test]
fn version_negotiation() {
    let (addr, handle) = spawn_evloop();
    let (mut stream, mut reader) = connect(addr);

    send_line(&mut stream, r#"{"id":1,"cmd":"hello"}"#);
    let hello = Json::parse(&read_line(&mut reader)).expect("hello JSON");
    assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        hello.get("v").and_then(Json::as_u64),
        Some(PROTOCOL_VERSION)
    );
    let result = hello.get("result").expect("hello result");
    assert_eq!(
        result.get("server").and_then(Json::as_str),
        Some("revkb-server")
    );
    assert_eq!(
        result.get("protocol").and_then(Json::as_u64),
        Some(PROTOCOL_VERSION)
    );
    assert_eq!(result.get("min_protocol").and_then(Json::as_u64), Some(1));
    let features = result
        .get("features")
        .and_then(Json::as_array)
        .expect("features array");
    assert!(features.iter().any(|f| f.as_str() == Some("pipelining")));

    // Both supported versions answer; the future one is refused.
    for (v, ok) in [(1, true), (2, true), (99, false)] {
        send_line(&mut stream, &format!(r#"{{"id":2,"cmd":"ping","v":{v}}}"#));
        let resp = Json::parse(&read_line(&mut reader)).expect("ping JSON");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(ok),
            "version {v}"
        );
        if !ok {
            assert_eq!(resp.get("code").and_then(Json::as_str), Some("bad_request"));
            let error = resp.get("error").and_then(Json::as_str).expect("error");
            assert!(error.contains("unsupported protocol version"), "{error}");
        }
    }
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
}

/// The transport-agnostic entry point answers exactly like the line
/// protocol: one `execute` call per parsed request, same envelope.
#[test]
fn execute_matches_line_transport() {
    use revkb::server::protocol::parse_request;
    let by_line = Server::new(ServerConfig::default());
    let by_call = Server::new(ServerConfig::default());
    for line in differential_script() {
        let over_line = by_line.handle_line(&line).expect("non-blank line");
        match parse_request(&line) {
            Ok(request) => {
                assert_eq!(by_call.execute(&request).render(), over_line);
            }
            Err(_) => {
                // `execute` takes parsed requests only; the reject path
                // stays behind `handle_line`. Keep the req counters in
                // step for the remaining lines.
                assert_eq!(by_call.handle_line(&line).expect("non-blank"), over_line);
            }
        }
    }
}

// ---------------------------------------------------------------
// HTTP gateway (Linux: the gateway lives on the epoll front end).
// ---------------------------------------------------------------

#[cfg(target_os = "linux")]
mod http_gateway {
    use super::*;

    /// Read one HTTP/1.1 response; returns (status, body).
    fn read_http(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        let n = reader.read_line(&mut status_line).expect("status line");
        assert!(n > 0, "server closed before a response");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header line");
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    fn post(stream: &mut TcpStream, path: &str, body: &str) {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("http write");
    }

    /// The full data plane over `POST /v1/<cmd>` and `POST /v1`, on
    /// one keep-alive connection, with GET metrics routes served by
    /// the same listener.
    #[test]
    fn gateway_routes_answer_the_data_plane() {
        let (addr, handle) = spawn_evloop();
        let (mut stream, mut reader) = connect(addr);

        post(&mut stream, "/v1/load", r#"{"kb":"k","t":"a & b; b -> c"}"#);
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("v").and_then(Json::as_u64), Some(PROTOCOL_VERSION));

        // Same keep-alive connection: the path names the command, the
        // body carries the arguments; a `cmd` in the body loses to the
        // path.
        post(
            &mut stream,
            "/v1/query",
            r#"{"cmd":"drop","kb":"k","q":"a"}"#,
        );
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(
            json.get("result")
                .and_then(|r| r.get("entails"))
                .and_then(Json::as_bool),
            Some(true),
            "path must win over the body cmd: {body}"
        );

        // The whole-request form.
        post(&mut stream, "/v1", r#"{"cmd":"query","kb":"k","q":"!a"}"#);
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(
            json.get("result")
                .and_then(|r| r.get("entails"))
                .and_then(Json::as_bool),
            Some(false)
        );

        // Bad body → protocol-level bad_request envelope, still 200
        // transport-wise (the command failed, not the gateway).
        post(
            &mut stream,
            "/v1/revise",
            r#"{"kb":"k","op":"nonsense","p":"a"}"#,
        );
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("code").and_then(Json::as_str), Some("bad_request"));

        // Metrics plane on the same socket.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("GET write");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"), "{body}");

        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("GET write");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("revkb_server_requests_total"), "{body}");

        // A line-protocol shutdown on a second connection stops the loop.
        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }

    /// Malformed-HTTP battery: every deformity gets the documented
    /// status code and the connection survives the process (no panic,
    /// no hang).
    #[test]
    fn malformed_http_battery() {
        let cases: &[(&[u8], u16)] = &[
            // Unknown command path.
            (
                b"POST /v1/warp HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
                404,
            ),
            // Data-plane path with the wrong method.
            (b"GET /v1/query HTTP/1.1\r\n\r\n", 405),
            // Unknown path entirely.
            (b"POST /nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 404),
            // Mangled request line.
            (b"NONSENSE\r\n\r\n", 400),
            // Not HTTP at a version the parser accepts.
            (b"POST /v1 SMTP/1.0\r\n\r\n", 400),
            // Transfer-Encoding and Content-Length together: the
            // request-smuggling shape is refused outright.
            (
                b"POST /v1 HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
                400,
            ),
            // Chunked body with a garbage chunk-size line.
            (
                b"POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
                400,
            ),
            // Declared body over the 1 MiB cap.
            (
                b"POST /v1 HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
                413,
            ),
        ];
        let (addr, handle) = spawn_evloop();
        for (bytes, expected) in cases {
            let (mut stream, mut reader) = connect(addr);
            stream.write_all(bytes).expect("malformed write");
            let (status, _) = read_http(&mut reader);
            assert_eq!(
                status,
                *expected,
                "for request {:?}",
                String::from_utf8_lossy(bytes)
            );
        }

        // Oversized head: 8 KiB of headers with no terminating blank
        // line must be cut off with 431, not buffered forever.
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\n")
            .expect("head write");
        let filler = format!("X-Filler: {}\r\n", "y".repeat(120));
        for _ in 0..80 {
            stream.write_all(filler.as_bytes()).expect("filler write");
        }
        let (status, _) = read_http(&mut reader);
        assert_eq!(status, 431);

        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }

    /// Protocol sniffing: the first byte decides NDJSON vs HTTP per
    /// connection, and both kinds run concurrently on one listener.
    #[test]
    fn line_and_http_clients_share_the_listener() {
        let (addr, handle) = spawn_evloop();

        let (mut line_conn, mut line_reader) = connect(addr);
        send_line(&mut line_conn, r#"{"cmd":"load","kb":"s","t":"a"}"#);
        let resp = read_line(&mut line_reader);
        assert!(resp.contains(r#""ok":true"#), "{resp}");

        let (mut http_conn, mut http_reader) = connect(addr);
        post(&mut http_conn, "/v1/query", r#"{"kb":"s","q":"a"}"#);
        let (status, body) = read_http(&mut http_reader);
        assert_eq!(status, 200);
        assert!(body.contains(r#""entails":true"#), "{body}");

        // The line connection is still alive after HTTP traffic.
        send_line(&mut line_conn, r#"{"cmd":"query","kb":"s","q":"a"}"#);
        let resp = read_line(&mut line_reader);
        assert!(resp.contains(r#""entails":true"#), "{resp}");

        shutdown(&mut line_conn, &mut line_reader);
        handle.join().expect("serve thread");
    }
}
