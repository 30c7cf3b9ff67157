//! Wire-level contract of the revision service: golden response
//! lines, id echoing, graceful handling of malformed input, and the
//! LRU artifact cache's eviction/recompile behaviour.

use revkb::server::{Json, Server, ServerConfig};

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    Json::parse(&response).unwrap_or_else(|e| panic!("response not JSON ({e}): {response}"))
}

fn result(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    resp.get("result").expect("ok response carries a result")
}

fn err_code(resp: &Json) -> &str {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{resp:?}"
    );
    resp.get("code")
        .and_then(Json::as_str)
        .expect("error carries a code")
}

/// The exact bytes of the stable responses. These lines are the
/// protocol: scripts and foreign clients parse them, so any drift is
/// a breaking change and must show up here first. The `req` values
/// are deterministic because the server is fresh (the server-assigned
/// monotonic request id starts at 1); the trace ids are deterministic
/// because every request supplies one — a missing `trace` would be
/// answered with a server-minted id, which a golden line cannot pin.
#[test]
fn golden_response_lines() {
    let server = Server::new(ServerConfig::default());
    let golden = [
        (
            r#"{"id":1,"trace":"a1","cmd":"ping"}"#,
            r#"{"v":2,"id":1,"req":1,"trace":"00000000000000a1","ok":true,"result":{"pong":true}}"#,
        ),
        (
            r#"{"id":2,"trace":"a2","cmd":"load","kb":"k","t":"a & b; b -> c; c | d"}"#,
            r#"{"v":2,"id":2,"req":2,"trace":"00000000000000a2","ok":true,"result":{"kb":"k","formulas":3,"letters":4}}"#,
        ),
        (
            r#"{"id":3,"trace":"a3","cmd":"query","kb":"k","q":"a & c"}"#,
            r#"{"v":2,"id":3,"req":3,"trace":"00000000000000a3","ok":true,"result":{"kb":"k","entails":true}}"#,
        ),
        (
            r#"{"id":4,"trace":"a4","cmd":"query_batch","kb":"k","qs":["a","!a"]}"#,
            r#"{"v":2,"id":4,"req":4,"trace":"00000000000000a4","ok":true,"result":{"kb":"k","answers":[true,false]}}"#,
        ),
        (
            r#"{"id":5,"trace":"a5","cmd":"drop","kb":"k"}"#,
            r#"{"v":2,"id":5,"req":5,"trace":"00000000000000a5","ok":true,"result":{"kb":"k","dropped":true}}"#,
        ),
        (
            r#"{"id":6,"trace":"a6","cmd":"query","kb":"ghost","q":"a"}"#,
            r#"{"v":2,"id":6,"req":6,"trace":"00000000000000a6","ok":false,"code":"unknown_kb","error":"no knowledge base named \"ghost\""}"#,
        ),
        // A full 32-hex W3C trace-id keeps its low 64 bits.
        (
            r#"{"id":7,"trace":"0af7651916cd43dd8448eb211c80319c","cmd":"ping"}"#,
            r#"{"v":2,"id":7,"req":7,"trace":"8448eb211c80319c","ok":true,"result":{"pong":true}}"#,
        ),
    ];
    for (request, expected) in golden {
        let response = server.handle_line(request).expect("non-blank request");
        assert_eq!(response, expected, "for request {request}");
    }
}

#[test]
fn ids_echo_in_every_shape() {
    let server = Server::new(ServerConfig::default());
    let cases = [
        (r#"{"id":7,"cmd":"ping"}"#, Json::Num(7.0)),
        (r#"{"id":"alpha","cmd":"ping"}"#, Json::Str("alpha".into())),
        (r#"{"cmd":"ping"}"#, Json::Null),
    ];
    for (request, want) in cases {
        let resp = call(&server, request);
        assert_eq!(resp.get("id"), Some(&want), "for {request}");
    }
}

#[test]
fn malformed_requests_answer_instead_of_panicking() {
    let server = Server::new(ServerConfig::default());
    let garbage = [
        "not json at all",
        "{",
        "[1,2,3]",
        "42",
        r#""just a string""#,
        r#"{"cmd":"warp"}"#,
        r#"{"cmd":"load"}"#,
        r#"{"cmd":"load","kb":"k"}"#,
        r#"{"cmd":"revise","kb":"k","op":"dalal"}"#,
        r#"{"cmd":"revise","kb":"k","op":"nonsense","p":"a"}"#,
        r#"{"cmd":"query","kb":7,"q":"a"}"#,
        r#"{"cmd":"query_batch","kb":"k","qs":"a"}"#,
        r#"{"cmd":"ping","deadline_ms":"soon"}"#,
        "{\"cmd\":\"ping\"\u{0}}",
    ];
    for line in garbage {
        let resp = call(&server, line);
        assert_eq!(err_code(&resp), "bad_request", "for {line}");
    }
    // Blank lines are skipped, not answered.
    assert!(server.handle_line("").is_none());
    assert!(server.handle_line("   ").is_none());
    // Engine-level failures use the engine's own stable codes.
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
    let resp = call(&server, r#"{"cmd":"load","kb":"bad","t":"a &&& b"}"#);
    assert_eq!(err_code(&resp), "parse");
    let resp = call(&server, r#"{"cmd":"query","kb":"k","q":"z9"}"#);
    assert_eq!(err_code(&resp), "out_of_alphabet");
}

fn revise_cache_tag(server: &Server, kb: &str, p: &str) -> String {
    let load = format!(r#"{{"cmd":"load","kb":"{kb}","t":"a & b"}}"#);
    call(server, &load);
    let revise = format!(r#"{{"cmd":"revise","kb":"{kb}","op":"dalal","p":"{p}"}}"#);
    let resp = call(server, &revise);
    result(&resp)
        .get("cache")
        .and_then(Json::as_str)
        .expect("revise result carries a cache tag")
        .to_string()
}

/// Capacity-2 cache: the least-recently-used artifact is the one that
/// goes, a `get` refreshes recency, and a recompiled-after-eviction
/// KB still answers correctly.
#[test]
fn lru_eviction_and_recompile() {
    let server = Server::new(ServerConfig::default().with_cache_capacity(2));

    assert_eq!(revise_cache_tag(&server, "k1", "!a"), "miss"); // cache: [A]
    assert_eq!(revise_cache_tag(&server, "k2", "!b"), "miss"); // cache: [A,B]
    assert_eq!(revise_cache_tag(&server, "k1b", "!a"), "hit"); // refresh A: [B,A]
    assert_eq!(revise_cache_tag(&server, "k3", "!a | !b"), "miss"); // evict B: [A,C]
                                                                    // B was the victim, so replaying k2's session is a miss + recompile.
    assert_eq!(revise_cache_tag(&server, "k2b", "!b"), "miss"); // evict A: [C,B]

    // The recompiled KB answers exactly like the original semantics:
    // (a ∧ b) ∘dalal ¬b  ⊨  a ∧ ¬b.
    for (q, want) in [("a", true), ("!b", true), ("b", false)] {
        let line = format!(r#"{{"cmd":"query","kb":"k2b","q":"{q}"}}"#);
        let resp = call(&server, &line);
        assert_eq!(
            result(&resp).get("entails").and_then(Json::as_bool),
            Some(want),
            "query {q} after recompile"
        );
    }

    let stats = call(&server, r#"{"cmd":"stats"}"#);
    let cache = result(&stats)
        .get("cache")
        .expect("stats carries cache block");
    let field = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(field("hits"), 1);
    assert_eq!(field("misses"), 4);
    assert_eq!(field("evictions"), 2);
    assert_eq!(field("entries"), 2);
    assert_eq!(field("capacity"), 2);
}

/// A revise response documents how the artifact was obtained and what
/// it produced; pin the field set so clients can rely on it.
#[test]
fn revise_response_shape() {
    let server = Server::new(ServerConfig::default());
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#);
    let resp = call(
        &server,
        r#"{"cmd":"revise","kb":"k","op":"satoh","p":"!b"}"#,
    );
    let body = result(&resp);
    assert_eq!(body.get("kb").and_then(Json::as_str), Some("k"));
    assert_eq!(body.get("op").and_then(Json::as_str), Some("satoh"));
    assert_eq!(body.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(body.get("degraded").and_then(Json::as_bool), Some(false));
    assert_eq!(body.get("revisions").and_then(Json::as_u64), Some(1));
    assert!(body.get("compiled_size").and_then(Json::as_u64).is_some());
    assert!(body.get("engine").and_then(Json::as_str).is_some());
    assert!(body.get("backend").and_then(Json::as_str).is_some());
}

fn revise(server: &Server, kb: &str, op: &str, p: &str) -> Json {
    call(
        server,
        &format!(r#"{{"cmd":"revise","kb":"{kb}","op":"{op}","p":"{p}"}}"#),
    )
}

fn entails(server: &Server, kb: &str, q: &str) -> bool {
    let resp = call(
        server,
        &format!(r#"{{"cmd":"query","kb":"{kb}","q":"{q}"}}"#),
    );
    result(&resp)
        .get("entails")
        .and_then(Json::as_bool)
        .expect("query result carries a verdict")
}

fn revise_field(resp: &Json, field: &str) -> Json {
    result(resp).get(field).cloned().unwrap_or(Json::Null)
}

/// The second revision's `z` and `w` are new letters whose ids the
/// first step already used for its auxiliary copies; the chain must
/// still answer the revised theory `!a & !b & c & z & w`.
#[test]
fn revise_with_new_letters_extends_the_chain_correctly() {
    let server = Server::new(ServerConfig::default());
    call(&server, r#"{"cmd":"load","kb":"k","t":"a | b; c"}"#);
    result(&revise(&server, "k", "dalal", "!a & !b"));
    let resp = revise(&server, "k", "dalal", "(a | z) & (!c | w)");
    assert_eq!(revise_field(&resp, "cache").as_str(), Some("miss"));
    for (q, want) in [
        ("z", true),
        ("!z", false),
        ("a", false),
        ("w", true),
        ("c", true),
        ("!c | w", true),
        ("a | z", true),
    ] {
        assert_eq!(entails(&server, "k", q), want, "query {q}");
    }
}

/// `c & !c` turns the chain into `⊥`, and revising `⊥` by `a` keeps
/// only `a`: `b` is then in neither the running formula nor `!a`, but
/// is still a base letter and must stay free, never an auxiliary copy.
#[test]
fn revise_after_a_degenerate_step_keeps_dropped_letters_free() {
    let server = Server::new(ServerConfig::default());
    for op in ["dalal", "weber", "satoh", "winslett", "forbus", "borgida"] {
        let load = format!(r#"{{"cmd":"load","kb":"{op}","t":"a & b"}}"#);
        call(&server, &load);
        for p in ["c & !c", "a", "!a"] {
            result(&revise(&server, op, op, p));
        }
        assert!(entails(&server, op, "!a"), "{op}: !a");
        assert!(!entails(&server, op, "b"), "{op}: b");
        assert!(!entails(&server, op, "!b"), "{op}: !b");
    }
}

/// A KB whose prefix came from the artifact cache extends that
/// artifact: same answers and `compiled_size` as a chain compiled
/// from scratch on a fresh server.
#[test]
fn revise_after_a_cache_hit_extends_the_cached_artifact() {
    let chain = ["!a | !b", "!c", "c | d", "!d & e"];
    let server = Server::new(ServerConfig::default());
    let fresh = Server::new(ServerConfig::default());
    for s in [&server, &fresh] {
        call(s, r#"{"cmd":"load","kb":"seed","t":"a & b; c -> d"}"#);
    }
    result(&revise(&server, "seed", "dalal", chain[0]));
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b; c -> d"}"#);
    let resp = revise(&server, "k", "dalal", chain[0]);
    assert_eq!(revise_field(&resp, "cache").as_str(), Some("hit"));
    result(&revise(&fresh, "seed", "dalal", chain[0]));
    for p in &chain[1..] {
        let got = revise(&server, "k", "dalal", p);
        let want = revise(&fresh, "seed", "dalal", p);
        assert_eq!(revise_field(&got, "cache").as_str(), Some("miss"));
        assert_eq!(
            revise_field(&got, "compiled_size"),
            revise_field(&want, "compiled_size"),
            "after {p}"
        );
        for q in ["a", "b", "c", "d", "!a | !b", "c | d", "a & c", "d -> a"] {
            assert_eq!(
                entails(&server, "k", q),
                entails(&fresh, "seed", q),
                "query {q} after {p}"
            );
        }
    }
    assert!(entails(&server, "k", "e"));
}

/// Switching operators mid-chain still fails with `operator_mismatch`
/// and leaves the chain intact: the next same-operator revise extends
/// it as if the failed request never happened.
#[test]
fn operator_mismatch_mid_chain_leaves_the_chain_extendable() {
    let server = Server::new(ServerConfig::default());
    let fresh = Server::new(ServerConfig::default());
    for s in [&server, &fresh] {
        call(s, r#"{"cmd":"load","kb":"k","t":"a & b & c"}"#);
        result(&revise(s, "k", "weber", "!a | !b"));
    }
    for op in ["dalal", "winslett", "gfuv", "widtio"] {
        let resp = revise(&server, "k", op, "!c");
        assert_eq!(err_code(&resp), "operator_mismatch", "{op}");
    }
    let got = revise(&server, "k", "weber", "!c | a");
    let want = revise(&fresh, "k", "weber", "!c | a");
    assert_eq!(
        revise_field(&got, "compiled_size"),
        revise_field(&want, "compiled_size")
    );
    assert_eq!(revise_field(&got, "revisions").as_u64(), Some(2));
    for q in ["a", "b", "c", "a | b", "!c | a"] {
        assert_eq!(entails(&server, "k", q), entails(&fresh, "k", q), "{q}");
    }
}

/// A BDD-compiled first step is not extended: the next revise runs the
/// direct chain from `T`, so its artifact (and `compiled_size`) is the
/// one any KB with the same chain gets.
#[test]
fn revise_after_a_bdd_compile_runs_the_chain_from_t() {
    let server = Server::new(ServerConfig::default());
    let fresh = Server::new(ServerConfig::default());
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b; c"}"#);
    call(&fresh, r#"{"cmd":"load","kb":"k","t":"a & b; c"}"#);
    let resp = call(
        &server,
        r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a | !c","backend":"bdd"}"#,
    );
    assert_eq!(revise_field(&resp, "backend").as_str(), Some("bdd"));
    result(&revise(&fresh, "k", "dalal", "!a | !c"));
    let got = revise(&server, "k", "dalal", "!b");
    let want = revise(&fresh, "k", "dalal", "!b");
    assert_eq!(
        revise_field(&got, "compiled_size"),
        revise_field(&want, "compiled_size")
    );
    for q in ["a", "b", "c", "a | c", "!b"] {
        assert_eq!(entails(&server, "k", q), entails(&fresh, "k", q), "{q}");
    }
}
