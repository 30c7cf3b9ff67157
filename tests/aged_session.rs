//! Aged sessions answer like fresh ones. A [`QuerySession`] retires
//! each query's clauses and hands its letters to later queries, and
//! its memo forgets old answers; none of that may change an answer.
//! After thousands of queries of every kind (entailed, not entailed,
//! `⊤`/`⊥`, repeats that hit or miss the memo), every answer must
//! still be the one-shot [`sat::entails`] answer. The same holds for
//! a [`SessionPool`] and, over the wire, for `query_batch` against
//! `query` on a KB whose sessions have aged.

use revkb::logic::{Formula, Var};
use revkb::sat::{self, PoolConfig, QuerySession, SessionPool, MEMO_CAPACITY};
use revkb::server::{Json, Server, ServerConfig};

const LETTERS: u32 = 24;
/// Queries that reach the solver before the session counts as aged.
const AGE: usize = 2_000;
/// Queries per stream: about a quarter are repeats or constants that
/// the memo answers.
const QUERIES: usize = 3_000;

/// Knuth's MMIX LCG: reproducible from the seed, no external RNG.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    fn lit(&mut self) -> Formula {
        Formula::lit(
            Var(self.below(u64::from(LETTERS)) as u32),
            self.below(2) == 0,
        )
    }

    fn clause(&mut self) -> Formula {
        Formula::or_all((0..3).map(|_| self.lit()))
    }
}

/// A 3-CNF over [`LETTERS`] letters: satisfiable when every clause
/// must agree with a planted assignment, and (with high probability,
/// checked by the callers) unsatisfiable when `clauses` is far above
/// the threshold without one.
fn base(rng: &mut Lcg, clauses: usize, planted: bool) -> Vec<Formula> {
    let truth: Vec<bool> = (0..LETTERS).map(|_| rng.below(2) == 1).collect();
    std::iter::repeat_with(|| rng.clause())
        .filter(|c| !planted || c.eval_fn(&|v| truth[v.index()]))
        .take(clauses)
        .collect()
}

/// A stream of queries of every kind against `base`.
fn queries(rng: &mut Lcg, base: &[Formula], n: usize) -> Vec<Formula> {
    let mut out: Vec<Formula> = Vec::with_capacity(n);
    while out.len() < n {
        let q = match rng.below(8) {
            // Not entailed, as a rule.
            0 | 1 => rng.clause(),
            2 => Formula::and_all((0..4).map(|_| rng.clause())),
            // Entailed: weakenings and conjunctions of base clauses.
            3 => base[rng.below(base.len() as u64) as usize]
                .clone()
                .or(rng.lit()),
            4 => base[rng.below(base.len() as u64) as usize]
                .clone()
                .and(base[rng.below(base.len() as u64) as usize].clone()),
            5 => {
                let mut seed = rng.below(u64::MAX);
                sat::pseudo_random_formula(&mut seed, 3, LETTERS)
            }
            6 => [Formula::True, Formula::False][rng.below(2) as usize].clone(),
            // A repeat: a memo hit while the earlier query is among
            // the last MEMO_CAPACITY distinct ones, a fresh solve
            // after it has been forgotten.
            _ if !out.is_empty() => out[rng.below(out.len() as u64) as usize].clone(),
            _ => continue,
        };
        out.push(q);
    }
    out
}

fn one_shot(base: &Formula, qs: &[Formula]) -> Vec<bool> {
    qs.iter().map(|q| sat::entails(base, q)).collect()
}

/// Ask a session every query of the stream; every answer must be the
/// one-shot answer.
fn check_aged_session(base: &Formula, qs: &[Formula]) -> sat::SolverStats {
    let mut session = QuerySession::with_query_alphabet(base, LETTERS);
    let answers: Vec<bool> = qs.iter().map(|q| session.entails(q)).collect();
    let expected = one_shot(base, qs);
    for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "query #{i} {:?}", qs[i]);
    }
    assert!(session.cache_len() <= MEMO_CAPACITY);
    session.stats()
}

#[test]
fn aged_session_on_a_satisfiable_base_answers_like_one_shot() {
    let mut rng = Lcg(0xA6ED_0001);
    let clauses = base(&mut rng, 90, true);
    let t = Formula::and_all(clauses.clone());
    assert!(sat::satisfiable(&t));
    let qs = queries(&mut rng, &clauses, QUERIES);
    let stats = check_aged_session(&t, &qs);
    let entailed = one_shot(&t, &qs).iter().filter(|&&a| a).count();
    assert!(
        entailed > qs.len() / 5 && entailed < qs.len() * 4 / 5,
        "the stream mixes entailed and not entailed queries ({entailed} of {})",
        qs.len()
    );
    assert!(stats.cache_hits > 0, "some repeats hit the memo");
    assert!(
        stats.cache_misses as usize > AGE,
        "the solver answered more than {AGE} queries"
    );
}

#[test]
fn aged_session_on_an_unsatisfiable_base_entails_everything() {
    let mut rng = Lcg(0xA6ED_0002);
    let clauses = base(&mut rng, 400, false);
    let t = Formula::and_all(clauses.clone());
    assert!(!sat::satisfiable(&t));
    let qs = queries(&mut rng, &clauses, QUERIES);
    check_aged_session(&t, &qs);
}

#[test]
fn aged_pool_answers_like_one_shot() {
    let mut rng = Lcg(0xA6ED_0003);
    let clauses = base(&mut rng, 90, true);
    let t = Formula::and_all(clauses.clone());
    let qs = queries(&mut rng, &clauses, QUERIES);
    let expected = one_shot(&t, &qs);
    let mut pool = SessionPool::with_query_alphabet(
        &t,
        LETTERS,
        PoolConfig {
            threads: 2,
            sequential_threshold: 2,
        },
    );
    for (batch, want) in qs.chunks(50).zip(expected.chunks(50)) {
        assert_eq!(pool.par_entails_batch(batch), want);
    }
    assert_eq!(pool.stats().queries as usize, qs.len());
}

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    let json = Json::parse(&response).unwrap_or_else(|e| panic!("not JSON ({e}): {response}"));
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{json:?}"
    );
    json.get("result").expect("ok carries a result").clone()
}

/// A formula in the wire syntax, over the letters `x0 … x23`.
fn wire(f: &Formula) -> String {
    let join = |fs: &[Formula], op: &str, empty: &str| {
        if fs.is_empty() {
            empty.to_string()
        } else {
            let parts: Vec<String> = fs.iter().map(|g| format!("({})", wire(g))).collect();
            parts.join(op)
        }
    };
    match f {
        Formula::True => "true".to_string(),
        Formula::False => "false".to_string(),
        Formula::Var(v) => format!("x{}", v.0),
        Formula::Not(g) => format!("!({})", wire(g)),
        Formula::And(fs) => join(fs, " & ", "true"),
        Formula::Or(fs) => join(fs, " | ", "false"),
        Formula::Implies(a, b) => format!("({}) -> ({})", wire(a), wire(b)),
        Formula::Iff(a, b) => format!("({}) <-> ({})", wire(a), wire(b)),
        Formula::Xor(a, b) => format!("({}) <+> ({})", wire(a), wire(b)),
    }
}

#[test]
fn query_batch_on_an_aged_kb_matches_single_queries() {
    let mut rng = Lcg(0xA6ED_0004);
    let clauses = base(&mut rng, 60, true);
    // Name every letter in the theory so that the server's letter
    // numbering is x0 … x23 in order.
    let alphabet: Vec<String> = (0..LETTERS).map(|i| format!("(x{i} | !x{i})")).collect();
    let t: Vec<String> = alphabet
        .into_iter()
        .chain(clauses.iter().map(wire))
        .collect();
    let server = Server::new(ServerConfig::default().with_threads(2));
    let load = format!(
        r#"{{"cmd":"load","kb":"aged","t":{}}}"#,
        Json::str(t.join("; ")).render()
    );
    call(&server, &load);
    call(
        &server,
        r#"{"cmd":"revise","kb":"aged","op":"dalal","p":"!x0 | !x1"}"#,
    );

    let qs = queries(&mut rng, &clauses, QUERIES);
    let texts: Vec<String> = qs.iter().map(wire).collect();
    let single: Vec<bool> = texts
        .iter()
        .map(|q| {
            let line = format!(
                r#"{{"cmd":"query","kb":"aged","q":{}}}"#,
                Json::str(q.as_str()).render()
            );
            call(&server, &line)
                .get("entails")
                .and_then(Json::as_bool)
                .expect("query answers entails")
        })
        .collect();
    // Age the batch pool too, then compare batch by batch.
    for (batch, want) in texts.chunks(100).zip(single.chunks(100)) {
        let qs = Json::Arr(batch.iter().map(|q| Json::str(q.as_str())).collect()).render();
        let line = format!(r#"{{"cmd":"query_batch","kb":"aged","qs":{qs}}}"#);
        let got: Vec<bool> = call(&server, &line)
            .get("answers")
            .and_then(Json::as_array)
            .expect("query_batch answers")
            .iter()
            .map(|a| a.as_bool().expect("boolean answer"))
            .collect();
        assert_eq!(got, want);
    }
}
