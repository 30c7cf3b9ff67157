//! End-to-end acceptance of the incremental query pipeline: one
//! compiled [`RevisedKb`] answers a large query batch through a single
//! solver session, with every answer matching both the one-shot SAT
//! path and the semantic oracle.
//!
//! A second test pins that a session does not age: its solver does
//! as much work for its 5,000th query as for its first.
//!
//! The tests take one lock because the first measures exact deltas of
//! the process-wide solver-construction counter.

use revkb::logic::{Formula, Var};
use revkb::revision::{revise_on, ModelBasedOp, RevisedKb};
use revkb::sat::{self, QuerySession};
use std::collections::HashSet;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// Knuth's MMIX LCG: reproducible from the seed, no external RNG.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A random 3-literal clause over `Var(0) .. Var(n)`.
fn clause(seed: &mut u64, n: u64) -> Formula {
    Formula::or_all((0..3).map(|_| {
        let r = next(seed);
        Formula::lit(Var((r % n) as u32), r & (1 << 20) == 0)
    }))
}

#[test]
fn fifty_queries_one_solver() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = v(0).and(v(1)).and(v(2)).and(v(3));
    let p = v(0).not().or(v(1).not());
    let kb = RevisedKb::compile(ModelBasedOp::Dalal, &t, &p).unwrap();
    let alpha = revkb::revision::revision_alphabet_seq(&t, std::slice::from_ref(&p));
    let oracle = revise_on(ModelBasedOp::Dalal, &alpha, &t, &p);

    let mut seed = 0xACCE97u64;
    let queries: Vec<Formula> = (0..50)
        .map(|_| sat::pseudo_random_formula(&mut seed, 3, 4))
        .collect();

    // Incremental path: the whole batch through the compiled KB.
    let before = sat::constructions();
    let incremental: Vec<bool> = queries.iter().map(|q| kb.entails(q)).collect();
    let incremental_solvers = sat::constructions() - before;

    // One-shot path: a fresh Tseitin transform + solver per query.
    let rep = kb.representation();
    let before = sat::constructions();
    let one_shot: Vec<bool> = queries
        .iter()
        .map(|q| sat::entails(&rep.formula, q))
        .collect();
    let one_shot_solvers = sat::constructions() - before;

    // Semantic ground truth, computed by model enumeration.
    let semantic: Vec<bool> = queries.iter().map(|q| oracle.entails(q)).collect();

    assert_eq!(incremental, one_shot, "incremental vs one-shot SAT");
    assert_eq!(incremental, semantic, "incremental vs semantic oracle");
    assert_eq!(
        incremental_solvers, 1,
        "the session must build exactly one solver for the batch"
    );
    assert_eq!(
        one_shot_solvers, 50,
        "the one-shot path builds one solver per query"
    );

    let stats = kb.query_stats().expect("session ran");
    assert_eq!(stats.base_loads, 1, "T' is Tseitin-loaded exactly once");
    assert_eq!(stats.solver_constructions, 1);
    assert_eq!(stats.queries, 50);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        50,
        "every query is either a hit or a miss"
    );
    assert!(
        stats.cache_hits > 0,
        "a 50-query batch over 4 letters at depth 3 must repeat some queries"
    );
}

/// Decisions per query stay flat over a session's age. The base is a
/// satisfiable 3-CNF over 60 letters (every clause agrees with one
/// planted assignment); the queries are distinct random 8-clause
/// 3-CNFs, so none hits the memo and most are not entailed, which
/// makes the solver find a model of the base each time. A session
/// that kept its retired queries' letters in the decision heap would
/// decide every one of them on each such solve: about nine more
/// decisions per earlier query.
#[test]
fn decisions_per_query_do_not_grow_with_session_age() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const LETTERS: u64 = 60;
    const QUERIES: usize = 5_000;
    const WINDOW: usize = 1_000;
    let mut seed = 0x5E55_1011u64;
    let planted: Vec<bool> = (0..LETTERS).map(|_| next(&mut seed) & 1 == 1).collect();
    let base = Formula::and_all(
        std::iter::repeat_with(|| clause(&mut seed, LETTERS))
            .filter(|c| c.eval_fn(&|v| planted[v.index()]))
            .take(120),
    );
    assert!(sat::satisfiable(&base));

    let mut seen = HashSet::new();
    let queries: Vec<Formula> =
        std::iter::repeat_with(|| Formula::and_all((0..8).map(|_| clause(&mut seed, LETTERS))))
            .filter(|q| seen.insert(q.clone()))
            .take(QUERIES)
            .collect();

    let mut session = QuerySession::with_query_alphabet(&base, LETTERS as u32);
    let mut decisions = Vec::with_capacity(QUERIES);
    for q in &queries {
        let before = session.stats().decisions;
        session.entails(q);
        decisions.push(session.stats().decisions - before);
    }
    assert_eq!(session.stats().cache_hits, 0, "every query is distinct");
    let first: u64 = decisions[..WINDOW].iter().sum();
    let last: u64 = decisions[QUERIES - WINDOW..].iter().sum();
    assert!(
        last <= 2 * first,
        "decisions over the last {WINDOW} queries ({last}) exceed twice those \
         over the first {WINDOW} ({first})"
    );
}
