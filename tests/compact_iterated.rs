//! Differential tests of the iterated constructions: for all six
//! model-based operators, growing a compiled chain one revision at a
//! time with `RevisedKb::extend` must agree with `compile_iterated`
//! from `T` and with the enumeration oracle `revise_iterated_on` —
//! including revisions that introduce new letters (whose ids may
//! already name an earlier step's auxiliary letters), unsatisfiable
//! revisions, and steps after an unsatisfiable running theory.

use proptest::prelude::*;
use revkb::logic::{Alphabet, Formula, Var};
use revkb::revision::{
    query_equivalent_enum, revise_iterated_on, CompactRep, ModelBasedOp, RevisedKb,
};

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// Strategy: a random formula over letters `0..num_vars`.
fn formula_strategy(num_vars: u32, depth: u32) -> BoxedStrategy<Formula> {
    let leaf = (0..num_vars, any::<bool>())
        .prop_map(|(v, pos)| Formula::lit(Var(v), pos))
        .boxed();
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.xor(b)),
            inner.prop_map(|a| a.not()),
        ]
        .boxed()
    })
    .boxed()
}

/// Check every prefix of `T * P¹ * … * Pᵐ`, grown one step at a time,
/// against the oracle, then the whole chain compiled from `T`. Each
/// step resumes from a copy of the previous artifact, as a server does
/// after a cache hit.
fn check_chain(op: ModelBasedOp, t: &Formula, ps: &[Formula]) {
    let mut stepwise = RevisedKb::compile_iterated(op, t, &[]).unwrap();
    for m in 1..=ps.len() {
        let prev = stepwise.representation();
        let copy = CompactRep::new(prev.formula.clone(), prev.base.clone(), prev.logical);
        stepwise = RevisedKb::from_chain(op, copy).extend(&ps[m - 1]).unwrap();
        assert_matches_oracle("extend", op, stepwise.representation(), t, &ps[..m]);
    }
    let from_t = RevisedKb::compile_iterated(op, t, ps).unwrap();
    assert_eq!(
        stepwise.size(),
        from_t.size(),
        "{} compiled_size: {t:?} * {ps:?}",
        op.name()
    );
    assert_matches_oracle("compile_iterated", op, from_t.representation(), t, ps);
}

fn assert_matches_oracle(
    how: &str,
    op: ModelBasedOp,
    rep: &CompactRep,
    t: &Formula,
    ps: &[Formula],
) {
    let alpha = Alphabet::new(rep.base.clone());
    let oracle = revise_iterated_on(op, &alpha, t, ps).to_dnf();
    assert!(
        query_equivalent_enum(&rep.formula, &oracle, &rep.base),
        "{how} {} diverges from the oracle: {t:?} * {ps:?}",
        op.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 100,
        .. ProptestConfig::default()
    })]

    /// `T` over letters 0–3, each `Pⁱ` over letters 0–5: later steps
    /// often bring letters the chain has not seen, with ids the
    /// earlier steps handed to auxiliary letters.
    #[test]
    fn stepwise_fold_and_oracle_agree(
        t in formula_strategy(4, 2),
        ps in proptest::collection::vec(formula_strategy(6, 2), 1..6),
    ) {
        for op in ModelBasedOp::ALL {
            check_chain(op, &t, &ps);
        }
    }
}

#[test]
fn unsatisfiable_steps_and_running_theories() {
    let unsat = v(1).and(v(1).not());
    let cases: Vec<(Formula, Vec<Formula>)> = vec![
        // An unsatisfiable revision, then a step that revises ⊥.
        (
            v(0).and(v(1)),
            vec![v(0).not(), unsat.clone(), v(2).or(v(0)), v(1).not()],
        ),
        // An unsatisfiable T: the first step revises ⊥.
        (unsat.clone(), vec![v(0).xor(v(2)), v(2).not()]),
        // A revision that is unsatisfiable and brings a new letter.
        (v(0), vec![v(0).not(), v(4).and(v(4).not()), v(4).or(v(0))]),
    ];
    for (t, ps) in &cases {
        for op in ModelBasedOp::ALL {
            check_chain(op, t, ps);
        }
    }
}

/// A step that revises `⊥` keeps only `P`'s letters, so a base letter
/// can be missing from both the running formula and the next `P`; its
/// id (here `b`'s, above `a`'s) must still never name an auxiliary
/// letter. Both chains end in the theory `!a` with `b` free.
#[test]
fn base_letters_dropped_by_a_degenerate_step_stay_free() {
    let (a, b, c) = (v(0), v(1), v(2));
    let cases = [
        (
            a.clone().and(b.clone()),
            vec![c.clone().and(c.not()), a.clone(), a.clone().not()],
        ),
        (
            a.clone().and(a.clone().not()).and(b.clone()),
            vec![a.clone(), a.clone().not()],
        ),
    ];
    for (t, ps) in &cases {
        for op in ModelBasedOp::ALL {
            check_chain(op, t, ps);
            let kb = RevisedKb::compile_iterated(op, t, ps).unwrap();
            assert!(kb.entails(&a.clone().not()), "{} !a", op.name());
            assert!(!kb.entails(&b), "{} b", op.name());
            assert!(!kb.entails(&b.clone().not()), "{} !b", op.name());
        }
    }
}

/// `a | b; c` revised by `!a & !b`, then by `(a | z) & (!c | w)`: the
/// second revision's `z` and `w` get the ids the first step gave its
/// auxiliary letters. The revised theory is `!a & !b & c & z & w`.
#[test]
fn new_letters_clash_with_auxiliary_ids() {
    let (a, b, c, z, w) = (v(0), v(1), v(2), v(3), v(4));
    let t = a.clone().or(b.clone()).and(c.clone());
    let ps = [
        a.clone().not().and(b.clone().not()),
        a.clone().or(z.clone()).and(c.clone().not().or(w.clone())),
    ];
    for op in ModelBasedOp::ALL {
        check_chain(op, &t, &ps);
    }
    let kb = RevisedKb::compile_iterated(ModelBasedOp::Dalal, &t, &ps[..1])
        .unwrap()
        .extend(&ps[1])
        .unwrap();
    for (q, want) in [
        (z.clone(), true),
        (z.clone().not(), false),
        (a.clone(), false),
        (w.clone(), true),
        (c.clone(), true),
        (c.clone().not().or(w), true),
        (a.or(z), true),
    ] {
        assert_eq!(kb.entails(&q), want, "{q:?}");
    }
}

/// `compiled_size` of each prefix of a chain that adds no letters,
/// pinned for every operator: growing chains step by step must not
/// change the constructions' output.
#[test]
fn chain_sizes_are_pinned() {
    let t = v(0).and(v(1).or(v(2))).and(v(3).implies(v(4)));
    let ps = [
        v(0).not().or(v(1).not()),
        v(2).not().and(v(4).not()),
        v(3).xor(v(0)),
        v(1).not(),
        v(0).iff(v(2)),
    ];
    let expected = [
        (ModelBasedOp::Winslett, [67, 89, 133, 144, 188]),
        (ModelBasedOp::Borgida, [7, 29, 33, 34, 78]),
        (ModelBasedOp::Forbus, [127, 169, 253, 259, 343]),
        (ModelBasedOp::Satoh, [15, 25, 37, 42, 62]),
        (ModelBasedOp::Dalal, [231, 457, 685, 910, 1138]),
        (ModelBasedOp::Weber, [7, 9, 13, 14, 18]),
    ];
    for (op, sizes) in expected {
        let mut kb = RevisedKb::compile_iterated(op, &t, &[]).unwrap();
        for (p, want) in ps.iter().zip(sizes) {
            kb = kb.extend(p).unwrap();
            assert_eq!(kb.size(), want, "{} after {p:?}", op.name());
        }
        check_chain(op, &t, &ps);
    }
}
