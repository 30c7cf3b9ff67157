//! Differential test of the SAT distance oracles against the
//! enumeration oracle: `min_distance_over`, `delta_sets_over` and
//! `omega_over` must agree with `semantic::{k_global, delta,
//! omega_mask}` on seeded random pairs over 5–7 letters, including
//! unsatisfiable sides and alphabet letters that occur in neither
//! formula.

use revkb::logic::{Alphabet, Formula, Var};
use revkb::revision::distance::{delta_sets_over, min_distance_over, omega_over};
use revkb::revision::semantic;
use revkb::sat::pseudo_random_formula;
use std::collections::BTreeSet;

/// One random pair `(a, b)` with its alphabet, over letters `0..n`
/// plus two letters above them that neither formula mentions. Every
/// other `b` excludes the models of `a`, so the pair lies at a
/// positive distance; every seventh `a` and every eleventh `b` is made
/// unsatisfiable.
fn case(i: u64, seed: &mut u64) -> (Formula, Formula, Vec<Var>) {
    let n = 5 + (i % 3) as u32;
    let mut a = pseudo_random_formula(seed, 3, n);
    let mut b = pseudo_random_formula(seed, 3, n);
    if i.is_multiple_of(2) {
        b = b.and(a.clone().not());
    }
    if i % 7 == 3 {
        a = a.clone().and(a.not());
    }
    if i % 11 == 5 {
        b = b.clone().and(b.not());
    }
    let xs = (0..n).map(Var).chain([Var(n), Var(n + 3)]).collect();
    (a, b, xs)
}

fn as_letters(alpha: &Alphabet, mask: u64) -> BTreeSet<Var> {
    alpha.mask_to_interpretation(mask).into_iter().collect()
}

#[test]
fn distance_oracles_match_enumeration() {
    let mut seed = 0x5EED_D157u64;
    let (mut unsat_sides, mut disjoint) = (0, 0);
    for i in 0..240 {
        let (a, b, xs) = case(i, &mut seed);
        let alpha = Alphabet::new(xs.clone());
        let (a_models, b_models) = (alpha.models(&a), alpha.models(&b));
        if a_models.is_empty() || b_models.is_empty() {
            unsat_sides += 1;
        }

        let k = semantic::k_global(&a_models, &b_models).map(|k| k as usize);
        assert_eq!(min_distance_over(&a, &b, &xs), k, "k: {a:?} / {b:?}");
        if k.is_some_and(|k| k > 0) {
            disjoint += 1;
        }

        let want: BTreeSet<BTreeSet<Var>> = semantic::delta(&a_models, &b_models)
            .into_iter()
            .map(|mask| as_letters(&alpha, mask))
            .collect();
        let got = delta_sets_over(&a, &b, &xs, 1 << 16).expect("δ within its limit");
        assert_eq!(got.len(), want.len(), "δ has duplicates: {got:?}");
        let got: BTreeSet<BTreeSet<Var>> = got.into_iter().collect();
        assert_eq!(got, want, "δ: {a:?} / {b:?}");

        let omega = as_letters(&alpha, semantic::omega_mask(&a_models, &b_models));
        assert_eq!(
            omega_over(&a, &b, &xs, 1 << 16),
            Some(omega),
            "Ω: {a:?} / {b:?}"
        );
    }
    // The sample exercises both degenerate and proper revisions.
    assert!(unsat_sides >= 30, "only {unsat_sides} unsatisfiable sides");
    assert!(disjoint >= 30, "only {disjoint} pairs at distance > 0");
}
