//! SAT-based computation of the paper's proximity measures: the
//! minimum Hamming distance `k_{T,P}` (Dalal), the set `δ(T,P)` of
//! ⊆-minimal differences (Satoh) and `Ω = ⋃δ(T,P)` (Weber).
//!
//! These are the quantities the query-compactable constructions
//! pre-compute *offline* (step 1 of the paper's two-step query
//! answering). Unlike the enumeration oracle in [`crate::semantic`],
//! everything here runs on the CDCL solver and scales to alphabets far
//! beyond `2ⁿ` enumeration:
//!
//! - `k_{T,P}`: probe `T[X/Y] ∧ P ∧ EXA(d, X, Y, W)` for `d = 0, 1, …`
//! - `δ(T,P)`: find a satisfying difference, shrink it to a ⊆-minimal
//!   one, block all its supersets, repeat.

use revkb_circuits::exa;
use revkb_logic::{CountingSupply, Formula, Substitution, Var, VarSupply};
use std::collections::BTreeSet;

/// A supply of fresh letters above every letter of `fs` and of `xs`.
/// A letter of the alphabet `xs` can be absent from every formula at
/// hand (a step that revises `⊥` keeps only `P`'s letters), and must
/// still never be handed out as a fresh letter.
pub(crate) fn supply_above_base<'a>(
    fs: impl IntoIterator<Item = &'a Formula>,
    xs: &[Var],
) -> CountingSupply {
    let mut vars: BTreeSet<Var> = xs.iter().copied().collect();
    for f in fs {
        f.collect_vars(&mut vars);
    }
    CountingSupply::new(vars.last().map_or(0, |v| v.0 + 1))
}

/// The result of renaming `T`'s base letters apart from `P`'s.
struct RenamedPair {
    /// `T` with every letter (base and otherwise) renamed fresh.
    t_renamed: Formula,
    /// The fresh copies of the base letters, aligned with `xs`.
    ys: Vec<Var>,
}

/// Rename *all* letters of `t` to fresh ones so it shares nothing with
/// `p`; returns the copies of the base letters `xs` (other letters get
/// fresh names too, keeping any auxiliary letters of `t` disjoint).
fn rename_apart(t: &Formula, xs: &[Var], supply: &mut impl VarSupply) -> RenamedPair {
    let all_vars: Vec<Var> = t.vars().into_iter().collect();
    let mut sub = Substitution::new();
    let mut ys_map = std::collections::HashMap::new();
    for &v in &all_vars {
        let fresh = supply.fresh_var();
        sub = sub.bind(v, Formula::var(fresh));
        ys_map.insert(v, fresh);
    }
    let ys: Vec<Var> = xs
        .iter()
        .map(|&x| *ys_map.entry(x).or_insert_with(|| supply.fresh_var()))
        .collect();
    RenamedPair {
        t_renamed: sub.apply(t),
        ys,
    }
}

/// `k_{T,P}` generalised: the minimum Hamming distance, measured over
/// the letters `xs`, between models of `a` and models of `b`.
/// Letters of `a`/`b` outside `xs` are free. Returns `None` when
/// either formula is unsatisfiable.
///
/// This is exactly what iterated Dalal needs: `a` may be a compact
/// representation with auxiliary letters, whose projection onto `xs`
/// is the current revised theory.
pub fn min_distance_over(a: &Formula, b: &Formula, xs: &[Var]) -> Option<usize> {
    if !revkb_sat::satisfiable(a) || !revkb_sat::satisfiable(b) {
        return None;
    }
    Some(min_distance_sat(a, b, xs))
}

/// [`min_distance_over`] for callers that already know both `a` and
/// `b` are satisfiable, so neither is solved again here.
pub(crate) fn min_distance_sat(a: &Formula, b: &Formula, xs: &[Var]) -> usize {
    let mut supply = supply_above_base([a, b], xs);
    let renamed = rename_apart(a, xs, &mut supply);
    let base = renamed.t_renamed.and(b.clone());
    for d in 0..=xs.len() {
        let probe = base.clone().and(exa(d, xs, &renamed.ys, &mut supply));
        if revkb_sat::satisfiable(&probe) {
            return d;
        }
    }
    unreachable!("distance over |xs| letters cannot exceed |xs|")
}

/// `k_{T,P}`: minimum distance between models of `t` and models of
/// `p`, over `V(T) ∪ V(P)`.
///
/// ```
/// use revkb_revision::distance::min_distance;
/// use revkb_logic::{Formula, Var};
/// let t = Formula::var(Var(0)).and(Formula::var(Var(1)));
/// let p = Formula::var(Var(0)).not().and(Formula::var(Var(1)).not());
/// assert_eq!(min_distance(&t, &p), Some(2));
/// ```
pub fn min_distance(t: &Formula, p: &Formula) -> Option<usize> {
    let xs: Vec<Var> = union_vars(t, p);
    min_distance_over(t, p, &xs)
}

/// Enumerate `δ(T,P)` — the ⊆-minimal difference sets between models
/// of `a` and models of `b`, measured over `xs` — up to `limit` sets.
/// Returns `None` if the limit was exceeded.
pub fn delta_sets_over(
    a: &Formula,
    b: &Formula,
    xs: &[Var],
    limit: usize,
) -> Option<Vec<BTreeSet<Var>>> {
    if !revkb_sat::satisfiable(a) || !revkb_sat::satisfiable(b) {
        return Some(Vec::new());
    }
    delta_sets_sat(a, b, xs, limit)
}

/// [`delta_sets_over`] for callers that already know both `a` and `b`
/// are satisfiable, so neither is solved again here.
pub(crate) fn delta_sets_sat(
    a: &Formula,
    b: &Formula,
    xs: &[Var],
    limit: usize,
) -> Option<Vec<BTreeSet<Var>>> {
    let mut supply = supply_above_base([a, b], xs);
    let renamed = rename_apart(a, xs, &mut supply);
    let ys = &renamed.ys;
    // Working constraint: a(Y) ∧ b(X) ∧ blocking clauses.
    let mut constraint = renamed.t_renamed.and(b.clone());
    let mut found: Vec<BTreeSet<Var>> = Vec::new();

    // diff(x_i) ≡ (x_i ≢ y_i): expressed directly per letter.
    let agrees = |i: usize| Formula::var(xs[i]).iff(Formula::var(ys[i]));

    loop {
        let model = match revkb_sat::find_model(&constraint) {
            None => return Some(found),
            Some(m) => m,
        };
        // Current difference set.
        let mut diff: BTreeSet<usize> = (0..xs.len())
            .filter(|&i| model.contains(&xs[i]) != model.contains(&ys[i]))
            .collect();
        // Shrink to a ⊆-minimal difference: ask for a strictly smaller
        // one (agree outside diff, differ on a strict subset).
        loop {
            let smaller = Formula::and_all((0..xs.len()).filter(|i| !diff.contains(i)).map(agrees))
                .and(if diff.is_empty() {
                    Formula::False
                } else {
                    Formula::or_all(diff.iter().map(|&i| agrees(i)))
                })
                .and(constraint.clone());
            match revkb_sat::find_model(&smaller) {
                None => break, // diff is minimal
                Some(m2) => {
                    diff = (0..xs.len())
                        .filter(|&i| m2.contains(&xs[i]) != m2.contains(&ys[i]))
                        .collect();
                }
            }
        }
        if found.len() >= limit {
            return None;
        }
        // Block every superset of diff: future pairs must agree on at
        // least one letter of diff. An empty minimal diff means the
        // two formulas intersect: δ = {∅} and we are done.
        if diff.is_empty() {
            found.push(BTreeSet::new());
            return Some(found);
        }
        constraint = constraint.and(Formula::or_all(diff.iter().map(|&i| agrees(i))));
        found.push(diff.into_iter().map(|i| xs[i]).collect());
    }
}

/// `δ(T,P)` over `V(T) ∪ V(P)`, up to `limit` sets.
pub fn delta_sets(t: &Formula, p: &Formula, limit: usize) -> Option<Vec<BTreeSet<Var>>> {
    let xs = union_vars(t, p);
    delta_sets_over(t, p, &xs, limit)
}

/// `Ω = ⋃ δ(T,P)` over `xs`, up to `limit` difference sets.
pub fn omega_over(a: &Formula, b: &Formula, xs: &[Var], limit: usize) -> Option<BTreeSet<Var>> {
    delta_sets_over(a, b, xs, limit).map(|sets| sets.into_iter().flatten().collect())
}

/// `Ω` over `V(T) ∪ V(P)`.
pub fn omega(t: &Formula, p: &Formula, limit: usize) -> Option<BTreeSet<Var>> {
    let xs = union_vars(t, p);
    omega_over(t, p, &xs, limit)
}

/// `V(T) ∪ V(P)` in `Var` order.
pub fn union_vars(t: &Formula, p: &Formula) -> Vec<Var> {
    let mut vars = t.vars();
    p.collect_vars(&mut vars);
    vars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic;
    use revkb_logic::Alphabet;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Cross-check the SAT path against the enumeration oracle.
    fn check_against_oracle(t: &Formula, p: &Formula) {
        let alpha = Alphabet::of_formulas([t, p]);
        let t_models = alpha.models(t);
        let p_models = alpha.models(p);
        let expected_k = semantic::k_global(&t_models, &p_models).map(|k| k as usize);
        assert_eq!(
            min_distance(t, p),
            expected_k,
            "k mismatch for {t:?}, {p:?}"
        );

        let expected_delta: std::collections::BTreeSet<BTreeSet<Var>> =
            semantic::delta(&t_models, &p_models)
                .into_iter()
                .map(|mask| {
                    alpha
                        .mask_to_interpretation(mask)
                        .into_iter()
                        .collect::<BTreeSet<Var>>()
                })
                .collect();
        let got_delta: std::collections::BTreeSet<BTreeSet<Var>> =
            delta_sets(t, p, 10_000).unwrap().into_iter().collect();
        if t_models.is_empty() || p_models.is_empty() {
            assert!(got_delta.is_empty());
        } else {
            assert_eq!(got_delta, expected_delta, "δ mismatch for {t:?}, {p:?}");
            let expected_omega: BTreeSet<Var> = alpha
                .mask_to_interpretation(semantic::omega_mask(&t_models, &p_models))
                .into_iter()
                .collect();
            assert_eq!(omega(t, p, 10_000).unwrap(), expected_omega);
        }
    }

    #[test]
    fn paper_example_distances() {
        // §2.2.2 example: k_{T,P} = 1, δ = {{c},{a,b}}, Ω = {a,b,c}.
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0)
            .not()
            .and(v(1).not())
            .and(v(3).not())
            .or(v(2).not().and(v(1)).and(v(0).xor(v(3))));
        assert_eq!(min_distance(&t, &p), Some(1));
        let d = delta_sets(&t, &p, 100).unwrap();
        let as_sets: std::collections::BTreeSet<BTreeSet<Var>> = d.into_iter().collect();
        let expected: std::collections::BTreeSet<BTreeSet<Var>> = [
            [Var(2)].into_iter().collect::<BTreeSet<_>>(),
            [Var(0), Var(1)].into_iter().collect(),
        ]
        .into_iter()
        .collect();
        assert_eq!(as_sets, expected);
        let om = omega(&t, &p, 100).unwrap();
        let expected_om: BTreeSet<Var> = [Var(0), Var(1), Var(2)].into_iter().collect();
        assert_eq!(om, expected_om);
        check_against_oracle(&t, &p);
    }

    #[test]
    fn consistent_pair_distance_zero() {
        let t = v(0).or(v(1));
        let p = v(0).not();
        assert_eq!(min_distance(&t, &p), Some(0));
        let d = delta_sets(&t, &p, 100).unwrap();
        assert_eq!(d, vec![BTreeSet::new()]);
        assert_eq!(omega(&t, &p, 100).unwrap(), BTreeSet::new());
    }

    #[test]
    fn unsat_sides() {
        let t = v(0).and(v(0).not());
        let p = v(1);
        assert_eq!(min_distance(&t, &p), None);
        assert_eq!(min_distance(&p, &t), None);
        assert!(delta_sets(&t, &p, 100).unwrap().is_empty());
    }

    #[test]
    fn random_cross_check() {
        let mut seed = 7u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        fn build(rnd: &mut impl FnMut() -> u32, depth: u32, nv: u32) -> Formula {
            let r = rnd();
            if depth == 0 || r.is_multiple_of(6) {
                return Formula::lit(Var(r % nv), r & 1 == 0);
            }
            let a = build(rnd, depth - 1, nv);
            let b = build(rnd, depth - 1, nv);
            match r % 4 {
                0 => a.and(b),
                1 => a.or(b),
                2 => a.xor(b),
                _ => a.implies(b),
            }
        }
        for _ in 0..25 {
            let t = build(&mut rnd, 3, 4);
            let p = build(&mut rnd, 3, 4);
            check_against_oracle(&t, &p);
        }
    }

    #[test]
    fn min_distance_over_subset_of_letters() {
        // Distance measured only over {x0}: T = x0 ∧ x1, P = ¬x0 ∧ ¬x1
        // has distance 1 over {x0} but 2 over both letters.
        let t = v(0).and(v(1));
        let p = v(0).not().and(v(1).not());
        assert_eq!(min_distance_over(&t, &p, &[Var(0)]), Some(1));
        assert_eq!(min_distance(&t, &p), Some(2));
    }

    #[test]
    fn delta_limit_truncation() {
        // T = x0∧x1∧x2, P = exactly-one-false: three singleton minimal
        // diffs.
        let t = v(0).and(v(1)).and(v(2));
        let p = Formula::or_all(
            (0..3)
                .map(|i| Formula::and_all((0..3).map(|j| if i == j { v(j).not() } else { v(j) }))),
        );
        assert_eq!(delta_sets(&t, &p, 100).unwrap().len(), 3);
        assert!(delta_sets(&t, &p, 2).is_none());
    }
}
