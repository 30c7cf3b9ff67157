//! SAT-based computation of the paper's proximity measures: the
//! minimum Hamming distance `k_{T,P}` (Dalal), the set `δ(T,P)` of
//! ⊆-minimal differences (Satoh) and `Ω = ⋃δ(T,P)` (Weber).
//!
//! These are the quantities the query-compactable constructions
//! pre-compute *offline* (step 1 of the paper's two-step query
//! answering). Unlike the enumeration oracle in [`crate::semantic`],
//! everything here runs on the CDCL solver and scales to alphabets far
//! beyond `2ⁿ` enumeration.
//!
//! Each call runs on **one** incremental solver, loaded once with
//! `a′ ∧ b ∧ C`: `a′` is `a` with every letter renamed apart, `Y` its
//! copy of the alphabet `X`, and `C` a circuit over `X` and `Y`.
//!
//! - `k_{T,P}`: `C` is Theorem 3.4's popcount of `X △ Y` (`EXA`
//!   without its output condition, [`revkb_circuits::HammingCount`]).
//!   Each `d = 0, 1, …` is one solve under the sum wires set to the
//!   bits of `d` as assumptions; no clause is added per probe.
//! - `δ(T,P)`: `C` defines one letter `dᵢ ≡ xᵢ ⊕ yᵢ` per letter of
//!   `X`. Find a satisfying difference; shrink it to a ⊆-minimal one
//!   by solving under `[act, ¬dᵢ for i ∉ diff]` with the gated clause
//!   `¬act ∨ ⋁_{i∈diff} ¬dᵢ`, which the unit `¬act` retires
//!   afterwards; block its supersets with the permanent clause
//!   `⋁_{i∈diff} ¬dᵢ`; repeat.
//!
//! Neither oracle solves `a` or `b` on its own first: every pair of
//! assignments lies at exactly one distance `d ≤ |X|`, and δ's first
//! solve is itself a satisfiability test, so an oracle that finds
//! nothing has an unsatisfiable side.

use revkb_circuits::{CircuitBuilder, HammingCount};
use revkb_logic::{CountingSupply, Formula, Lit, Substitution, Var, VarSupply};
use revkb_sat::Solver;
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

impl RenamedPair {
    /// One solver loaded with `T′ ∧ p ∧ gates`, the only solver an
    /// oracle call builds. Tseitin letters come from `supply`, which
    /// stays above them for later activation letters.
    fn solver_with(&self, p: &Formula, gates: &Formula, supply: &mut CountingSupply) -> Solver {
        let base = self.t_renamed.clone().and(p.clone()).and(gates.clone());
        revkb_sat::solver_for(&base, supply)
    }
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

/// The solver literal of a circuit wire that is a letter or a negated
/// letter.
fn literal(wire: &Formula) -> Lit {
    match wire {
        Formula::Var(v) => Lit::pos(*v),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Var(v) => Lit::neg(*v),
            other => unreachable!("not a literal: ¬{other:?}"),
        },
        other => unreachable!("not a literal: {other:?}"),
    }
}

/// The assumptions for `|X △ Y| = d` over the little-endian wires of
/// [`HammingCount::sum`]; `None` when no assignment has that sum
/// (`d` needs more bits than the sum has, or sets a bit whose wire is
/// the constant `⊥` that the adder tree leaves for a carry of nothing).
fn sum_equals(sum: &[Formula], d: usize) -> Option<Vec<Lit>> {
    if d.checked_shr(sum.len() as u32).unwrap_or(0) != 0 {
        return None;
    }
    let mut lits = Vec::with_capacity(sum.len());
    for (i, wire) in sum.iter().enumerate() {
        let bit = d >> i & 1 == 1;
        match wire {
            Formula::False if bit => return None,
            Formula::False => {}
            _ => {
                let lit = literal(wire);
                lits.push(if bit { lit } else { lit.negated() });
            }
        }
    }
    Some(lits)
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
    let mut supply = supply_above_base([a, b], xs);
    let renamed = rename_apart(a, xs, &mut supply);
    let count = HammingCount::new(xs, &renamed.ys, &mut supply);
    let mut solver = renamed.solver_with(b, &count.gates, &mut supply);
    (0..=xs.len()).find(|&d| {
        sum_equals(&count.sum, d).is_some_and(|lits| solver.solve_under_assumptions(&lits))
    })
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
/// Returns `None` if the limit was exceeded, and no sets when either
/// formula is unsatisfiable.
pub fn delta_sets_over(
    a: &Formula,
    b: &Formula,
    xs: &[Var],
    limit: usize,
) -> Option<Vec<BTreeSet<Var>>> {
    let mut supply = supply_above_base([a, b], xs);
    let renamed = rename_apart(a, xs, &mut supply);
    // dᵢ ≡ xᵢ ⊕ yᵢ: Theorem 3.4's XOR layer, one letter per position.
    let mut cb = CircuitBuilder::new(&mut supply);
    let ds: Vec<Lit> = cb.diff_bits(xs, &renamed.ys).iter().map(literal).collect();
    let gates = cb.finish(Formula::True);
    let mut solver = renamed.solver_with(b, &gates, &mut supply);
    let differing = |solver: &Solver| -> Vec<usize> {
        (0..xs.len())
            .filter(|&i| solver.model_value(ds[i].var()) == ds[i].is_positive())
            .collect()
    };
    // "Agree on at least one letter of diff."
    let agree_somewhere =
        |diff: &[usize]| -> Vec<Lit> { diff.iter().map(|&i| ds[i].negated()).collect() };
    let mut found: Vec<BTreeSet<Var>> = Vec::new();

    while solver.solve() {
        let mut diff = differing(&solver);
        // Shrink to a ⊆-minimal difference: ask for a strictly smaller
        // one (agree outside diff, and on some letter of diff) under a
        // one-shot activation letter.
        while !diff.is_empty() {
            let act = Lit::pos(supply.fresh_var());
            let mut gated = agree_somewhere(&diff);
            gated.push(act.negated());
            solver.add_clause(&gated);
            let mut assumptions = vec![act];
            assumptions.extend(
                (0..xs.len())
                    .filter(|i| diff.binary_search(i).is_err())
                    .map(|i| ds[i].negated()),
            );
            let smaller = solver.solve_under_assumptions(&assumptions);
            solver.add_clause(&[act.negated()]);
            if !smaller {
                break; // diff is minimal
            }
            diff = differing(&solver);
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
        solver.add_clause(&agree_somewhere(&diff));
        found.push(diff.into_iter().map(|i| xs[i]).collect());
    }
    Some(found)
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
