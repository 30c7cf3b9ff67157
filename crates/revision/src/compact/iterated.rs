//! Sections 5–6: compact representations for *iterated* revision.
//!
//! Every construction here is a left fold of one step function,
//! [`RevisedKb::extend`](crate::engine::RevisedKb::extend), from `T`
//! itself: step `i` turns the running representation of
//! `T * P¹ * … * Pⁱ⁻¹` into one of `T * P¹ * … * Pⁱ`. A compiled chain can therefore grow by one
//! revision at the cost of one step.
//!
//! **Unbounded case (Section 5):**
//! - Dalal — Theorem 5.1's `Φₘ`: one fresh copy `Yᵢ` of the alphabet
//!   per step, chained `EXA(kᵢ, Yᵢ, Yᵢ₊₁, Wᵢ)` distance constraints,
//!   with each `kᵢ` computed offline against the running
//!   representation.
//! - Weber — Corollary 5.2's formula (10): substitute the running
//!   `Ωᵢ` by fresh letters `Zᵢ`, conjoin `Pⁱ`.
//!
//! **Bounded case (Section 6):** formulas (12)–(16) express one
//! bounded revision step as a universally quantified condition over
//! the (constant-size) alphabet of `Pⁱ`, which [`revkb_qbf::Qbf::expand`]
//! turns into a propositional formula (Theorem 6.3). The `∀Z` of a
//! step sits outside the running representation, so each step is
//! expanded as it is taken:
//! - Winslett — formulas (15)/(16); Borgida shares the construction
//!   (Cor 6.4) for the steps inconsistent with the running theory and
//!   conjoins `Pⁱ` otherwise.
//! - Forbus — formula (14), with the `DIST < DIST` comparator realised
//!   by the gate-free bounded-alphabet circuits.
//! - Satoh — **deviation from the paper**: formula (13)
//!   as printed quantifies the competing `T`-model only over `V(P)`
//!   while sharing the remaining letters with the outer model, which
//!   misses competitors that differ from the outer model outside
//!   `V(P)`; [`satoh_qbf_paper`] builds the printed formula and the
//!   test `paper_formula_13_counterexample` exhibits concrete `T`, `P`
//!   on which it is *not* query-equivalent to `T *S P`. We instead
//!   compute `δᵢ` offline (as Theorem 3.4 computes `k` offline) and
//!   encode Satoh's step as
//!   `Rᵢ₋₁[V(Pⁱ)/Yᵢ] ∧ Pⁱ ∧ ⋁_{S ∈ δᵢ} (differ(V(Pⁱ),Yᵢ) = S)`,
//!   which keeps one copy of the running representation per step and
//!   stays polynomial in `|T| + m`.

use crate::compact::rep::CompactRep;
use crate::distance::{delta_sets_over, min_distance_over, supply_above_base};
use crate::semantic::ModelBasedOp;
use revkb_circuits::{distance_less_direct, exa};
use revkb_logic::{Formula, Substitution, Var, VarSupply};
use revkb_qbf::Qbf;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// `V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)` in `Var` order.
pub fn base_vars(t: &Formula, ps: &[Formula]) -> Vec<Var> {
    let mut vars = t.vars();
    for p in ps {
        p.collect_vars(&mut vars);
    }
    vars.into_iter().collect()
}

/// The paper's `F_⊆(S₁,S₂,S₃,S₄) = ⋀ⱼ ((s₁ⱼ ≢ s₂ⱼ) → (s₃ⱼ ≢ s₄ⱼ))`:
/// the letters on which `S₁` and `S₂` differ are among those on which
/// `S₃` and `S₄` differ.
pub fn f_subset(s1: &[Var], s2: &[Var], s3: &[Var], s4: &[Var]) -> Formula {
    assert!(s1.len() == s2.len() && s2.len() == s3.len() && s3.len() == s4.len());
    Formula::and_all((0..s1.len()).map(|j| {
        Formula::var(s1[j])
            .xor(Formula::var(s2[j]))
            .implies(Formula::var(s3[j]).xor(Formula::var(s4[j])))
    }))
}

/// "The difference set between `xs` and `ys` is exactly `S`."
fn differ_exactly(xs: &[Var], ys: &[Var], s: &BTreeSet<Var>) -> Formula {
    Formula::and_all(xs.iter().zip(ys).map(|(&x, &y)| {
        if s.contains(&x) {
            Formula::var(x).xor(Formula::var(y))
        } else {
            Formula::var(x).iff(Formula::var(y))
        }
    }))
}

/// The unrevised base `T` as the start of a chain: `T` itself over
/// `V(T)`.
pub(crate) fn chain_start(t: &Formula) -> CompactRep {
    CompactRep::query(t.clone(), base_vars(t, &[]))
}

/// One revision step of the iterated constructions: the running
/// representation `prev` of `T * P¹ * … * Pᵏ` (over its base alphabet
/// `X`, with auxiliary letters outside `X`) becomes a representation
/// of `T * P¹ * … * Pᵏ * p` over `X ∪ V(p)`. `None` when a
/// minimal-difference enumeration (Weber, Satoh) exceeds
/// `delta_limit`.
///
/// Every chain is a left fold of this function from [`chain_start`]:
/// it is Theorem 5.1's recursion for Dalal, formula (10) for Weber,
/// the offline `δ` selector for Satoh, and one expanded formula
/// (14)/(16) step for Forbus, Winslett and Borgida, whose `∀Z` sits
/// outside `prev`.
///
/// **Fresh-letter rule.** Letters are plain ids, and a later `p` may
/// introduce a base letter whose id an earlier step already used for
/// an auxiliary copy (`Y`, `W`, `Z`). Such auxiliary letters of `prev`
/// are first renamed to fresh ids above every letter of `prev` and
/// `p`. That keeps `prev`'s projection onto `X` intact and leaves the
/// new letters free in it, as they are in the revised theory. Every
/// fresh supply also starts above the base alphabet: a step that
/// revises `⊥` keeps only `p`'s letters, so a base letter may occur in
/// neither formula.
pub(crate) fn extend(
    op: ModelBasedOp,
    prev: &CompactRep,
    p: &Formula,
    delta_limit: usize,
) -> Option<CompactRep> {
    let cur = rename_aux_apart(prev, p);
    let mut base: BTreeSet<Var> = prev.base.iter().copied().collect();
    p.collect_vars(&mut base);
    let xs: Vec<Var> = base.into_iter().collect();
    let supply = &mut supply_above_base([cur.as_ref(), p], &xs);
    // The conventions for an unsatisfiable side, shared by every
    // operator (as in `semantic::revise_masks`): revising by an
    // unsatisfiable `p` gives `⊥`, revising `⊥` gives `p`. Dalal,
    // Weber and Satoh learn that `cur` is unsatisfiable from their
    // distance oracle, which then finds nothing.
    let formula = if !revkb_sat::satisfiable(p) {
        Formula::False
    } else {
        match op {
            ModelBasedOp::Dalal => dalal_step(&cur, p, &xs, supply),
            ModelBasedOp::Weber => weber_step(&cur, p, &xs, delta_limit, supply)?,
            ModelBasedOp::Satoh => satoh_step(&cur, p, &xs, delta_limit, supply)?,
            ModelBasedOp::Winslett | ModelBasedOp::Forbus | ModelBasedOp::Borgida
                if !revkb_sat::satisfiable(&cur) =>
            {
                p.clone()
            }
            ModelBasedOp::Winslett => {
                winslett_step(Qbf::prop(cur.into_owned()), p, supply).expand()
            }
            ModelBasedOp::Forbus => forbus_step(Qbf::prop(cur.into_owned()), p, supply).expand(),
            ModelBasedOp::Borgida => borgida_step(cur.into_owned(), p, supply),
        }
    };
    Some(CompactRep::query(formula, xs))
}

/// `prev`'s formula with its auxiliary letters that `p` mentions
/// renamed to fresh ids (see [`extend`]); borrowed when none clash.
fn rename_aux_apart<'a>(prev: &'a CompactRep, p: &Formula) -> Cow<'a, Formula> {
    let mut clashing: Vec<Var> = p
        .vars()
        .into_iter()
        .filter(|v| !prev.base.contains(v))
        .collect();
    if !clashing.is_empty() {
        let used = prev.formula.vars();
        clashing.retain(|v| used.contains(v));
    }
    if clashing.is_empty() {
        return Cow::Borrowed(&prev.formula);
    }
    let mut supply = supply_above_base([&prev.formula, p], &prev.base);
    let fresh: Vec<Var> = clashing.iter().map(|_| supply.fresh_var()).collect();
    Cow::Owned(prev.formula.rename(&clashing, &fresh))
}

/// Theorem 5.1, one step of `Φₘ`: a fresh copy `Y` of the alphabet,
/// `prev[X/Y] ∧ P ∧ EXA(k, X, Y, W)`, with `k` the distance between
/// `prev` and `P` computed offline; `P` itself when `prev` is
/// unsatisfiable. `P` must be satisfiable.
fn dalal_step(prev: &Formula, p: &Formula, xs: &[Var], supply: &mut impl VarSupply) -> Formula {
    let Some(k) = min_distance_over(prev, p, xs) else {
        return p.clone();
    };
    let ys: Vec<Var> = xs.iter().map(|_| supply.fresh_var()).collect();
    let exa_k = exa(k, xs, &ys, supply);
    prev.rename(xs, &ys).and(p.clone()).and(exa_k)
}

/// Corollary 5.2 (formula 10), one step: `prev[Ω/Z] ∧ P` with fresh
/// letters `Z`; `P` itself when `prev` is unsatisfiable. `P` must be
/// satisfiable.
fn weber_step(
    prev: &Formula,
    p: &Formula,
    xs: &[Var],
    delta_limit: usize,
    supply: &mut impl VarSupply,
) -> Option<Formula> {
    let delta = delta_sets_over(prev, p, xs, delta_limit)?;
    if delta.is_empty() {
        return Some(p.clone());
    }
    let omega: BTreeSet<Var> = delta.into_iter().flatten().collect();
    let omega: Vec<Var> = omega.into_iter().collect();
    let zs: Vec<Var> = omega.iter().map(|_| supply.fresh_var()).collect();
    Some(prev.rename(&omega, &zs).and(p.clone()))
}

/// One Winslett step as a QBF (formulas 12/15/16): given the running
/// representation `prev` (over base + auxiliary letters), produce
/// `prev[V(P)/Y] ∧ P ∧ ∀Z.((F_P(Z) ∧ F_⊆(Z,Y,Y,V(P))) → F_⊆(V(P),Y,Y,Z))`.
fn winslett_step(prev: Qbf, p: &Formula, supply: &mut impl VarSupply) -> Qbf {
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let zs: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let renamed = prev.substitute(&Substitution::renaming(&pvars, &ys));
    let f_p_z = p.rename(&pvars, &zs);
    let premise = f_p_z.and(f_subset(&zs, &ys, &ys, &pvars));
    let conclusion = f_subset(&pvars, &ys, &ys, &zs);
    renamed
        .and(Qbf::prop(p.clone()))
        .and(Qbf::forall(zs, Qbf::prop(premise.implies(conclusion))))
}

/// One Forbus step (formula 14 with gate-free bounded-alphabet
/// distance comparison):
/// `prev[V(P)/Y] ∧ P ∧ ∀Z.(F_P(Z) → ¬ DIST(Z,Y) < DIST(V(P),Y))`.
fn forbus_step(prev: Qbf, p: &Formula, supply: &mut impl VarSupply) -> Qbf {
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let zs: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let renamed = prev.substitute(&Substitution::renaming(&pvars, &ys));
    let f_p_z = p.rename(&pvars, &zs);
    let closer = distance_less_direct(&zs, &pvars, &ys);
    renamed
        .and(Qbf::prop(p.clone()))
        .and(Qbf::forall(zs, Qbf::prop(f_p_z.implies(closer.not()))))
}

/// One Borgida step (Corollary 6.4's upper bound): the conjunction
/// when `P` is consistent with the running representation, a Winslett
/// step (formula 16) otherwise.
fn borgida_step(prev: Formula, p: &Formula, supply: &mut impl VarSupply) -> Formula {
    let joined = prev.clone().and(p.clone());
    if revkb_sat::satisfiable(&joined) {
        joined
    } else {
        winslett_step(Qbf::prop(prev), p, supply).expand()
    }
}

/// The paper's formula (13), verbatim, for a *single* Satoh revision:
///
/// ```text
/// T[V(P)/Y] ∧ P ∧ ∀W.∀Z.((F_P(Z) ∧ T[V(P)/W] ∧ F_⊆(Z,W,Y,V(P)))
///                          → F_⊆(V(P),Y,W,Z))
/// ```
///
/// **Known issue (documented reproduction finding):** the universally
/// quantified competing `T`-model is only re-assigned on `V(P)` and
/// shares every other letter with the outer model, so competitors that
/// differ from the outer model outside `V(P)` are missed and the
/// formula can accept models Satoh rejects. See the test
/// `paper_formula_13_counterexample`.
pub fn satoh_qbf_paper(t: &Formula, p: &Formula, supply: &mut impl VarSupply) -> Qbf {
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let ws: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let zs: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let t_y = t.rename(&pvars, &ys);
    let t_w = t.rename(&pvars, &ws);
    let f_p_z = p.rename(&pvars, &zs);
    let premise = f_p_z.and(t_w).and(f_subset(&zs, &ws, &ys, &pvars));
    let conclusion = f_subset(&pvars, &ys, &ws, &zs);
    Qbf::prop(t_y.and(p.clone())).and(Qbf::forall(
        ws,
        Qbf::forall(zs, Qbf::prop(premise.implies(conclusion))),
    ))
}

/// One Satoh step of our corrected construction: `δᵢ` (the ⊆-minimal
/// global difference sets between the running theory and `Pⁱ`,
/// computed offline with the SAT solver, all inside `V(Pⁱ)`) is baked
/// into the formula:
///
/// ```text
/// prev[V(P)/Y] ∧ P ∧ ⋁_{S ∈ δᵢ} differ(V(P), Y) = S
/// ```
///
/// Each step adds `O(2^k · k + |Pⁱ|)` for `k = |V(Pⁱ)|`. `P` itself
/// when `prev` is unsatisfiable; `P` must be satisfiable.
fn satoh_step(
    prev: &Formula,
    p: &Formula,
    xs: &[Var],
    delta_limit: usize,
    supply: &mut impl VarSupply,
) -> Option<Formula> {
    let delta = delta_sets_over(prev, p, xs, delta_limit)?;
    if delta.is_empty() {
        return Some(p.clone());
    }
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let renamed = prev.rename(&pvars, &ys);
    let selector = Formula::or_all(delta.iter().map(|s| differ_exactly(&pvars, &ys, s)));
    Some(renamed.and(p.clone()).and(selector))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::query_equivalent_enum;
    use crate::semantic::{revise_iterated_on, ModelBasedOp};
    use revkb_logic::Alphabet;
    use revkb_sat::supply_above;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// The chain `T * P¹ * … * Pᵐ` as a fold of [`extend`].
    fn chain(op: ModelBasedOp, t: &Formula, ps: &[Formula]) -> CompactRep {
        ps.iter().fold(chain_start(t), |rep, p| {
            extend(op, &rep, p, 100_000).expect("δ within its limit")
        })
    }

    fn check_iterated(op: ModelBasedOp, rep: &CompactRep, t: &Formula, ps: &[Formula]) {
        let alpha = Alphabet::new(rep.base.clone());
        let oracle = revise_iterated_on(op, &alpha, t, ps);
        assert!(
            query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
            "iterated {} mismatch for {t:?} * {ps:?}",
            op.name()
        );
    }

    #[test]
    fn paper_section_5_example_weber() {
        // §5 example: T = x1∧…∧x5, P¹ = ¬x1 ∨ ¬x2, P² = ¬x5.
        // T *Web P¹ *Web P² has models {x1,x3,x4},{x2,x3,x4},{x3,x4}.
        let t = Formula::and_all((0..5).map(v));
        let p1 = v(0).not().or(v(1).not());
        let p2 = v(4).not();
        let ps = vec![p1, p2];
        let rep = chain(ModelBasedOp::Weber, &t, &ps);
        check_iterated(ModelBasedOp::Weber, &rep, &t, &ps);
        let alpha = Alphabet::new(rep.base.clone());
        let oracle = revise_iterated_on(ModelBasedOp::Weber, &alpha, &t, &ps);
        assert_eq!(oracle.len(), 3);
    }

    #[test]
    fn dalal_iterated_two_steps() {
        let t = Formula::and_all((0..4).map(v));
        let p1 = v(0).not().or(v(1).not());
        let p2 = v(3).not();
        let ps = vec![p1, p2];
        let rep = chain(ModelBasedOp::Dalal, &t, &ps);
        check_iterated(ModelBasedOp::Dalal, &rep, &t, &ps);
    }

    #[test]
    fn dalal_iterated_single_step_matches_thm_3_4() {
        let t = v(0).and(v(1));
        let p = v(0).not().or(v(1).not());
        let rep_seq = chain(ModelBasedOp::Dalal, &t, std::slice::from_ref(&p));
        let rep_one = crate::compact::dalal::dalal_compact_auto(&t, &p);
        assert!(query_equivalent_enum(
            &rep_seq.formula,
            &rep_one.formula,
            &rep_seq.base
        ));
    }

    #[test]
    fn winslett_iterated_section_6_example() {
        // §6 example: T = x1∧…∧x5, P = ¬x1: single model
        // {x2,x3,x4,x5}.
        let t = Formula::and_all((0..5).map(v));
        let p = v(0).not();
        let ps = vec![p];
        let rep = chain(ModelBasedOp::Winslett, &t, &ps);
        check_iterated(ModelBasedOp::Winslett, &rep, &t, &ps);
        assert!(rep.entails(&v(1).and(v(2)).and(v(3)).and(v(4))));
        assert!(rep.entails(&v(0).not()));
    }

    #[test]
    fn winslett_iterated_multi_step() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not(), v(1).not().or(v(0)), v(2).xor(v(3))];
        let rep = chain(ModelBasedOp::Winslett, &t, &ps);
        check_iterated(ModelBasedOp::Winslett, &rep, &t, &ps);
    }

    #[test]
    fn forbus_iterated_multi_step() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not().or(v(1).not()), v(2).not(), v(0).xor(v(1))];
        let rep = chain(ModelBasedOp::Forbus, &t, &ps);
        check_iterated(ModelBasedOp::Forbus, &rep, &t, &ps);
    }

    #[test]
    fn borgida_iterated_mixed_consistency() {
        // A sequence where some steps are consistent (conjunction) and
        // some are not (Winslett step): Borgida must switch per step.
        let t = Formula::and_all((0..3).map(v));
        let ps = vec![
            v(0).not(),          // inconsistent with T: update step
            v(1).not().or(v(2)), // consistent: conjunction step
            v(1).not(),          // inconsistent: update step
        ];
        let rep = chain(ModelBasedOp::Borgida, &t, &ps);
        check_iterated(ModelBasedOp::Borgida, &rep, &t, &ps);
    }

    #[test]
    fn borgida_iterated_matches_winslett_when_all_inconsistent() {
        let t = Formula::and_all((0..3).map(v));
        let ps = vec![v(0).not(), v(1).not()];
        let b = chain(ModelBasedOp::Borgida, &t, &ps);
        let w = chain(ModelBasedOp::Winslett, &t, &ps);
        assert!(query_equivalent_enum(&b.formula, &w.formula, &b.base));
    }

    #[test]
    fn satoh_iterated_multi_step() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not().or(v(1).not()), v(2).not().or(v(3).not())];
        let rep = chain(ModelBasedOp::Satoh, &t, &ps);
        check_iterated(ModelBasedOp::Satoh, &rep, &t, &ps);
    }

    #[test]
    fn satoh_single_step_matches_semantic() {
        let t = v(0).iff(v(1)).and(v(2));
        let p = v(0).xor(v(2));
        let rep = chain(ModelBasedOp::Satoh, &t, std::slice::from_ref(&p));
        check_iterated(ModelBasedOp::Satoh, &rep, &t, std::slice::from_ref(&p));
    }

    /// Reproduction finding: the paper's formula (13) is not query-
    /// equivalent to `T *S P` in general. With
    /// `T = (q∧a∧b₁) ∨ (¬q∧¬a∧b₁∧b₂)` and `P = ¬b₁ ∧ ¬b₂`:
    /// `δ(T,P) = {{b₁}}`, so `T *S P` has the single model `{q,a}`;
    /// but formula (13) also accepts `∅` because the competing
    /// `T`-model `{q,a,b₁}` differs from `∅` on `q,a ∉ V(P)` and the
    /// `∀W` quantifier cannot reach it.
    #[test]
    fn paper_formula_13_counterexample() {
        let (q, a, b1, b2) = (v(0), v(1), v(2), v(3));
        let t = q.clone().and(a.clone()).and(b1.clone()).or(q
            .clone()
            .not()
            .and(a.clone().not())
            .and(b1.clone())
            .and(b2.clone()));
        let p = b1.clone().not().and(b2.clone().not());
        let base: Vec<Var> = vec![Var(0), Var(1), Var(2), Var(3)];

        // Ground truth: T *S P = {{q,a}}.
        let alpha = Alphabet::new(base.clone());
        let oracle = crate::semantic::revise_on(ModelBasedOp::Satoh, &alpha, &t, &p);
        assert_eq!(oracle.len(), 1);

        // The paper's formula (13).
        let mut supply = supply_above([&t, &p]);
        let qbf = satoh_qbf_paper(&t, &p, &mut supply);
        let expanded = qbf.expand();
        assert!(
            !query_equivalent_enum(&expanded, &oracle.to_dnf(), &base),
            "formula (13) unexpectedly agreed — counterexample no longer applies"
        );
        // Specifically: it accepts the empty model, which Satoh rejects.
        let projected =
            revkb_sat::models_projected(&expanded, &base, 1 << 16).expect("projection small");
        assert!(projected.iter().any(|m| m.is_empty()));
        assert!(!oracle.contains_mask(0));

        // Our corrected construction agrees with the oracle.
        let rep = chain(ModelBasedOp::Satoh, &t, std::slice::from_ref(&p));
        assert!(query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &base));
    }

    #[test]
    fn iterated_growth_is_additive() {
        // Size of the iterated reps should grow roughly linearly in m
        // for bounded P.
        let t = Formula::and_all((0..6).map(v));
        let ps: Vec<Formula> = (0..4).map(|i| v(i % 6).not()).collect();
        let mut sizes = Vec::new();
        for m in 1..=4 {
            let rep = chain(ModelBasedOp::Dalal, &t, &ps[..m]);
            sizes.push(rep.size());
        }
        let increments: Vec<i64> = sizes
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let max_inc = *increments.iter().max().unwrap();
        let min_inc = *increments.iter().min().unwrap();
        assert!(
            max_inc <= 3 * min_inc.max(1),
            "increments not roughly constant: {sizes:?}"
        );
        // Weber's per-step growth is tiny (just |Pⁱ|).
        let mut weber_sizes = Vec::new();
        for m in 1..=4 {
            let rep = chain(ModelBasedOp::Weber, &t, &ps[..m]);
            weber_sizes.push(rep.size());
        }
        for w in weber_sizes.windows(2) {
            assert!(w[1] - w[0] <= 4, "Weber growth too steep: {weber_sizes:?}");
        }
    }

    #[test]
    fn empty_sequence_is_identity() {
        let t = v(0).and(v(1));
        let rep = chain(ModelBasedOp::Dalal, &t, &[]);
        assert!(revkb_sat::equivalent(&rep.formula, &t));
        let repw = chain(ModelBasedOp::Weber, &t, &[]);
        assert!(revkb_sat::equivalent(&repw.formula, &t));
    }

    #[test]
    fn degenerate_steps() {
        let t = v(0);
        let unsat = v(1).and(v(1).not());
        let ps = vec![unsat, v(2)];
        // After an unsatisfiable revision the next step revises ⊥,
        // which by convention yields P.
        let rep = chain(ModelBasedOp::Dalal, &t, &ps);
        assert!(revkb_sat::equivalent(&rep.formula, &v(2)));
    }
}
