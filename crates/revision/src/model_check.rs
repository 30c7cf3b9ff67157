//! Direct model checking `M ⊨ T * P` (§2.2.4 of the paper), without
//! materialising the revised base.
//!
//! The paper points to Liberatore–Schaerf for the complexity picture:
//! model checking is easier than inference for some operators and not
//! others. This module makes that concrete:
//!
//! - **Dalal**: two SAT-backed minimum-distance computations
//!   (`k_{T,P}` and `dist(M, T)`) — polynomial with an NP oracle, any
//!   `|P|`;
//! - **Weber**: `Ω` (offline) plus one SAT call, any `|P|`;
//! - **Satoh**: `δ(T,P)` (offline, capped) plus `|δ|` evaluations;
//! - **Winslett / Borgida / Forbus**: exact procedures exponential
//!   only in `|V(P)|` (via Proposition 2.1, all candidate witnesses
//!   differ from `M` inside `V(P)` only) — the bounded case again.
//!
//! All procedures are validated against the enumeration oracle in the
//! tests.

use crate::distance::{delta_sets_over, min_distance_over, omega_over, union_vars};
use crate::semantic::ModelBasedOp;
use revkb_logic::{Formula, Interpretation, Var};

/// Why a model check could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCheckError {
    /// The operator needs bounded `|V(P)|` and the update is too wide.
    UpdateAlphabetTooLarge {
        /// `|V(P)|` encountered.
        got: usize,
        /// Maximum supported.
        max: usize,
    },
    /// The minimal-difference enumeration exceeded its cap.
    DeltaEnumerationOverflow,
}

/// Widest `V(P)` accepted by the pointwise model checkers.
pub const MAX_POINTWISE_P_VARS: usize = 16;

/// Cap on `δ(T,P)` enumeration for the Satoh checker.
pub const DELTA_LIMIT: usize = 1 << 20;

/// Restrict `m` to a complete assignment over `xs` as a mask-like
/// lookup.
fn truth(m: &Interpretation) -> impl Fn(Var) -> bool + '_ {
    move |v| m.contains(&v)
}

/// `m` restricted to `xs` as a conjunction of literals: the formula
/// whose only model over `xs` is `m`.
fn cube(m: &Interpretation, xs: &[Var]) -> Formula {
    Formula::and_all(xs.iter().map(|&x| Formula::lit(x, m.contains(&x))))
}

/// All subsets of `vars` as vectors.
fn subsets(vars: &[Var]) -> impl Iterator<Item = Vec<Var>> + '_ {
    (0..1u64 << vars.len()).map(move |mask| {
        vars.iter()
            .enumerate()
            .filter(move |(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect()
    })
}

/// `M △ S` for a set of letters.
fn flip_interpretation(m: &Interpretation, s: &[Var]) -> Interpretation {
    let mut out = m.clone();
    for &v in s {
        if !out.remove(&v) {
            out.insert(v);
        }
    }
    out
}

/// Decide `M ⊨ T *op P`, where `M` is an interpretation of
/// `V(T) ∪ V(P)` (letters absent from `m` are false). Degenerate
/// conventions as in [`crate::semantic`].
///
/// ```
/// use revkb_revision::{model_check, ModelBasedOp};
/// use revkb_logic::{Formula, Interpretation, Var};
/// let t = Formula::var(Var(0)).and(Formula::var(Var(1)));
/// let p = Formula::var(Var(0)).not();
/// let m: Interpretation = [Var(1)].into_iter().collect();
/// assert!(model_check(ModelBasedOp::Winslett, &m, &t, &p).unwrap());
/// ```
pub fn model_check(
    op: ModelBasedOp,
    m: &Interpretation,
    t: &Formula,
    p: &Formula,
) -> Result<bool, ModelCheckError> {
    let xs = union_vars(t, p);
    // Degenerate cases first.
    if !revkb_sat::satisfiable(p) {
        return Ok(false);
    }
    if !revkb_sat::satisfiable(t) {
        return Ok(p.eval_fn(&truth(m)));
    }
    if !p.eval_fn(&truth(m)) {
        return Ok(false); // success postulate: every result model satisfies P
    }
    match op {
        ModelBasedOp::Dalal => {
            let k = min_distance_over(t, p, &xs).expect("both satisfiable");
            let d = min_distance_over(t, &cube(m, &xs), &xs).expect("t satisfiable");
            Ok(d == k)
        }
        ModelBasedOp::Weber => {
            let omega = omega_over(t, p, &xs, DELTA_LIMIT)
                .ok_or(ModelCheckError::DeltaEnumerationOverflow)?;
            // ∃ T-model agreeing with m outside Ω.
            let pinned = Formula::and_all(
                xs.iter()
                    .filter(|x| !omega.contains(x))
                    .map(|&x| Formula::lit(x, m.contains(&x))),
            )
            .and(t.clone());
            Ok(revkb_sat::satisfiable(&pinned))
        }
        ModelBasedOp::Satoh => {
            let delta = delta_sets_over(t, p, &xs, DELTA_LIMIT)
                .ok_or(ModelCheckError::DeltaEnumerationOverflow)?;
            Ok(delta.iter().any(|s| {
                let s_vec: Vec<Var> = s.iter().copied().collect();
                let witness = flip_interpretation(m, &s_vec);
                t.eval(&witness)
            }))
        }
        ModelBasedOp::Borgida => {
            if revkb_sat::satisfiable(&t.clone().and(p.clone())) {
                Ok(t.eval_fn(&truth(m)))
            } else {
                model_check(ModelBasedOp::Winslett, m, t, p)
            }
        }
        ModelBasedOp::Winslett => {
            let pvars: Vec<Var> = p.vars().into_iter().collect();
            if pvars.len() > MAX_POINTWISE_P_VARS {
                return Err(ModelCheckError::UpdateAlphabetTooLarge {
                    got: pvars.len(),
                    max: MAX_POINTWISE_P_VARS,
                });
            }
            // ∃S ⊆ V(P): M△S ⊨ T and no nonempty C ⊆ S with M△C ⊨ P
            // (Proposition 2.1: the witness T-model agrees with M
            // outside V(P)).
            for s in subsets(&pvars) {
                let witness = flip_interpretation(m, &s);
                if !t.eval(&witness) {
                    continue;
                }
                let closer_exists =
                    subsets(&s).any(|c| !c.is_empty() && p.eval(&flip_interpretation(m, &c)));
                if !closer_exists {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        ModelBasedOp::Forbus => {
            let pvars: Vec<Var> = p.vars().into_iter().collect();
            if pvars.len() > MAX_POINTWISE_P_VARS {
                return Err(ModelCheckError::UpdateAlphabetTooLarge {
                    got: pvars.len(),
                    max: MAX_POINTWISE_P_VARS,
                });
            }
            // ∃S ⊆ V(P): M△S ⊨ T and |S| = k_{M△S, P}, where the
            // pointwise minimum distance is attained inside V(P).
            for s in subsets(&pvars) {
                let witness = flip_interpretation(m, &s);
                if !t.eval(&witness) {
                    continue;
                }
                let k_witness = subsets(&pvars)
                    .filter(|c| {
                        // witness△C must be a P-model; C measured from
                        // the witness, i.e. candidate N' = witness△C.
                        p.eval(&flip_interpretation(&witness, c))
                    })
                    .map(|c| c.len())
                    .min();
                if k_witness == Some(s.len()) {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::revise_on;
    use revkb_logic::Alphabet;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Every operator's direct checker must agree with the enumeration
    /// oracle on every interpretation of the running example.
    #[test]
    fn agrees_with_oracle_on_paper_example() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0)
            .not()
            .and(v(1).not())
            .and(v(3).not())
            .or(v(2).not().and(v(1)).and(v(0).xor(v(3))));
        check_all(&t, &p);
    }

    fn check_all(t: &Formula, p: &Formula) {
        let alpha = Alphabet::of_formulas([t, p]);
        for op in ModelBasedOp::ALL {
            let oracle = revise_on(op, &alpha, t, p);
            for mask in 0..alpha.interpretation_count() {
                let m = alpha.mask_to_interpretation(mask);
                let got = model_check(op, &m, t, p).expect("checkable");
                assert_eq!(
                    got,
                    oracle.contains(&m),
                    "{} disagrees at {m:?} for {t:?} * {p:?}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn agrees_with_oracle_on_random_instances() {
        let mut seed = 77u64;
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
        for _ in 0..12 {
            let t = build(&mut rnd, 3, 4);
            let p = build(&mut rnd, 2, 3);
            check_all(&t, &p);
        }
    }

    #[test]
    fn degenerate_cases() {
        let unsat = v(0).and(v(0).not());
        let p = v(1);
        let m: Interpretation = [Var(1)].into_iter().collect();
        for op in ModelBasedOp::ALL {
            // P unsatisfiable: nothing is a model.
            assert!(!model_check(op, &m, &v(0), &unsat).unwrap());
            // T unsatisfiable: result is P.
            assert!(model_check(op, &m, &unsat, &p).unwrap());
            assert!(!model_check(op, &Interpretation::new(), &unsat, &p).unwrap());
        }
    }

    #[test]
    fn success_short_circuit() {
        // M ⊭ P is rejected without any further work.
        let t = v(0);
        let p = v(1);
        let m = Interpretation::new();
        for op in ModelBasedOp::ALL {
            assert!(!model_check(op, &m, &t, &p).unwrap());
        }
    }

    #[test]
    fn wide_p_rejected_for_pointwise_only() {
        let t = v(0);
        let p = Formula::or_all((0..20).map(v));
        let m: Interpretation = [Var(1)].into_iter().collect();
        assert!(model_check(ModelBasedOp::Winslett, &m, &t, &p).is_err());
        assert!(model_check(ModelBasedOp::Forbus, &m, &t, &p).is_err());
        // Global operators handle wide P fine.
        assert!(model_check(ModelBasedOp::Dalal, &m, &t, &p).is_ok());
        assert!(model_check(ModelBasedOp::Weber, &m, &t, &p).is_ok());
        assert!(model_check(ModelBasedOp::Satoh, &m, &t, &p).is_ok());
    }
}
