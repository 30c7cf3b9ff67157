//! Each call of a distance oracle builds exactly one solver: the pair
//! and its circuit are loaded once, and every distance probe and δ
//! query runs on that solver. With an unsatisfiable side the oracles
//! tell it from their own probes, since they no longer solve each side
//! on its own first.
//!
//! The count is the process-wide `revkb_sat::constructions()`, so this
//! file holds a single test: no other test in the binary can build a
//! solver while it counts.

use revkb::logic::{Formula, Var};
use revkb::revision::distance::{delta_sets_over, min_distance_over, omega_over, union_vars};
use revkb::sat::constructions;

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// Solvers built while running `f`.
fn solvers_built<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = constructions();
    let out = f();
    (out, constructions() - before)
}

#[test]
fn each_oracle_call_constructs_one_solver() {
    // §2.2.2's example (k = 1, δ = {{c}, {a, b}}), an intersecting
    // pair (k = 0), and a wider pair several probes apart.
    let paper_p = v(0)
        .not()
        .and(v(1).not())
        .and(v(3).not())
        .or(v(2).not().and(v(1)).and(v(0).xor(v(3))));
    let cases = [
        (v(0).and(v(1)).and(v(2)), paper_p),
        (v(0).or(v(1)), v(0).not()),
        (
            Formula::and_all((0..12).map(v)),
            Formula::and_all((0..6).map(|i| v(i).not())).and(v(12).xor(v(13))),
        ),
    ];
    for (a, b) in &cases {
        let xs = union_vars(a, b);
        let (k, built) = solvers_built(|| min_distance_over(a, b, &xs));
        assert!(k.is_some());
        assert_eq!(built, 1, "min_distance_over on {a:?} / {b:?}");
        let (delta, built) = solvers_built(|| delta_sets_over(a, b, &xs, 1 << 10));
        assert!(!delta.unwrap().is_empty());
        assert_eq!(built, 1, "delta_sets_over on {a:?} / {b:?}");
        let (omega, built) = solvers_built(|| omega_over(a, b, &xs, 1 << 10));
        assert!(omega.is_some());
        assert_eq!(built, 1, "omega_over on {a:?} / {b:?}");
    }

    // An unsatisfiable side over 64 letters, in both orders:
    // x0 → x1 → … → x63 with x0 and ¬x63.
    let xs: Vec<Var> = (0..64).map(Var).collect();
    let unsat = Formula::and_all((0..63).map(|i| v(i).implies(v(i + 1))))
        .and(v(0))
        .and(v(63).not());
    let sat = Formula::and_all((0..64).map(|i| if i % 2 == 0 { v(i) } else { v(i).not() }));
    for (a, b) in [(&unsat, &sat), (&sat, &unsat)] {
        let (k, built) = solvers_built(|| min_distance_over(a, b, &xs));
        assert_eq!(k, None);
        assert_eq!(built, 1, "distance, 64 letters, unsatisfiable side");
        let (delta, built) = solvers_built(|| delta_sets_over(a, b, &xs, 16));
        assert_eq!(delta, Some(Vec::new()));
        assert_eq!(built, 1, "δ, 64 letters, unsatisfiable side");
        let (omega, built) = solvers_built(|| omega_over(a, b, &xs, 16));
        assert_eq!(omega, Some(Default::default()));
        assert_eq!(built, 1, "Ω, 64 letters, unsatisfiable side");
    }
}
