//! The paper's distance formulas: `EXA(k, X, Y, W)` (Theorem 3.4) and
//! the `DIST(·,·,W₁) < DIST(·,·,W₂)` comparator of formula (14).
//!
//! `EXA(k, X, Y, W)` is a polynomial-size formula over `X ∪ Y ∪ W`
//! that is true iff the Hamming distance between the truth assignments
//! to `X` and `Y` is exactly `k`. The circuit has `O(n log n)` gates
//! (XOR layer + popcount adder tree + comparison against the constant),
//! matching the `O(n · log n)` bound the paper cites from
//! Boppana–Sipser.

use crate::builder::{equals_const, CircuitBuilder, Wire};
use revkb_logic::{Formula, Var, VarSupply};

/// Theorem 3.4's popcount circuit: gate letters `W` that compute
/// `|X △ Y|` in binary, without an output condition. Every assignment
/// to `X ∪ Y` extends to exactly one model of [`HammingCount::gates`],
/// so `gates ∧ equals(k)` is `EXA(k, X, Y, W)` for every `k` at once:
/// a solver loaded with the gates can probe each `k` by assuming the
/// [`HammingCount::sum`] wires equal the bits of `k`.
pub struct HammingCount {
    /// The gate definitions `w ≡ …`.
    pub gates: Formula,
    /// `|X △ Y|` as a little-endian binary number over the gates.
    pub sum: Vec<Wire>,
}

impl HammingCount {
    /// The popcount of the difference bits `xᵢ ≢ yᵢ`: an XOR layer
    /// and an adder tree, `O(n log n)` gates whose letters come from
    /// `supply`.
    ///
    /// # Panics
    /// If `xs` and `ys` differ in length.
    pub fn new(xs: &[Var], ys: &[Var], supply: &mut impl VarSupply) -> Self {
        let mut cb = CircuitBuilder::new(supply);
        let bits = cb.diff_bits(xs, ys);
        let sum = cb.popcount(&bits);
        Self {
            gates: cb.finish(Formula::True),
            sum,
        }
    }

    /// `EXA`'s output condition `|X △ Y| = k`: a conjunction of
    /// literals over [`HammingCount::sum`], `⊥` when `k` has more bits
    /// than the sum.
    pub fn equals(&self, k: usize) -> Formula {
        equals_const(&self.sum, k as u64)
    }
}

/// `EXA(k, X, Y, W)`: true iff `|X △ Y| = k`, that is
/// [`HammingCount`]'s gates and its output condition for `k`. Fresh
/// `W` letters come from `supply`.
///
/// ```
/// use revkb_circuits::{exa, evaluate_circuit_mask};
/// use revkb_logic::{CountingSupply, Var};
/// let xs = [Var(0), Var(1)];
/// let ys = [Var(2), Var(3)];
/// let mut supply = CountingSupply::new(10);
/// let f = exa(1, &xs, &ys, &mut supply);
/// let inputs = [Var(0), Var(1), Var(2), Var(3)];
/// // x = 01, y = 11 → distance 1.
/// assert!(evaluate_circuit_mask(&f, &inputs, 0b1101));
/// // x = 01, y = 01 → distance 0.
/// assert!(!evaluate_circuit_mask(&f, &inputs, 0b0101));
/// ```
///
/// # Panics
/// If `xs` and `ys` differ in length.
pub fn exa(k: usize, xs: &[Var], ys: &[Var], supply: &mut impl VarSupply) -> Formula {
    let _span = revkb_obs::span("circuits.exa");
    let count = HammingCount::new(xs, ys, supply);
    let out = count.equals(k);
    count.gates.and(out)
}

/// True iff `|X △ Y| ≤ k`.
pub fn distance_at_most(k: usize, xs: &[Var], ys: &[Var], supply: &mut impl VarSupply) -> Formula {
    let mut cb = CircuitBuilder::new(supply);
    let bits = cb.diff_bits(xs, ys);
    let sum = cb.popcount(&bits);
    let out = cb.at_most_const(&sum, k as u64);
    cb.finish(out)
}

/// Formula (14)'s comparator: true iff
/// `DIST(A₁,B₁) < DIST(A₂,B₂)` (Hamming distances). The four vectors
/// must pair up in length (`|A₁| = |B₁|`, `|A₂| = |B₂|`).
pub fn distance_less_than(
    a1: &[Var],
    b1: &[Var],
    a2: &[Var],
    b2: &[Var],
    supply: &mut impl VarSupply,
) -> Formula {
    let mut cb = CircuitBuilder::new(supply);
    let bits1 = cb.diff_bits(a1, b1);
    let sum1 = cb.popcount(&bits1);
    let bits2 = cb.diff_bits(a2, b2);
    let sum2 = cb.popcount(&bits2);
    let out = cb.less_than(&sum1, &sum2);
    cb.finish(out)
}

/// Gate-free exact-distance formula: true iff `|X △ Y| = k`, written
/// as the disjunction over all `k`-subsets `S` of positions of
/// "differ exactly on S". Size `O(C(n,k)·n)` — exponential in `n` in
/// general, constant for the paper's bounded case (`|V(P)| ≤ k`
/// fixed), where it avoids introducing any `W` letters.
pub fn exa_direct(k: usize, xs: &[Var], ys: &[Var]) -> Formula {
    assert_eq!(xs.len(), ys.len(), "vector length mismatch");
    let n = xs.len();
    if k > n {
        return Formula::False;
    }
    let mut disjuncts = Vec::new();
    for subset in k_subsets(n, k) {
        let in_s = |i: usize| subset.binary_search(&i).is_ok();
        disjuncts.push(Formula::and_all((0..n).map(|i| {
            let (x, y) = (Formula::var(xs[i]), Formula::var(ys[i]));
            if in_s(i) {
                x.xor(y)
            } else {
                x.iff(y)
            }
        })));
    }
    Formula::or_all(disjuncts)
}

/// All `k`-element subsets of `0..n`, each sorted ascending.
pub fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == 0 {
            out.push(cur.clone());
            return;
        }
        for i in start..=n - k {
            cur.push(i);
            rec(i + 1, n, k - 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    if k <= n {
        rec(0, n, k, &mut Vec::new(), &mut out);
    }
    out
}

/// Gate-free "strictly closer" formula: true iff
/// `|A △ Y| < |B △ Y|`. Same exponential-in-`n` caveat as
/// [`exa_direct`]; intended for the bounded case.
pub fn distance_less_direct(a: &[Var], b: &[Var], y: &[Var]) -> Formula {
    let n = y.len();
    Formula::or_all(
        (0..n).flat_map(|d1| {
            (d1 + 1..=n).map(move |d2| exa_direct(d1, a, y).and(exa_direct(d2, b, y)))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_circuit_mask;
    use revkb_logic::CountingSupply;

    /// Check a distance circuit against a predicate on (x, y) masks.
    fn check_pairs(
        f: &Formula,
        xs: &[Var],
        ys: &[Var],
        pred: impl Fn(u64, u64) -> bool,
        label: &str,
    ) {
        let n = xs.len();
        let inputs: Vec<Var> = xs.iter().chain(ys).copied().collect();
        for x in 0..1u64 << n {
            for y in 0..1u64 << n {
                let mask = x | y << n;
                assert_eq!(
                    evaluate_circuit_mask(f, &inputs, mask),
                    pred(x, y),
                    "{label} at x={x:b} y={y:b}"
                );
            }
        }
    }

    #[test]
    fn exa_exact_distance() {
        for n in 1..=5usize {
            let xs: Vec<Var> = (0..n as u32).map(Var).collect();
            let ys: Vec<Var> = (n as u32..2 * n as u32).map(Var).collect();
            for k in 0..=n {
                let mut supply = CountingSupply::new(100);
                let f = exa(k, &xs, &ys, &mut supply);
                check_pairs(
                    &f,
                    &xs,
                    &ys,
                    |x, y| (x ^ y).count_ones() as usize == k,
                    &format!("EXA({k}) n={n}"),
                );
            }
        }
    }

    #[test]
    fn exa_impossible_distance_unsat() {
        let xs = [Var(0)];
        let ys = [Var(1)];
        let mut supply = CountingSupply::new(100);
        let f = exa(5, &xs, &ys, &mut supply);
        check_pairs(&f, &xs, &ys, |_, _| false, "EXA(5) on 1-letter vectors");
    }

    #[test]
    fn exa_zero_length_vectors() {
        let mut supply = CountingSupply::new(100);
        let f = exa(0, &[], &[], &mut supply);
        assert!(!f.is_false());
        let g = exa(1, &[], &[], &mut supply);
        assert!(revkb_logic::tt_equivalent(&g, &Formula::False));
    }

    #[test]
    fn exa_size_is_polynomial() {
        // Size should grow roughly n·log n — verify it is well below
        // quadratic blowup for a sweep.
        let mut sizes = Vec::new();
        for n in [4usize, 8, 16, 32] {
            let xs: Vec<Var> = (0..n as u32).map(Var).collect();
            let ys: Vec<Var> = (n as u32..2 * n as u32).map(Var).collect();
            let mut supply = CountingSupply::new(10_000);
            let f = exa(n / 2, &xs, &ys, &mut supply);
            sizes.push(f.size());
        }
        // Doubling n should grow size by clearly less than 4x.
        for w in sizes.windows(2) {
            assert!(
                (w[1] as f64) < 3.5 * w[0] as f64,
                "superquadratic EXA growth: {sizes:?}"
            );
        }
    }

    #[test]
    fn distance_at_most_correct() {
        let n = 3usize;
        let xs: Vec<Var> = (0..n as u32).map(Var).collect();
        let ys: Vec<Var> = (n as u32..2 * n as u32).map(Var).collect();
        for k in 0..=n {
            let mut supply = CountingSupply::new(100);
            let f = distance_at_most(k, &xs, &ys, &mut supply);
            check_pairs(
                &f,
                &xs,
                &ys,
                |x, y| (x ^ y).count_ones() as usize <= k,
                &format!("dist ≤ {k}"),
            );
        }
    }

    #[test]
    fn distance_less_than_correct() {
        // 2-letter vectors; compare |A1△B1| < |A2△B2| over all 256
        // input combinations.
        let a1 = [Var(0), Var(1)];
        let b1 = [Var(2), Var(3)];
        let a2 = [Var(4), Var(5)];
        let b2 = [Var(6), Var(7)];
        let mut supply = CountingSupply::new(100);
        let f = distance_less_than(&a1, &b1, &a2, &b2, &mut supply);
        let inputs: Vec<Var> = (0..8).map(Var).collect();
        for m in 0..256u64 {
            let d1 = ((m & 3) ^ (m >> 2 & 3)).count_ones();
            let d2 = ((m >> 4 & 3) ^ (m >> 6 & 3)).count_ones();
            assert_eq!(
                evaluate_circuit_mask(&f, &inputs, m),
                d1 < d2,
                "DIST comparator at {m:b}"
            );
        }
    }

    #[test]
    fn exa_direct_matches_semantics() {
        use revkb_logic::Alphabet;
        for n in 0..=4usize {
            let xs: Vec<Var> = (0..n as u32).map(Var).collect();
            let ys: Vec<Var> = (n as u32..2 * n as u32).map(Var).collect();
            let alpha = Alphabet::new(xs.iter().chain(&ys).copied().collect());
            for k in 0..=n + 1 {
                let f = exa_direct(k, &xs, &ys);
                for m in 0..1u64 << (2 * n) {
                    let x = m & ((1 << n) - 1);
                    let y = m >> n;
                    assert_eq!(
                        alpha.eval_mask(&f, m),
                        (x ^ y).count_ones() as usize == k,
                        "exa_direct({k}) n={n} x={x:b} y={y:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_less_direct_matches_semantics() {
        use revkb_logic::Alphabet;
        let a = [Var(0), Var(1)];
        let b = [Var(2), Var(3)];
        let y = [Var(4), Var(5)];
        let f = distance_less_direct(&a, &b, &y);
        let alpha = Alphabet::new((0..6).map(Var).collect());
        for m in 0..64u64 {
            let (av, bv, yv) = (m & 3, m >> 2 & 3, m >> 4 & 3);
            assert_eq!(
                alpha.eval_mask(&f, m),
                (av ^ yv).count_ones() < (bv ^ yv).count_ones(),
                "at {m:b}"
            );
        }
    }

    #[test]
    fn hamming_count_gates_are_shared_by_every_k() {
        // One set of gates, every output condition: gates ∧ equals(k)
        // decides |X △ Y| = k, and equals(k) is ⊥ once k needs more
        // bits than the sum has.
        let xs: Vec<Var> = (0..3).map(Var).collect();
        let ys: Vec<Var> = (3..6).map(Var).collect();
        let mut supply = CountingSupply::new(100);
        let count = HammingCount::new(&xs, &ys, &mut supply);
        for k in 0..=3 {
            let f = count.gates.clone().and(count.equals(k));
            check_pairs(
                &f,
                &xs,
                &ys,
                |x, y| (x ^ y).count_ones() as usize == k,
                &format!("gates ∧ equals({k})"),
            );
        }
        assert_eq!(count.equals(1 << count.sum.len()), Formula::False);
    }

    #[test]
    fn exa_matches_the_one_builder_circuit() {
        // Splitting EXA into gates and output leaves the formula
        // unchanged: it is the circuit one builder closes with its
        // output condition, letter for letter.
        let xs: Vec<Var> = (0..5).map(Var).collect();
        let ys: Vec<Var> = (5..10).map(Var).collect();
        for k in 0..=6 {
            let mut supply = CountingSupply::new(100);
            let mut cb = CircuitBuilder::new(&mut supply);
            let bits = cb.diff_bits(&xs, &ys);
            let sum = cb.popcount(&bits);
            let out = equals_const(&sum, k as u64);
            let one_builder = cb.finish(out);
            assert_eq!(exa(k, &xs, &ys, &mut CountingSupply::new(100)), one_builder);
        }
    }
}
