//! Property tests for the circuit crate: every distance construct
//! agrees with the arithmetic it encodes, across random widths,
//! thresholds and inputs.

use proptest::prelude::*;
use revkb_circuits::{
    distance_at_most, distance_less_direct, equals_const, evaluate_circuit_mask, exa, exa_direct,
    k_subsets, CircuitBuilder,
};
use revkb_logic::{CountingSupply, Formula, Var};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// EXA (gated) and exa_direct (gate-free) both decide
    /// |X △ Y| = k, for all inputs.
    #[test]
    fn exa_variants_agree_with_hamming(n in 1usize..5, k in 0usize..6, mask in 0u64..1024) {
        let xs: Vec<Var> = (0..n as u32).map(Var).collect();
        let ys: Vec<Var> = (n as u32..2 * n as u32).map(Var).collect();
        let inputs: Vec<Var> = xs.iter().chain(&ys).copied().collect();
        let m = mask & ((1u64 << (2 * n)) - 1);
        let x = m & ((1 << n) - 1);
        let y = m >> n;
        let expected = (x ^ y).count_ones() as usize == k;

        let mut supply = CountingSupply::new(100);
        let gated = exa(k, &xs, &ys, &mut supply);
        prop_assert_eq!(evaluate_circuit_mask(&gated, &inputs, m), expected);

        let direct = exa_direct(k, &xs, &ys);
        let alpha = revkb_logic::Alphabet::new(inputs.clone());
        prop_assert_eq!(alpha.eval_mask(&direct, m), expected);
    }

    /// distance_at_most decides |X △ Y| ≤ k.
    #[test]
    fn at_most_agrees(n in 1usize..5, k in 0usize..6, mask in 0u64..1024) {
        let xs: Vec<Var> = (0..n as u32).map(Var).collect();
        let ys: Vec<Var> = (n as u32..2 * n as u32).map(Var).collect();
        let inputs: Vec<Var> = xs.iter().chain(&ys).copied().collect();
        let m = mask & ((1u64 << (2 * n)) - 1);
        let x = m & ((1 << n) - 1);
        let y = m >> n;
        let mut supply = CountingSupply::new(100);
        let f = distance_at_most(k, &xs, &ys, &mut supply);
        prop_assert_eq!(
            evaluate_circuit_mask(&f, &inputs, m),
            (x ^ y).count_ones() as usize <= k
        );
    }

    /// The gate-free comparator decides |A △ Y| < |B △ Y|.
    #[test]
    fn less_direct_agrees(mask in 0u64..4096) {
        let a = [Var(0), Var(1)];
        let b = [Var(2), Var(3)];
        let y = [Var(4), Var(5)];
        let f = distance_less_direct(&a, &b, &y);
        let alpha = revkb_logic::Alphabet::new((0..6).map(Var).collect());
        let m = mask & 63;
        let (av, bv, yv) = (m & 3, m >> 2 & 3, m >> 4 & 3);
        prop_assert_eq!(
            alpha.eval_mask(&f, m),
            (av ^ yv).count_ones() < (bv ^ yv).count_ones()
        );
    }

    /// popcount + equals_const over random widths.
    #[test]
    fn popcount_counts(n in 1usize..7, mask in 0u64..128) {
        let inputs: Vec<Var> = (0..n as u32).map(Var).collect();
        let m = mask & ((1u64 << n) - 1);
        for k in 0..=n as u64 {
            let mut supply = CountingSupply::new(100);
            let mut cb = CircuitBuilder::new(&mut supply);
            let wires: Vec<Formula> = inputs.iter().map(|&v| Formula::var(v)).collect();
            let sum = cb.popcount(&wires);
            let out = equals_const(&sum, k);
            let f = cb.finish(out);
            prop_assert_eq!(
                evaluate_circuit_mask(&f, &inputs, m),
                m.count_ones() as u64 == k
            );
        }
    }

    /// k_subsets enumerates exactly C(n, k) sorted subsets.
    #[test]
    fn k_subsets_complete(n in 0usize..7, k in 0usize..7) {
        let subsets = k_subsets(n, k);
        fn choose(n: usize, k: usize) -> usize {
            if k > n {
                return 0;
            }
            (0..k).fold(1usize, |acc, i| acc * (n - i) / (i + 1))
        }
        prop_assert_eq!(subsets.len(), choose(n, k));
        let distinct: std::collections::HashSet<_> = subsets.iter().collect();
        prop_assert_eq!(distinct.len(), subsets.len());
        for s in &subsets {
            prop_assert_eq!(s.len(), k);
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(s.iter().all(|&i| i < n));
        }
    }
}
