//! Direct evaluation of definitional circuits.
//!
//! A circuit produced by [`crate::CircuitBuilder`] has the shape
//! `def₁ ∧ … ∧ defₖ ∧ output`, where each `defᵢ` is `wᵢ ≡ gateᵢ` and
//! `gateᵢ` mentions only inputs and earlier gate letters. For a fixed
//! input assignment the gate letters are functionally determined, so
//! the circuit can be evaluated in one linear pass instead of searching
//! over the `W` letters. This is both a fast test oracle and a direct
//! demonstration of the unique-extension property Theorem 3.4 relies
//! on.

use revkb_logic::{Formula, Interpretation, Var};
use std::collections::HashMap;

/// Evaluate a definitional circuit under an assignment to its inputs.
///
/// Returns the truth value of the conjunction with every gate letter
/// set to its (unique) forced value. Gate definitions are recognised
/// as `Iff(Var(w), rhs)` conjuncts whose `w` is not an input and has
/// not been defined yet; all other conjuncts are treated as output
/// conditions.
pub fn evaluate_circuit(f: &Formula, inputs: &Interpretation) -> bool {
    let mut values: HashMap<Var, bool> = inputs.iter().map(|&v| (v, true)).collect();
    let input_set: std::collections::BTreeSet<Var> = inputs.iter().copied().collect();
    let parts: Vec<&Formula> = match f {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    };
    let mut outputs = Vec::new();
    for part in parts {
        if let Formula::Iff(lhs, rhs) = part {
            if let Formula::Var(w) = **lhs {
                if !input_set.contains(&w) && !values.contains_key(&w) {
                    let val = rhs.eval_fn(&|v| values.get(&v).copied().unwrap_or(false));
                    values.insert(w, val);
                    continue;
                }
            }
        }
        outputs.push(part);
    }
    outputs
        .iter()
        .all(|g| g.eval_fn(&|v| values.get(&v).copied().unwrap_or(false)))
}

/// Evaluate over an input mask relative to an ordered input list.
pub fn evaluate_circuit_mask(f: &Formula, inputs: &[Var], mask: u64) -> bool {
    let m: Interpretation = inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, &v)| v)
        .collect();
    evaluate_circuit(f, &m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{equals_const, CircuitBuilder};
    use revkb_logic::CountingSupply;

    #[test]
    fn evaluates_gates_in_order() {
        let inputs = [Var(0), Var(1), Var(2)];
        let mut supply = CountingSupply::new(100);
        let mut cb = CircuitBuilder::new(&mut supply);
        let wires: Vec<Formula> = inputs.iter().map(|&v| Formula::var(v)).collect();
        let sum = cb.popcount(&wires);
        let out = equals_const(&sum, 2);
        let f = cb.finish(out);
        for mask in 0..8u64 {
            let expected = mask.count_ones() == 2;
            assert_eq!(
                evaluate_circuit_mask(&f, &inputs, mask),
                expected,
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn plain_formula_without_defs() {
        let f = Formula::var(Var(0)).and(Formula::var(Var(1)).not());
        assert!(evaluate_circuit_mask(&f, &[Var(0), Var(1)], 0b01));
        assert!(!evaluate_circuit_mask(&f, &[Var(0), Var(1)], 0b11));
    }
}
