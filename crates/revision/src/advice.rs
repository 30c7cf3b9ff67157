//! Tables 1 and 2 as a queryable API: given an operator and a usage
//! profile, report whether a compact representation exists, which
//! construction provides it, and what the paper's reference is.
//!
//! This is the paper's practical bottom line ("important aspects in
//! the choice of a revision operator are its compactability
//! properties", §8) packaged for a downstream system that needs to
//! *choose* an operator.

use crate::semantic::ModelBasedOp;

/// Which operator family is being asked about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// One of the six model-based operators.
    ModelBased(ModelBasedOp),
    /// Ginsberg–Fagin–Ullman–Vardi possible-worlds revision (also
    /// Nebel's prioritised refinement).
    Gfuv,
    /// When In Doubt Throw It Out.
    Widtio,
}

/// The usage profile a knowledge base owner cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Is `|P|` (each revision formula) bounded by a small constant?
    pub bounded_p: bool,
    /// May the stored representation introduce new propositional
    /// letters (query equivalence, criterion (1))? If false, logical
    /// equivalence (criterion (2)) is required.
    pub allow_new_letters: bool,
    /// Will revisions be iterated an unbounded number of times?
    pub iterated: bool,
}

/// The verdict for an (operator, profile) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Advice {
    /// A polynomial-size representation exists.
    Compactable {
        /// Which construction provides it.
        construction: &'static str,
        /// The paper's reference.
        reference: &'static str,
    },
    /// No polynomial-size representation exists unless the polynomial
    /// hierarchy collapses.
    NotCompactable {
        /// The paper's reference.
        reference: &'static str,
        /// The complexity consequence a compact representation would
        /// have.
        consequence: &'static str,
    },
}

impl Advice {
    /// Is a compact representation available?
    pub fn is_compactable(&self) -> bool {
        matches!(self, Advice::Compactable { .. })
    }
}

const NP_CONP: &str = "NP ⊆ coNP/poly (PH collapses to the third level)";
const NP_P: &str = "NP ⊆ P/poly (PH collapses to the second level)";

/// Look up the Table 1 / Table 2 verdict for `(op, profile)`.
pub fn advise(op: OperatorKind, profile: Profile) -> Advice {
    use Advice::{Compactable, NotCompactable};
    match op {
        OperatorKind::Widtio => Compactable {
            construction: "T *wid P is a subset of T plus P (widtio_compact)",
            reference: "§3",
        },
        OperatorKind::Gfuv => NotCompactable {
            reference: if profile.bounded_p {
                "Th.4.1"
            } else {
                "Th.3.1"
            },
            consequence: NP_CONP,
        },
        OperatorKind::ModelBased(mb) => {
            let global_query = matches!(mb, ModelBasedOp::Dalal | ModelBasedOp::Weber);
            match (
                profile.bounded_p,
                profile.allow_new_letters,
                profile.iterated,
            ) {
                // Bounded, single revision: everything is compactable,
                // even logically (Section 4).
                (true, _, false) => Compactable {
                    construction: bounded_construction(mb),
                    reference: bounded_reference(mb),
                },
                // Bounded, iterated: query equivalence only (Section 6).
                (true, true, true) => Compactable {
                    construction: iterated_construction(mb),
                    reference: iterated_reference(mb),
                },
                (true, false, true) => NotCompactable {
                    reference: "Th.6.5",
                    consequence: NP_P,
                },
                // Unbounded: only Dalal/Weber, only with new letters.
                (false, true, _) if global_query => Compactable {
                    construction: if mb == ModelBasedOp::Dalal {
                        if profile.iterated {
                            "Φₘ: chained T[X/Y] ∧ Pⁱ ∧ EXA(kᵢ) (RevisedKb::compile_iterated)"
                        } else {
                            "T[X/Y] ∧ P ∧ EXA(k,X,Y,W) (dalal_compact)"
                        }
                    } else if profile.iterated {
                        "chained T[Ωᵢ/Zᵢ] ∧ Pⁱ (RevisedKb::compile_iterated)"
                    } else {
                        "T[Ω/Z] ∧ P (weber_compact)"
                    },
                    reference: if mb == ModelBasedOp::Dalal {
                        if profile.iterated {
                            "Th.5.1"
                        } else {
                            "Th.3.4"
                        }
                    } else if profile.iterated {
                        "Cor.5.2"
                    } else {
                        "Th.3.5"
                    },
                },
                (false, false, _) if global_query => NotCompactable {
                    reference: "Th.3.6",
                    consequence: NP_P,
                },
                (false, _, _) => NotCompactable {
                    reference: match mb {
                        ModelBasedOp::Forbus => "Th.3.3",
                        _ => "Th.3.2",
                    },
                    consequence: NP_CONP,
                },
            }
        }
    }
}

fn bounded_construction(mb: ModelBasedOp) -> &'static str {
    match mb {
        ModelBasedOp::Winslett => "formula (5) (winslett_bounded)",
        ModelBasedOp::Borgida => "T ∧ P or formula (5) (borgida_bounded)",
        ModelBasedOp::Forbus => "formula (6) (forbus_bounded)",
        ModelBasedOp::Satoh => "formula (7) (satoh_bounded)",
        ModelBasedOp::Dalal => "formula (8) (dalal_bounded)",
        ModelBasedOp::Weber => "formula (9) (weber_bounded)",
    }
}

fn bounded_reference(mb: ModelBasedOp) -> &'static str {
    match mb {
        ModelBasedOp::Winslett => "Prop.4.3",
        ModelBasedOp::Borgida => "Cor.4.4",
        ModelBasedOp::Forbus => "Th.4.5",
        _ => "Th.4.6",
    }
}

fn iterated_construction(mb: ModelBasedOp) -> &'static str {
    match mb {
        ModelBasedOp::Winslett => "expanded formula (16) (RevisedKb::compile_iterated)",
        ModelBasedOp::Borgida => "stepwise ∧ / formula (16) (RevisedKb::compile_iterated)",
        ModelBasedOp::Forbus => "expanded formula (14) per step (RevisedKb::compile_iterated)",
        ModelBasedOp::Satoh => "offline δᵢ selector per step (RevisedKb::compile_iterated)",
        ModelBasedOp::Dalal => "Φₘ (RevisedKb::compile_iterated)",
        ModelBasedOp::Weber => "chained T[Ωᵢ/Zᵢ] ∧ Pⁱ (RevisedKb::compile_iterated)",
    }
}

fn iterated_reference(mb: ModelBasedOp) -> &'static str {
    match mb {
        ModelBasedOp::Dalal => "Th.5.1",
        ModelBasedOp::Weber => "Cor.5.2",
        _ => "Cor.6.4",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(bounded_p: bool, allow_new_letters: bool, iterated: bool) -> Profile {
        Profile {
            bounded_p,
            allow_new_letters,
            iterated,
        }
    }

    /// Reconstruct Table 1 from the advisor and compare cell by cell.
    #[test]
    fn table1_cells() {
        // (operator, gen/logical, gen/query, bnd/logical, bnd/query)
        let expected: Vec<(OperatorKind, [bool; 4])> = vec![
            (OperatorKind::Gfuv, [false, false, false, false]),
            (
                OperatorKind::ModelBased(ModelBasedOp::Winslett),
                [false, false, true, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Borgida),
                [false, false, true, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Forbus),
                [false, false, true, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Satoh),
                [false, false, true, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Dalal),
                [false, true, true, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Weber),
                [false, true, true, true],
            ),
            (OperatorKind::Widtio, [true, true, true, true]),
        ];
        for (op, cells) in expected {
            let got = [
                advise(op, profile(false, false, false)).is_compactable(),
                advise(op, profile(false, true, false)).is_compactable(),
                advise(op, profile(true, false, false)).is_compactable(),
                advise(op, profile(true, true, false)).is_compactable(),
            ];
            assert_eq!(got, cells, "Table 1 mismatch for {op:?}");
        }
    }

    /// Reconstruct Table 2 (iterated) from the advisor.
    #[test]
    fn table2_cells() {
        let expected: Vec<(OperatorKind, [bool; 4])> = vec![
            (OperatorKind::Gfuv, [false, false, false, false]),
            (
                OperatorKind::ModelBased(ModelBasedOp::Winslett),
                [false, false, false, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Forbus),
                [false, false, false, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Satoh),
                [false, false, false, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Dalal),
                [false, true, false, true],
            ),
            (
                OperatorKind::ModelBased(ModelBasedOp::Weber),
                [false, true, false, true],
            ),
            (OperatorKind::Widtio, [true, true, true, true]),
        ];
        for (op, cells) in expected {
            let got = [
                advise(op, profile(false, false, true)).is_compactable(),
                advise(op, profile(false, true, true)).is_compactable(),
                advise(op, profile(true, false, true)).is_compactable(),
                advise(op, profile(true, true, true)).is_compactable(),
            ];
            assert_eq!(got, cells, "Table 2 mismatch for {op:?}");
        }
    }

    /// The advice names a construction that actually exists for every
    /// compactable cell and a collapse consequence for every NO.
    #[test]
    fn advice_contents() {
        for mb in ModelBasedOp::ALL {
            for b in [false, true] {
                for q in [false, true] {
                    for it in [false, true] {
                        match advise(OperatorKind::ModelBased(mb), profile(b, q, it)) {
                            Advice::Compactable {
                                construction,
                                reference,
                            } => {
                                assert!(!construction.is_empty());
                                assert!(
                                    reference.starts_with("Th")
                                        || reference.starts_with("Cor")
                                        || reference.starts_with("Prop")
                                        || reference.starts_with("§")
                                );
                            }
                            Advice::NotCompactable { consequence, .. } => {
                                assert!(consequence.contains("poly"));
                            }
                        }
                    }
                }
            }
        }
    }
}
