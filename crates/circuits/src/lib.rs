//! # revkb-circuits
//!
//! Boolean circuits as polynomial-size propositional formulas with
//! definitional gate letters — the paper's `EXA(k, X, Y, W)`
//! Hamming-distance formula (Theorem 3.4) and the distance comparator
//! of formula (14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod distance;
pub mod evaluate;

pub use builder::{equals_const, CircuitBuilder, Wire};
pub use distance::{
    distance_at_most, distance_less_direct, distance_less_than, exa, exa_direct, k_subsets,
    HammingCount,
};
pub use evaluate::{evaluate_circuit, evaluate_circuit_mask};
