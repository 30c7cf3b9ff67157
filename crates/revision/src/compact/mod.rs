//! The paper's explicit compactability constructions.
//!
//! | Construction | Paper | Criterion | Case |
//! |---|---|---|---|
//! | [`dalal::dalal_compact`] | Thm 3.4 | query equivalence | general |
//! | [`weber::weber_compact`] | Thm 3.5 | query equivalence | general |
//! | [`bounded`] (formulas 5–9) | Prop 4.3, Cor 4.4, Thm 4.5, Thm 4.6 | logical equivalence | bounded `\|P\|` |
//! | [`RevisedKb::extend`](crate::engine::RevisedKb::extend) (Dalal) | Thm 5.1 (`Φₘ`) | query equivalence | iterated general |
//! | [`RevisedKb::extend`](crate::engine::RevisedKb::extend) (Weber) | Cor 5.2 (formula 10) | query equivalence | iterated general |
//! | [`RevisedKb::extend`](crate::engine::RevisedKb::extend) (bounded operators) | Thm 6.1–6.3, Cor 6.4, formulas (12)–(16) | query equivalence | iterated bounded |
//! | [`widtio_compact`] | §3 opening remark | logical equivalence | always |

pub mod bounded;
pub mod dalal;
pub mod iterated;
pub mod rep;
pub mod weber;

pub use bounded::{
    borgida_bounded, dalal_bounded, forbus_bounded, prune_disjuncts, satoh_bounded, weber_bounded,
    winslett_bounded,
};
pub use dalal::{dalal_compact, dalal_compact_auto};
pub use iterated::satoh_qbf_paper;
pub use rep::{CompactRep, EngineStats, QueryError};
pub use weber::{weber_compact, weber_compact_auto};

use crate::formula_based::{widtio, Theory};
use revkb_logic::Formula;

/// WIDTIO is trivially logically compactable: `|T *wid P| ≤ |T| + |P|`
/// by definition (it keeps a subset of `T`'s formulas plus `P`).
pub fn widtio_compact(t: &Theory, p: &Formula) -> Formula {
    widtio(t, p).conjunction()
}
