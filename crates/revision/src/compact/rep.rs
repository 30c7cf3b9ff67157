//! The result type of a compact construction.

use revkb_logic::{Formula, Var};
use revkb_obs::Json;
use revkb_sat::{PoolConfig, PoolStats, QuerySession, SessionPool, SolverStats};
use std::cell::RefCell;

/// Error answering a query through a [`CompactRep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query mentions a letter outside the representation's base
    /// alphabet: the compactness guarantee (query equivalence to
    /// `T * P`) says nothing about such formulas, so an answer would
    /// be silently meaningless — auxiliary letters of `T'` are
    /// implementation detail, not knowledge.
    OutOfAlphabet {
        /// The offending letter.
        var: Var,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::OutOfAlphabet { var } => write!(
                f,
                "query mentions {var:?}, which is outside the representation's \
                 base alphabet; answers are only guaranteed for queries over \
                 the base letters"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Combined statistics of a representation's query engines: the
/// single-query [`QuerySession`] and the batch [`SessionPool`], both
/// lazily created, either possibly absent. Exposed uniformly as
/// `stats()` on [`CompactRep`], `RevisedKb`, and `DelayedKb`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Counters of the single-query session, if one has answered yet.
    pub session: Option<SolverStats>,
    /// Counters of the batch pool, if one has answered yet.
    pub pool: Option<PoolStats>,
}

impl EngineStats {
    /// Are both engines still unused?
    pub fn is_empty(&self) -> bool {
        self.session.is_none() && self.pool.is_none()
    }

    /// All counters folded into one [`SolverStats`] block. Its
    /// `total_query_micros` follows the CPU-time semantics of
    /// [`SolverStats::merge`] — do not read it as elapsed time when
    /// the pool ran in parallel.
    pub fn merged(&self) -> SolverStats {
        let mut merged = SolverStats::default();
        if let Some(session) = &self.session {
            merged.merge(session);
        }
        if let Some(pool) = &self.pool {
            merged.merge(&pool.merged());
        }
        merged
    }

    /// The stats as a JSON object: `session` and `pool` (each an
    /// object or `null`) plus the `merged` fold.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "session",
                self.session
                    .as_ref()
                    .map_or(Json::Null, SolverStats::to_json),
            ),
            (
                "pool",
                self.pool.as_ref().map_or(Json::Null, PoolStats::to_json),
            ),
            ("merged", self.merged().to_json()),
        ])
    }
}

/// A compact representation `T'` of a revised knowledge base, together
/// with the base alphabet on which its guarantee holds.
///
/// For *query-equivalent* representations (criterion (1)), `T'` may
/// use letters outside `base`; its consequences restricted to `base`
/// formulas coincide with those of `T * P`. For *logically equivalent*
/// representations (criterion (2)), `formula` uses only `base` letters
/// and `T' ≡ T * P`.
///
/// Entailment queries go through a lazily-created incremental
/// [`QuerySession`]: the first call to [`CompactRep::entails`] /
/// [`CompactRep::try_entails`] Tseitin-loads `formula` into a solver
/// once, and every later query reuses that solver (and its learned
/// clauses). Mutating `formula` after the first query is a footgun —
/// the session keeps answering for the formula it loaded; construct a
/// fresh `CompactRep` instead.
#[derive(Debug)]
pub struct CompactRep {
    /// The representation formula `T'`.
    pub formula: Formula,
    /// The base alphabet `X = V(T) ∪ V(P…)`.
    pub base: Vec<Var>,
    /// Whether the construction guarantees logical equivalence
    /// (criterion (2)); otherwise only query equivalence (criterion
    /// (1)) is guaranteed.
    pub logical: bool,
    /// Lazily-created incremental query engine over `formula`.
    session: RefCell<Option<QuerySession>>,
    /// Lazily-created sharded pool for batch queries (independent of
    /// the single-query session so mixed workloads keep both warm).
    pool: RefCell<Option<SessionPool>>,
    /// Configuration the lazy pool is created with; `None` means
    /// [`PoolConfig::default`] (which honours `REVKB_THREADS`).
    pool_config: RefCell<Option<PoolConfig>>,
}

impl Clone for CompactRep {
    fn clone(&self) -> Self {
        // The clone starts with a fresh (unloaded) session rather than
        // a copy of the solver state: cloning is used to build derived
        // representations, not to share query workloads. The pool
        // configuration, being a tuning knob rather than state, does
        // carry over.
        let rep = Self::new(self.formula.clone(), self.base.clone(), self.logical);
        *rep.pool_config.borrow_mut() = self.pool_config.borrow().clone();
        rep
    }
}

impl CompactRep {
    /// A representation with the given equivalence guarantee.
    pub fn new(formula: Formula, base: Vec<Var>, logical: bool) -> Self {
        Self {
            formula,
            base,
            logical,
            session: RefCell::new(None),
            pool: RefCell::new(None),
            pool_config: RefCell::new(None),
        }
    }

    /// Configure the batch pool that [`CompactRep::entails_batch`]
    /// lazily creates (worker count, sequential threshold). A no-op on
    /// an already-created pool — call it before the first batch. The
    /// default (no call) honours `REVKB_THREADS` via
    /// [`PoolConfig::default`].
    pub fn set_pool_config(&self, config: PoolConfig) {
        *self.pool_config.borrow_mut() = Some(config);
    }

    /// A query-equivalent representation.
    pub fn query(formula: Formula, base: Vec<Var>) -> Self {
        Self::new(formula, base, false)
    }

    /// A logically equivalent representation.
    pub fn logical(formula: Formula, base: Vec<Var>) -> Self {
        Self::new(formula, base, true)
    }

    /// The paper's size measure `|T'|` (variable occurrences).
    pub fn size(&self) -> usize {
        self.formula.size()
    }

    /// Answer `T * P ⊨ Q` through the representation (step 2 of the
    /// paper's two-step query answering), or report why the query is
    /// not answerable.
    ///
    /// Queries must stay within the base alphabet: a query mentioning
    /// other letters — auxiliary letters of the construction, or
    /// letters the knowledge base has never heard of — yields
    /// [`QueryError::OutOfAlphabet`] instead of a silently meaningless
    /// boolean.
    pub fn try_entails(&self, q: &Formula) -> Result<bool, QueryError> {
        if let Some(&var) = q.vars().iter().find(|v| !self.base.contains(v)) {
            return Err(QueryError::OutOfAlphabet { var });
        }
        let mut slot = self.session.borrow_mut();
        let session = slot.get_or_insert_with(|| {
            // Reserve the whole base alphabet for queries, not just
            // V(formula): the construction may have simplified a base
            // letter away, yet queries over it remain legitimate.
            let num_query_vars = self.base.iter().map(|v| v.0 + 1).max().unwrap_or(0);
            QuerySession::with_query_alphabet(&self.formula, num_query_vars)
        });
        Ok(session.entails(q))
    }

    /// Answer `T * P ⊨ Q` through the representation.
    ///
    /// # Panics
    ///
    /// If `q` uses letters outside the base alphabet — in **every**
    /// build profile, not just with debug assertions: an out-of-
    /// alphabet query has no defined answer, and returning one anyway
    /// was a silent-wrong-answer path. Use [`CompactRep::try_entails`]
    /// to handle the condition gracefully.
    pub fn entails(&self, q: &Formula) -> bool {
        match self.try_entails(q) {
            Ok(answer) => answer,
            Err(e) => panic!("CompactRep::entails: {e}"),
        }
    }

    /// Answer a batch of queries `T * P ⊨ Qᵢ` through a sharded
    /// [`SessionPool`] (parallel above the pool's batch threshold,
    /// sequential below it), or report the first out-of-alphabet
    /// query. The answer at index `i` is for `queries[i]`.
    ///
    /// Every query is alphabet-checked **before** any is answered, so
    /// an `Err` means no work was done and no session state changed.
    pub fn try_entails_batch(&self, queries: &[Formula]) -> Result<Vec<bool>, QueryError> {
        for q in queries {
            if let Some(&var) = q.vars().iter().find(|v| !self.base.contains(v)) {
                return Err(QueryError::OutOfAlphabet { var });
            }
        }
        let mut slot = self.pool.borrow_mut();
        let pool = slot.get_or_insert_with(|| {
            let num_query_vars = self.base.iter().map(|v| v.0 + 1).max().unwrap_or(0);
            let config = self.pool_config.borrow().clone().unwrap_or_default();
            SessionPool::with_query_alphabet(&self.formula, num_query_vars, config)
        });
        Ok(pool.par_entails_batch(queries))
    }

    /// Answer a batch of queries through the sharded pool.
    ///
    /// # Panics
    ///
    /// If any query uses letters outside the base alphabet (see
    /// [`CompactRep::try_entails_batch`]).
    pub fn entails_batch(&self, queries: &[Formula]) -> Vec<bool> {
        match self.try_entails_batch(queries) {
            Ok(answers) => answers,
            Err(e) => panic!("CompactRep::entails_batch: {e}"),
        }
    }

    /// Statistics of the incremental query session, if any query has
    /// been answered yet.
    pub fn query_stats(&self) -> Option<SolverStats> {
        self.session.borrow().as_ref().map(|s| s.stats())
    }

    /// Statistics of the batch-query pool, if any batch has been
    /// answered yet.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.borrow().as_ref().map(SessionPool::stats)
    }

    /// Combined statistics of both query engines (the single-query
    /// session and the batch pool), uniformly shaped as
    /// [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            session: self.query_stats(),
            pool: self.pool_stats(),
        }
    }

    /// The auxiliary letters used beyond the base alphabet.
    pub fn aux_vars(&self) -> Vec<Var> {
        self.formula
            .vars()
            .into_iter()
            .filter(|v| !self.base.contains(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn entails_uses_incremental_session() {
        let rep = CompactRep::logical(v(0).and(v(1)), vec![Var(0), Var(1)]);
        assert!(rep.query_stats().is_none(), "session is lazy");
        assert!(rep.entails(&v(0)));
        assert!(!rep.entails(&v(0).not()));
        assert!(rep.entails(&v(0)));
        let stats = rep.query_stats().expect("session exists after queries");
        assert_eq!(stats.base_loads, 1);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn try_entails_rejects_out_of_alphabet() {
        let rep = CompactRep::logical(v(0), vec![Var(0)]);
        assert_eq!(
            rep.try_entails(&v(7)),
            Err(QueryError::OutOfAlphabet { var: Var(7) })
        );
        // The error message names the guarantee, not just the letter.
        let msg = rep.try_entails(&v(7)).unwrap_err().to_string();
        assert!(msg.contains("base alphabet"));
    }

    #[test]
    #[should_panic(expected = "outside the representation's base alphabet")]
    fn entails_panics_out_of_alphabet() {
        let rep = CompactRep::logical(v(0), vec![Var(0)]);
        rep.entails(&v(7));
    }

    #[test]
    fn batch_matches_single_queries() {
        let rep = CompactRep::logical(v(0).and(v(1)), vec![Var(0), Var(1)]);
        let queries = vec![v(0), v(1).not(), v(0).and(v(1)), v(0).or(v(1)).not()];
        let batch = rep.entails_batch(&queries);
        let single: Vec<bool> = queries.iter().map(|q| rep.entails(q)).collect();
        assert_eq!(batch, single);
        let pool = rep.pool_stats().expect("pool ran");
        assert_eq!(pool.queries, 4);
        assert!(pool.threads >= 1);
    }

    #[test]
    fn batch_rejects_out_of_alphabet_before_answering() {
        let rep = CompactRep::logical(v(0), vec![Var(0)]);
        assert_eq!(
            rep.try_entails_batch(&[v(0), v(9)]),
            Err(QueryError::OutOfAlphabet { var: Var(9) })
        );
        assert!(rep.pool_stats().is_none(), "no pool built on rejection");
    }

    #[test]
    fn clone_resets_session() {
        let rep = CompactRep::query(v(0), vec![Var(0)]);
        assert!(rep.entails(&v(0)));
        let cloned = rep.clone();
        assert!(cloned.query_stats().is_none());
        assert!(cloned.entails(&v(0)));
    }
}
