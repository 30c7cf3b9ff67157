//! Seeded input generation for the three workloads, with the answer
//! each request must get.
//!
//! Every request line is a pure function of `(seed, workload,
//! connection, position)`: the server only ever sees these texts, and
//! the same seed reproduces the same byte stream.

use revkb_instances::{gamma_max, Clause3, ThreeSat};
use revkb_logic::{parse, Alphabet, Formula, Signature};
use revkb_revision::{revise_on, ModelBasedOp};

/// FNV-1a's offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash `h` over `bytes`.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: &str, index: u64) -> Rng {
        let h = fnv(FNV_OFFSET, stream.as_bytes());
        let mut rng = Rng(seed ^ h.rotate_left(17) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁵⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random `k`-subset of `0..n`, sorted.
    pub fn subset(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            items.swap(i, j);
        }
        let mut chosen = items[..k].to_vec();
        chosen.sort_unstable();
        chosen
    }
}

/// What a request is and what its response must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Load,
    /// A revise; `miss` requires `cache:"miss"` (every key is new).
    Revise {
        miss: bool,
    },
    /// A query with its reference answer.
    Query {
        entails: bool,
    },
    Drop,
}

impl Expect {
    pub fn cmd(&self) -> &'static str {
        match self {
            Expect::Load => "load",
            Expect::Revise { .. } => "revise",
            Expect::Query { .. } => "query",
            Expect::Drop => "drop",
        }
    }
}

/// One request line plus its reference.
#[derive(Debug, Clone)]
pub struct Op {
    pub line: String,
    pub expect: Expect,
    /// The formula text the request carries (`t`, `p` or `q`).
    pub text: String,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn load(kb: &str, t: &str) -> Op {
    Op {
        line: format!(
            "{{\"cmd\":\"load\",\"kb\":{},\"t\":{}}}",
            json_str(kb),
            json_str(t)
        ),
        expect: Expect::Load,
        text: t.to_string(),
    }
}

pub fn revise(kb: &str, op: &str, p: &str, miss: bool) -> Op {
    Op {
        line: format!(
            "{{\"cmd\":\"revise\",\"kb\":{},\"op\":\"{op}\",\"p\":{}}}",
            json_str(kb),
            json_str(p)
        ),
        expect: Expect::Revise { miss },
        text: p.to_string(),
    }
}

pub fn query(kb: &str, q: &str, entails: bool) -> Op {
    Op {
        line: format!(
            "{{\"cmd\":\"query\",\"kb\":{},\"q\":{}}}",
            json_str(kb),
            json_str(q)
        ),
        expect: Expect::Query { entails },
        text: q.to_string(),
    }
}

pub fn drop_kb(kb: &str) -> Op {
    Op {
        line: format!("{{\"cmd\":\"drop\",\"kb\":{}}}", json_str(kb)),
        expect: Expect::Drop,
        text: String::new(),
    }
}

// ------------------------------------------------ Thms 3.6 and 6.5

/// The Theorem 3.6 / 6.5 family as request texts: `Tₙ = Φₙ ∧ Γₙ` over
/// a clause universe, one guard letter `cⱼ` per universe clause.
#[derive(Debug, Clone)]
pub struct Family {
    pub n: usize,
    pub universe: Vec<Clause3>,
    /// `Tₙ` as a `;`-separated theory: the `bᵢ <+> yᵢ` of `Φₙ`, then
    /// one `γⱼ | !cⱼ` per universe clause.
    pub theory: String,
}

impl Family {
    pub fn new(n: usize, universe: Vec<Clause3>) -> Family {
        let mut parts: Vec<String> = (1..=n).map(|i| format!("b{i} <+> y{i}")).collect();
        for (j, clause) in universe.iter().enumerate() {
            let lits: Vec<String> = clause
                .lits
                .iter()
                .map(|&(i, pos)| format!("{}b{}", if pos { "" } else { "!" }, i + 1))
                .collect();
            parts.push(format!("{} | !c{}", lits.join(" | "), j + 1));
        }
        Family {
            n,
            universe,
            theory: parts.join("; "),
        }
    }

    /// Theorem 3.6's `Pₙ = ⋀ᵢ(¬bᵢ ∧ ¬yᵢ)`.
    pub fn p_single(&self) -> String {
        (1..=self.n)
            .map(|i| format!("!b{i} & !y{i}"))
            .collect::<Vec<_>>()
            .join(" & ")
    }

    /// Theorem 6.5's constant-size chain `Pⁱ = ¬bᵢ ∧ ¬yᵢ`.
    pub fn p_chain(&self) -> Vec<String> {
        (1..=self.n).map(|i| format!("!b{i} & !y{i}")).collect()
    }

    /// A random instance `π` of `k` universe clauses, as indices.
    pub fn instance(&self, rng: &mut Rng, k: usize) -> Vec<usize> {
        rng.subset(self.universe.len(), k)
    }

    /// Brute-force 3-SAT on `π`: the reference answer.
    pub fn satisfiable(&self, pi: &[usize]) -> bool {
        ThreeSat {
            n: self.n,
            clauses: pi.iter().map(|&j| self.universe[j]).collect(),
        }
        .satisfiable()
    }

    /// `Q_π = ¬C_π`: `C_π` sets `cⱼ` for `γⱼ ∈ π` and every other
    /// letter false, so `T * P ⊨ Q_π` iff `π` is unsatisfiable.
    pub fn query(&self, kb: &str, pi: &[usize]) -> Op {
        let mut lits: Vec<String> = (1..=self.n).map(|i| format!("!b{i} & !y{i}")).collect();
        let mut next = pi.iter().peekable();
        for j in 0..self.universe.len() {
            if next.peek() == Some(&&j) {
                next.next();
                lits.push(format!("c{}", j + 1));
            } else {
                lits.push(format!("!c{}", j + 1));
            }
        }
        query(
            kb,
            &format!("!({})", lits.join(" & ")),
            !self.satisfiable(pi),
        )
    }
}

/// `thm36-query`: `Tₙ` over all of `γₙᵐᵃˣ` at this `n`.
pub const THM36_N: usize = 6;
/// Clauses per `π`: about half of the instances are satisfiable.
pub const THM36_PI: usize = 29;
/// `thm65-chain`: the chain length and atom count.
pub const THM65_N: usize = 5;
/// Clauses in each session's random sub-universe of `γ₅ᵐᵃˣ`.
pub const THM65_UNIVERSE: usize = 32;
/// Clauses per verifying `π`.
pub const THM65_PI: usize = 24;
/// Verifying queries per chain session.
pub const THM65_QUERIES: usize = 64;

pub fn thm36_family() -> Family {
    Family::new(THM36_N, gamma_max(THM36_N))
}

/// One `thm65-chain` session's family: a fresh sub-universe, so its
/// cache key is new.
pub fn thm65_family(rng: &mut Rng) -> Family {
    let all = gamma_max(THM65_N);
    let picked = rng.subset(all.len(), THM65_UNIVERSE);
    Family::new(THM65_N, picked.into_iter().map(|j| all[j]).collect())
}

/// One `thm65-chain` session on KB `kb`: load, the Dalal chain, and
/// verifying queries.
pub fn thm65_session(rng: &mut Rng, kb: &str) -> Vec<Op> {
    let family = thm65_family(rng);
    let mut ops = vec![load(kb, &family.theory)];
    for p in family.p_chain() {
        ops.push(revise(kb, "dalal", &p, true));
    }
    for _ in 0..THM65_QUERIES {
        let pi = family.instance(rng, THM65_PI);
        ops.push(family.query(kb, &pi));
    }
    ops
}

// ------------------------------------------------------ durable-mix

/// Letters of the small theories.
pub const MIX_LETTERS: usize = 10;
pub const MIX_THEORIES: usize = 12;
pub const MIX_REVISIONS: usize = 4;
/// Queries per key in the reference table (half entailed where the
/// generator finds them).
pub const MIX_QUERY_POOL: usize = 8;
pub const MIX_QUERIES: usize = 4;

/// One `(T, P)` pair of the pool with its reference query table.
#[derive(Debug, Clone)]
pub struct MixKey {
    pub theory: String,
    pub p: String,
    pub queries: Vec<(String, bool)>,
}

fn literal(rng: &mut Rng, letter: usize) -> String {
    format!("{}x{letter}", if rng.below(2) == 0 { "!" } else { "" })
}

fn clause(rng: &mut Rng, letters: &[usize], width: usize) -> String {
    let picked = rng.subset(letters.len(), width);
    picked
        .iter()
        .map(|&i| literal(rng, letters[i]))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// The `durable-mix` pool: `MIX_THEORIES × MIX_REVISIONS` keys, each
/// with a query table built by the enumeration oracle
/// (`semantic::revise_on`), independent of the compiled path.
pub fn mix_pool(seed: u64) -> Vec<MixKey> {
    let mut rng = Rng::new(seed, "durable-mix.pool", 0);
    let all: Vec<usize> = (0..MIX_LETTERS).collect();
    let mut keys = Vec::new();
    for _ in 0..MIX_THEORIES {
        let theory = (0..4)
            .map(|_| clause(&mut rng, &all, 3))
            .collect::<Vec<_>>()
            .join("; ");
        for _ in 0..MIX_REVISIONS {
            let p = rng
                .subset(MIX_LETTERS, 2)
                .into_iter()
                .map(|l| literal(&mut rng, l))
                .collect::<Vec<_>>()
                .join(" & ");
            keys.push(mix_key(&mut rng, theory.clone(), p));
        }
    }
    keys
}

fn mix_key(rng: &mut Rng, theory: String, p: String) -> MixKey {
    // Parse in the server's order (theory, then P) so letter numbering
    // matches; queries use only letters the KB already has.
    let mut sig = Signature::new();
    let t = Formula::and_all(
        theory
            .split(';')
            .map(|s| parse(s.trim(), &mut sig).expect("generated theory parses")),
    );
    let p_f = parse(&p, &mut sig).expect("generated revision parses");
    let alphabet = Alphabet::of_formulas([&t, &p_f]);
    let revised = revise_on(ModelBasedOp::Dalal, &alphabet, &t, &p_f);
    let letters: Vec<usize> = alphabet
        .vars()
        .iter()
        .map(|&v| {
            sig.name(v).expect("letter has a name")[1..]
                .parse()
                .expect("letters are x<digit>")
        })
        .collect();
    let (mut yes, mut no) = (Vec::new(), Vec::new());
    for _ in 0..400 {
        if yes.len() >= MIX_QUERY_POOL / 2 && no.len() >= MIX_QUERY_POOL / 2 {
            break;
        }
        let width = 1 + rng.below(2);
        let q = clause(rng, &letters, width);
        let q_f = parse(&q, &mut sig.clone()).expect("generated query parses");
        let answer = revised.entails(&q_f);
        let bucket = if answer { &mut yes } else { &mut no };
        if bucket.len() < MIX_QUERY_POOL / 2 && !bucket.iter().any(|(s, _)| s == &q) {
            bucket.push((q, answer));
        }
    }
    let mut queries = yes;
    queries.extend(no);
    MixKey { theory, p, queries }
}

/// One `durable-mix` session on KB `kb`: load → Dalal revise → 4
/// distinct queries → drop, over a random key of the pool.
pub fn mix_session(rng: &mut Rng, pool: &[MixKey], kb: &str) -> Vec<Op> {
    let key = &pool[rng.below(pool.len())];
    let mut ops = vec![load(kb, &key.theory), revise(kb, "dalal", &key.p, false)];
    let picks = rng.subset(key.queries.len(), MIX_QUERIES.min(key.queries.len()));
    for i in picks {
        let (q, entails) = &key.queries[i];
        ops.push(query(kb, q, *entails));
    }
    ops.push(drop_kb(kb));
    ops
}
