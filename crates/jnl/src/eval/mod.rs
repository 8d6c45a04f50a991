//! Evaluation engines for JNL.
//!
//! Four engines implement the semantics at the complexity points the paper
//! identifies:
//!
//! | Engine | Fragment | Bound (paper) | Where |
//! |---|---|---|---|
//! | [`naive`] | full logic | — (reference oracle) | differential tests |
//! | [`linear`] | deterministic JNL | `O(\|J\|·\|φ\|)` (Prop 1) | E1 |
//! | [`pdl`] | + non-det, recursion; no `EQ(α,β)` | `O(\|J\|·\|φ\|)` (Prop 3) | E3 |
//! | [`cubic`] | full logic incl. `EQ(α,β)` | `O(\|J\|³·\|φ\|)` (Prop 3) | E3 |
//!
//! [`evaluate`] dispatches to the cheapest engine that supports the
//! formula's fragment. All engines share the [`EvalContext`] (tree +
//! canonical subtree labels + per-regex edge-match caches).

pub mod cubic;
pub mod linear;
pub mod naive;
pub mod pathnfa;
pub mod pdl;

use jguard::{QueryCtx, QueryError};
use jsondata::{CanonTable, Json, JsonTree, NodeId, Sym};
use jtrace::Counter;
use relex::{EdgeStrategy, MatcherId, Regex, SymMatcher, SymMatcherTable};

use crate::ast::Unary;

/// Errors raised when a formula falls outside an engine's fragment, or
/// when a governed evaluation is stopped by its [`QueryCtx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The linear engine was given a non-deterministic construct.
    NotDeterministic(&'static str),
    /// The PDL engine was given `EQ(α, β)` (use [`cubic`]).
    EqPairUnsupported,
    /// A deadline/cancellation poll stopped the evaluation (only
    /// reachable through the `*_ctx` entry points, which unwrap it back
    /// to the underlying [`QueryError`]).
    Interrupted(QueryError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::NotDeterministic(what) => {
                write!(
                    f,
                    "formula uses {what}, outside the deterministic fragment (Prop 1)"
                )
            }
            EvalError::EqPairUnsupported => write!(
                f,
                "EQ(α, β) requires the cubic engine (Prop 3 excludes it from the linear case)"
            ),
            EvalError::Interrupted(q) => write!(f, "evaluation interrupted: {q}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Shared evaluation state for one tree: canonical labels plus the
/// per-regex edge matchers of the Proposition 3 proof's preprocessing step.
///
/// Edge keys live in the tree itself as interned [`Sym`]s — nothing is
/// cloned here. On the default [`EdgeStrategy::DfaBitset`] tier each regex
/// is compiled to a DFA once per (query, tree) and evaluated over the whole
/// symbol table in one pass, so every later edge test is a single bit load
/// (no string resolution, no automaton run); regexes too large to
/// determinise fall back to the lazy per-`(regex, symbol)` memo.
pub struct EvalContext<'t> {
    /// The document tree.
    pub tree: &'t JsonTree,
    /// Canonical subtree labels (the online-equality refinement of Prop 1).
    pub canon: CanonTable,
    /// `regex → edge matcher` (bitset tier with lazy-memo fallback).
    matchers: SymMatcherTable,
    /// Governance handle for cooperative interruption (unlimited — a
    /// no-op — unless built through [`EvalContext::with_guard`]).
    guard: QueryCtx,
}

impl<'t> EvalContext<'t> {
    /// Builds the context (one `O(|J|)` pass for the canonical labels; the
    /// edge matchers compile on first sight of each regex).
    pub fn new(tree: &'t JsonTree) -> EvalContext<'t> {
        EvalContext::with_strategy(tree, EdgeStrategy::default())
    }

    /// [`EvalContext::new`] with an explicit edge-matching strategy (the
    /// lazy-memo tier is kept selectable for benchmark ablations).
    pub fn with_strategy(tree: &'t JsonTree, strategy: EdgeStrategy) -> EvalContext<'t> {
        EvalContext {
            tree,
            canon: CanonTable::build(tree),
            matchers: SymMatcherTable::with_strategy(strategy),
            guard: QueryCtx::unlimited(),
        }
    }

    /// [`EvalContext::new`] bound to a governance context: the per-node
    /// evaluation loops poll `guard` (every [`jguard::POLL_STRIDE`]
    /// nodes) and stop with [`EvalError::Interrupted`] when it fails.
    pub fn with_guard(tree: &'t JsonTree, guard: QueryCtx) -> EvalContext<'t> {
        // The canon table was just built by `new` — make the work visible
        // to a metrics sink riding on the guard.
        guard.record(Counter::CanonBuilds, 1);
        EvalContext {
            guard,
            ..EvalContext::new(tree)
        }
    }

    /// The amortised per-node guard poll for loops that carry an index:
    /// the stride test is one mask on the loop counter ([`jguard::POLL_STRIDE`]
    /// is a power of two), so the between-stride cost stays in registers;
    /// the real check (time + cancellation + fault hook) runs once per
    /// stride on a governed context and never on an unlimited one.
    #[inline]
    pub(crate) fn poll_at(&self, i: usize) -> Result<(), EvalError> {
        if i & (jguard::POLL_STRIDE as usize - 1) != 0 {
            return Ok(());
        }
        if self.guard.is_unlimited() {
            return Ok(());
        }
        self.guard.check().map_err(EvalError::Interrupted)
    }

    /// The key on the edge into `n`, if `n` is an object child (resolved
    /// string; hot paths should use [`JsonTree::incoming_key_sym`] and
    /// compare symbols).
    pub fn incoming_key(&self, n: NodeId) -> Option<&'t str> {
        self.tree.incoming_key_sym(n).map(|s| self.tree.resolve(s))
    }

    /// The position on the edge into `n`, if `n` is an array child.
    pub fn incoming_index(&self, n: NodeId) -> Option<u64> {
        self.tree.incoming_index(n)
    }

    /// Whether the string behind `sym` (an edge key or string atom of this
    /// tree) matches `e` — a bit load on the default tier.
    pub fn key_matches(&mut self, e: &Regex, sym: Sym) -> bool {
        let tree = self.tree;
        self.matcher_for(e)
            .matches_sym(sym.index(), || tree.resolve(sym))
    }

    /// The edge matcher for `e` — fetch once before a loop over many edges
    /// so the table probe (which hashes the regex AST) runs once, not per
    /// edge.
    pub fn matcher_for(&mut self, e: &Regex) -> &mut SymMatcher {
        let id = self.matcher_id(e);
        self.matchers.get_mut(id)
    }

    /// Pre-resolves `e` to a stable matcher id (compiling on first sight),
    /// so hot loops can fetch the matcher by vector index via
    /// [`EvalContext::matcher`] with no AST hashing per edge. First-sight
    /// compilations are recorded against the guard's metrics sink
    /// (one [`Counter::DfaBitsetBuilds`] per distinct regex per context).
    pub fn matcher_id(&mut self, e: &Regex) -> MatcherId {
        let tree = self.tree;
        let before = self.matchers.len();
        let id = self
            .matchers
            .id(e, || tree.interner().iter().map(|(_, s)| s));
        if self.matchers.len() > before {
            self.guard.record(Counter::DfaBitsetBuilds, 1);
        }
        id
    }

    /// The matcher behind a pre-resolved id.
    #[inline]
    pub fn matcher(&mut self, id: MatcherId) -> &mut SymMatcher {
        self.matchers.get_mut(id)
    }

    /// The canonical class of an external document within this tree, if the
    /// document occurs as a subtree.
    pub fn class_of_doc(&self, doc: &Json) -> Option<u32> {
        self.canon.class_of_json(self.tree, doc)
    }
}

/// The result of an evaluation: the set of nodes satisfying the formula,
/// as a membership vector indexed by `NodeId::index()`.
pub type NodeSet = Vec<bool>;

/// Evaluates `φ` over `tree` with the best applicable engine:
/// deterministic → [`linear`], no `EQ(α,β)` → [`pdl`], otherwise [`cubic`].
pub fn evaluate(tree: &JsonTree, phi: &Unary) -> NodeSet {
    let frag = phi.fragment();
    if frag.is_deterministic() {
        linear::eval(tree, phi).expect("fragment checked deterministic")
    } else if !frag.eq_pair {
        pdl::eval(tree, phi).expect("fragment checked EQ-pair-free")
    } else {
        cubic::eval(tree, phi)
    }
}

/// [`evaluate`] over many trees at once, fanned out on `pool` — the
/// per-segment entry point of a segmented collection (each segment of a
/// `mongofind` tree column is one independent whole-tree evaluation).
///
/// Every per-tree evaluation owns its *entire* mutable state — the
/// [`EvalContext`] with its canonical-label table and regex edge
/// matchers/DFA bitsets is built inside the worker, per tree, exactly as
/// in the sequential path — so workers share only the immutable trees and
/// formula. Results come back in tree order regardless of thread count,
/// and a 1-thread pool runs the trees inline in order (byte-identical to
/// mapping [`evaluate`] yourself).
///
/// Generic over how the caller stores its trees: a plain `&[JsonTree]`
/// works, and so does the `&[Arc<JsonTree>]` a snapshot-sharing
/// collection holds (anything `Borrow<JsonTree> + Sync`).
pub fn evaluate_batch<T>(trees: &[T], phi: &Unary, pool: &jpar::Pool) -> Vec<NodeSet>
where
    T: std::borrow::Borrow<JsonTree> + Sync,
{
    pool.map_chunks(trees.len(), 1, |r| evaluate(trees[r.start].borrow(), phi))
}

/// Governed [`evaluate`]: the linear engine polls `guard` every
/// [`jguard::POLL_STRIDE`] nodes; the PDL/cubic engines (whose inner
/// fixpoints are not instrumented) check it before and after the run.
/// Returns the guard's structured error instead of running to completion.
pub fn evaluate_ctx(tree: &JsonTree, phi: &Unary, guard: &QueryCtx) -> Result<NodeSet, QueryError> {
    let frag = phi.fragment();
    if frag.is_deterministic() {
        match linear::eval_with_guard(tree, phi, guard.clone()) {
            Ok(s) => Ok(s),
            Err(EvalError::Interrupted(q)) => Err(q),
            Err(e) => unreachable!("fragment checked deterministic: {e}"),
        }
    } else {
        guard.check()?;
        let s = if !frag.eq_pair {
            pdl::eval(tree, phi).expect("fragment checked EQ-pair-free")
        } else {
            cubic::eval(tree, phi)
        };
        guard.check()?;
        Ok(s)
    }
}

/// Governed [`evaluate_batch`]: fans the per-tree evaluations out
/// through the pool's fallible dispatch, so an expired deadline, a
/// cancellation, or a panicking evaluation surfaces as a structured
/// [`QueryError`] with all workers joined and the pool reusable.
/// Like [`evaluate_batch`], it accepts any `Borrow<JsonTree>` tree
/// storage (`&[JsonTree]` or `&[Arc<JsonTree>]` alike).
pub fn evaluate_batch_ctx<T>(
    trees: &[T],
    phi: &Unary,
    pool: &jpar::Pool,
    guard: &QueryCtx,
) -> Result<Vec<NodeSet>, QueryError>
where
    T: std::borrow::Borrow<JsonTree> + Sync,
{
    pool.try_map_chunks(guard, trees.len(), 1, |r| {
        evaluate_ctx(trees[r.start].borrow(), phi, guard)
    })
}

/// Convenience: does the root satisfy `φ`?
pub fn check_root(tree: &JsonTree, phi: &Unary) -> bool {
    evaluate(tree, phi)[tree.root().index()]
}

/// Convenience: the nodes satisfying `φ`, as ids.
pub fn selected_nodes(tree: &JsonTree, phi: &Unary) -> Vec<NodeId> {
    evaluate(tree, phi)
        .iter()
        .enumerate()
        .filter(|&(_i, &b)| b)
        .map(|(i, &_b)| NodeId::from_index(i))
        .collect()
}
