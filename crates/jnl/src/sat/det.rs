//! Satisfiability of deterministic JNL (Proposition 2: NP-complete).
//!
//! The upper-bound proof guesses a polynomial witness and evaluates it.
//! This solver realises the guess as a backtracking tableau:
//!
//! 1. The formula is read in negation normal form, lazily: an obligation
//!    carries its polarity, and `¬` flips it.
//! 2. Constraints are asserted against an abstract **pattern tree** whose
//!    nodes carry: a kind (or exclusions), materialised key/index children,
//!    leaf values, "exactly this document" bindings (from `EQ(α, A)`),
//!    disequality bindings (from `¬EQ(α, A)`), forbidden keys and length
//!    bounds (from `¬[α]` failure points), and union-find identifications
//!    (from `EQ(α, β)`).
//! 3. Disjunctions, negated path formulas (choice of failure point) and
//!    negated equalities branch; the search is depth-first with full state
//!    cloning at choice points, bounded by a step budget.
//! 4. A conflict-free saturated state is concretised into a JSON document
//!    (fresh string leaves keep disequalities easy) and **re-verified
//!    against the formula** by a direct walk of the witness value — a
//!    `Sat` answer is therefore sound by construction; `Unsat` is sound
//!    because every branch of the complete case split was exhausted.
//!
//! The paper's binary-number preprocessing (replacing `X_i` indices by
//! their ranks) is applied first so materialised arrays stay polynomial.
//!
//! ## Borrowing the formula
//!
//! The search never copies the formula. Obligations, path tests and the
//! documents of `EQ(α, A)` are borrowed from it, and the pattern tree is
//! keyed by `Key` numbers of a **query-owned key table**: every key word
//! of the formula, numbered once up front in order of first occurrence.
//! The tableau's child maps and forbidden-key sets compare `u32`s, and the
//! full state clone at every branch point copies numbers and references,
//! not strings or documents. Strings are resolved only at the edges:
//! against embedded `EQ(α, A)` documents and when a saturated state is
//! concretised into a witness.

use std::collections::{BTreeMap, BTreeSet};

use jsondata::{Json, NodeKind};

use crate::ast::{Binary, Unary};
use crate::sat::SatResult;

/// Budget on explored branches; exceeding it yields `Unknown`.
const DEFAULT_BRANCH_BUDGET: usize = 200_000;

/// Checks satisfiability of a deterministic JNL formula.
pub fn sat_deterministic(phi: &Unary) -> SatResult {
    sat_deterministic_with_budget(phi, DEFAULT_BRANCH_BUDGET)
}

/// As [`sat_deterministic`] with an explicit branch budget.
pub fn sat_deterministic_with_budget(phi: &Unary, budget: usize) -> SatResult {
    let frag = phi.fragment();
    if !frag.is_deterministic() {
        return SatResult::Unknown(
            "formula is outside the deterministic fragment; use the JSL-based procedures"
                .to_owned(),
        );
    }
    // The Proposition 2 rank preprocessing is needed only when binary-coded
    // indices would force super-polynomial witnesses. It rewrites the
    // formula, so it is applied only where that is satisfiability-preserving:
    // equality operators embed concrete documents whose array positions
    // would fall out of sync with the ranked indices.
    const RANK_THRESHOLD: i64 = 4096;
    let mut indices = BTreeSet::new();
    collect_indices_u(phi, &mut indices);
    // The tableau has no step for a negative index: a path through one
    // would close its branch as if no document could satisfy it.
    if indices.first().is_some_and(|&i| i < 0) {
        return SatResult::Unknown("negative array indices are not supported".to_owned());
    }
    let needs_ranking = indices.last().is_some_and(|&m| m > RANK_THRESHOLD);
    let ranked;
    let phi: &Unary = if needs_ranking {
        if uses_equality(phi) {
            return SatResult::Unknown(
                "indices above the ranking threshold combined with EQ operators".to_owned(),
            );
        }
        ranked = rank_preprocess(phi);
        &ranked
    } else {
        phi
    };
    let keys = Keys::of(phi);
    let mut solver = Solver {
        budget,
        exhausted: false,
        original: phi,
        keys: &keys,
    };
    let mut state = State::default();
    let root = state.fresh_node();
    match solver.search(state, root, vec![(root, phi, false)]) {
        Some(witness) => SatResult::Sat(witness),
        None if solver.exhausted => SatResult::Unknown("branch budget exhausted".to_owned()),
        None => SatResult::Unsat,
    }
}

// ---------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------

/// Replaces array indices by their ranks, level by level, as in the
/// Proposition 2 proof: the witness sizes then stay polynomial even when
/// indices are written in binary. Only non-negative indices are rewritten;
/// formulas are otherwise preserved.
fn rank_preprocess(phi: &Unary) -> Unary {
    // Collect all non-negative indices used anywhere, rank them globally
    // (a finer per-level ranking is possible but not necessary for
    // correctness: the global ranking also preserves order).
    let mut indices: BTreeSet<i64> = BTreeSet::new();
    collect_indices_u(phi, &mut indices);
    let rank: BTreeMap<u64, u64> = indices
        .range(0..)
        .enumerate()
        .map(|(r, &i)| (i as u64, r as u64))
        .collect();
    map_indices_u(phi, &rank)
}

/// Whether the formula uses `EQ(α, A)` or `EQ(α, β)` anywhere.
fn uses_equality(phi: &Unary) -> bool {
    match phi {
        Unary::True => false,
        Unary::Not(p) => uses_equality(p),
        Unary::And(ps) | Unary::Or(ps) => ps.iter().any(uses_equality),
        Unary::Exists(a) => uses_equality_b(a),
        Unary::EqDoc(_, _) | Unary::EqPair(_, _) => true,
    }
}

fn uses_equality_b(alpha: &Binary) -> bool {
    match alpha {
        Binary::Test(p) => uses_equality(p),
        Binary::Compose(ps) => ps.iter().any(uses_equality_b),
        Binary::Star(a) => uses_equality_b(a),
        _ => false,
    }
}

/// A key word's number in the query's [`Keys`] table.
type Key = u32;

/// The query-owned key table: every key word of the formula, numbered in
/// order of first occurrence and borrowed from the formula.
struct Keys<'a> {
    words: Vec<&'a str>,
    /// The numbers in word order, for lookups by binary search.
    sorted: Vec<Key>,
}

impl<'a> Keys<'a> {
    fn of(phi: &'a Unary) -> Keys<'a> {
        let mut keys = Keys {
            words: Vec::new(),
            sorted: Vec::new(),
        };
        keys.add_u(phi);
        keys
    }

    fn search(&self, w: &str) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&k| self.words[k as usize].cmp(w))
    }

    fn add(&mut self, w: &'a str) {
        if let Err(at) = self.search(w) {
            self.sorted.insert(at, self.words.len() as Key);
            self.words.push(w);
        }
    }

    /// The number of a formula key word; a miss can only come from a
    /// shape the fragment check already rejected.
    fn lookup(&self, w: &str) -> Option<Key> {
        self.search(w).ok().map(|at| self.sorted[at])
    }

    fn resolve(&self, k: Key) -> &str {
        self.words[k as usize]
    }

    fn add_u(&mut self, phi: &'a Unary) {
        match phi {
            Unary::True => {}
            Unary::Not(p) => self.add_u(p),
            Unary::And(ps) | Unary::Or(ps) => ps.iter().for_each(|p| self.add_u(p)),
            Unary::Exists(a) | Unary::EqDoc(a, _) => self.add_b(a),
            Unary::EqPair(a, b) => {
                self.add_b(a);
                self.add_b(b);
            }
        }
    }

    fn add_b(&mut self, alpha: &'a Binary) {
        match alpha {
            Binary::Key(w) => self.add(w),
            Binary::Test(p) => self.add_u(p),
            Binary::Compose(ps) => ps.iter().for_each(|p| self.add_b(p)),
            _ => {}
        }
    }
}

fn collect_indices_u(phi: &Unary, out: &mut BTreeSet<i64>) {
    match phi {
        Unary::True => {}
        Unary::Not(p) => collect_indices_u(p, out),
        Unary::And(ps) | Unary::Or(ps) => ps.iter().for_each(|p| collect_indices_u(p, out)),
        Unary::Exists(a) => collect_indices_b(a, out),
        Unary::EqDoc(a, _) => collect_indices_b(a, out),
        Unary::EqPair(a, b) => {
            collect_indices_b(a, out);
            collect_indices_b(b, out);
        }
    }
}

fn collect_indices_b(alpha: &Binary, out: &mut BTreeSet<i64>) {
    match alpha {
        Binary::Index(i) => {
            out.insert(*i);
        }
        Binary::Test(p) => collect_indices_u(p, out),
        Binary::Compose(ps) => ps.iter().for_each(|p| collect_indices_b(p, out)),
        Binary::Star(a) => collect_indices_b(a, out),
        _ => {}
    }
}

fn map_indices_u(phi: &Unary, rank: &BTreeMap<u64, u64>) -> Unary {
    match phi {
        Unary::True => Unary::True,
        Unary::Not(p) => Unary::Not(Box::new(map_indices_u(p, rank))),
        Unary::And(ps) => Unary::And(ps.iter().map(|p| map_indices_u(p, rank)).collect()),
        Unary::Or(ps) => Unary::Or(ps.iter().map(|p| map_indices_u(p, rank)).collect()),
        Unary::Exists(a) => Unary::Exists(Box::new(map_indices_b(a, rank))),
        Unary::EqDoc(a, d) => Unary::EqDoc(Box::new(map_indices_b(a, rank)), d.clone()),
        Unary::EqPair(a, b) => Unary::EqPair(
            Box::new(map_indices_b(a, rank)),
            Box::new(map_indices_b(b, rank)),
        ),
    }
}

fn map_indices_b(alpha: &Binary, rank: &BTreeMap<u64, u64>) -> Binary {
    match alpha {
        Binary::Index(i) if *i >= 0 => Binary::Index(rank[&(*i as u64)] as i64),
        Binary::Test(p) => Binary::Test(Box::new(map_indices_u(p, rank))),
        Binary::Compose(ps) => Binary::Compose(ps.iter().map(|p| map_indices_b(p, rank)).collect()),
        Binary::Star(a) => Binary::Star(Box::new(map_indices_b(a, rank))),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// Pattern tree
// ---------------------------------------------------------------------

type PId = usize;

#[derive(Debug, Clone, Default)]
struct PNode<'a> {
    /// Union-find parent (self when representative).
    uf: PId,
    /// A representative that `EQ(α, β)` merged another class into: it
    /// can be reached from more than one parent, so concretisation
    /// memoises its document.
    merged: bool,
    kind: Option<NodeKind>,
    /// Excluded kinds, one [`kind_bit`] each.
    kind_not: u8,
    keys: BTreeMap<Key, PId>,
    idxs: BTreeMap<u64, PId>,
    str_val: Option<&'a str>,
    num_val: Option<u64>,
    /// Subtree must equal exactly this document.
    exact: Option<&'a Json>,
    /// Subtree must differ from each of these documents.
    not_exact: Vec<&'a Json>,
    /// Keys that must not exist (failure points of `¬[α]`).
    forbidden_keys: BTreeSet<Key>,
    /// If an array, its length must be at most this bound.
    max_len: Option<u64>,
    /// Nodes whose subtrees must differ from this one (`¬EQ(α, β)`).
    diseq: Vec<PId>,
}

fn kind_bit(k: NodeKind) -> u8 {
    match k {
        NodeKind::Obj => 1,
        NodeKind::Arr => 2,
        NodeKind::Str => 4,
        NodeKind::Int => 8,
    }
}

/// Every kind excluded: no model for the node.
const ALL_KINDS: u8 = 0b1111;

#[derive(Debug, Clone, Default)]
struct State<'a> {
    nodes: Vec<PNode<'a>>,
}

/// One node on the concretisation path from the root, for the occurs
/// check.
struct Visit<'v> {
    node: PId,
    up: Option<&'v Visit<'v>>,
}

impl<'a> State<'a> {
    fn fresh_node(&mut self) -> PId {
        let id = self.nodes.len();
        self.nodes.push(PNode {
            uf: id,
            ..PNode::default()
        });
        id
    }

    /// Union-find representative (no path compression: chains stay short
    /// because states are formula-sized, and `&self` keeps call sites
    /// borrow-friendly).
    fn find(&self, mut x: PId) -> PId {
        while self.nodes[x].uf != x {
            x = self.nodes[x].uf;
        }
        x
    }

    /// Mutable access to the representative node of `x`.
    fn node_mut(&mut self, x: PId) -> &mut PNode<'a> {
        let r = self.find(x);
        &mut self.nodes[r]
    }

    /// Sets or checks the kind of a node class; `false` = conflict.
    fn set_kind(&mut self, x: PId, k: NodeKind) -> bool {
        let x = self.find(x);
        let node = &mut self.nodes[x];
        if node.kind_not & kind_bit(k) != 0 {
            return false;
        }
        match node.kind {
            None => {
                node.kind = Some(k);
                true
            }
            Some(existing) => existing == k,
        }
    }

    fn exclude_kind(&mut self, x: PId, k: NodeKind) -> bool {
        let x = self.find(x);
        let node = &mut self.nodes[x];
        if node.kind == Some(k) {
            return false;
        }
        node.kind_not |= kind_bit(k);
        node.kind_not != ALL_KINDS
    }

    /// Child of `x` under key `w`, materialising it if needed.
    fn key_child(&mut self, x: PId, w: Key, keys: &Keys) -> Option<PId> {
        let x = self.find(x);
        if !self.set_kind(x, NodeKind::Obj) {
            return None;
        }
        if self.nodes[x].forbidden_keys.contains(&w) {
            return None;
        }
        if let Some(&c) = self.nodes[x].keys.get(&w) {
            return Some(c);
        }
        // A closed (exact-bound) object admits only the document's keys.
        if let Some(doc) = self.nodes[x].exact {
            let sub = doc.get(keys.resolve(w))?;
            let c = self.fresh_node();
            self.node_mut(x).keys.insert(w, c);
            if !self.impose_exact(c, sub, keys) {
                return None;
            }
            return Some(c);
        }
        let c = self.fresh_node();
        self.node_mut(x).keys.insert(w, c);
        Some(c)
    }

    /// Child of `x` at index `i`, materialising it if needed.
    fn idx_child(&mut self, x: PId, i: u64, keys: &Keys) -> Option<PId> {
        let x = self.find(x);
        if !self.set_kind(x, NodeKind::Arr) {
            return None;
        }
        if let Some(ml) = self.nodes[x].max_len {
            if i >= ml {
                return None;
            }
        }
        if let Some(&c) = self.nodes[x].idxs.get(&i) {
            return Some(c);
        }
        if let Some(doc) = self.nodes[x].exact {
            let sub = doc.index(i as usize)?;
            let c = self.fresh_node();
            self.node_mut(x).idxs.insert(i, c);
            if !self.impose_exact(c, sub, keys) {
                return None;
            }
            return Some(c);
        }
        let c = self.fresh_node();
        self.node_mut(x).idxs.insert(i, c);
        Some(c)
    }

    /// Binds `x`'s subtree to exactly `doc`; `false` on conflict.
    fn impose_exact(&mut self, x: PId, doc: &'a Json, keys: &Keys) -> bool {
        let x = self.find(x);
        if let Some(existing) = self.nodes[x].exact {
            return existing == doc;
        }
        if self.nodes[x].not_exact.contains(&doc) {
            return false;
        }
        let kind = match doc {
            Json::Object(_) => NodeKind::Obj,
            Json::Array(_) => NodeKind::Arr,
            Json::Str(_) => NodeKind::Str,
            Json::Num(_) => NodeKind::Int,
        };
        if !self.set_kind(x, kind) {
            return false;
        }
        match doc {
            Json::Str(s) => {
                let node = self.node_mut(x);
                if node.str_val.is_some_and(|v| v != s.as_str()) {
                    return false;
                }
                node.str_val = Some(s.as_str());
            }
            Json::Num(v) => {
                let node = self.node_mut(x);
                if node.num_val.is_some_and(|existing| existing != *v) {
                    return false;
                }
                node.num_val = Some(*v);
            }
            Json::Object(o) => {
                // Existing materialised children must be covered by doc.
                let existing: Vec<(Key, PId)> =
                    self.nodes[x].keys.iter().map(|(&k, &c)| (k, c)).collect();
                for (k, c) in existing {
                    let Some(sub) = o.get(keys.resolve(k)) else {
                        return false;
                    };
                    if !self.impose_exact(c, sub, keys) {
                        return false;
                    }
                }
                // Forbidden keys must not occur in doc.
                let forbidden = &self.nodes[x].forbidden_keys;
                if forbidden.iter().any(|&k| o.get(keys.resolve(k)).is_some()) {
                    return false;
                }
            }
            Json::Array(items) => {
                if self.nodes[x]
                    .max_len
                    .is_some_and(|ml| items.len() as u64 > ml)
                {
                    return false;
                }
                let existing: Vec<(u64, PId)> =
                    self.nodes[x].idxs.iter().map(|(&i, &c)| (i, c)).collect();
                for (i, c) in existing {
                    let Some(sub) = items.get(i as usize) else {
                        return false;
                    };
                    if !self.impose_exact(c, sub, keys) {
                        return false;
                    }
                }
            }
        }
        self.node_mut(x).exact = Some(doc);
        true
    }

    /// Whether `target` occurs in the pattern subtree rooted at `from`
    /// (by representatives).
    fn reaches(&self, from: PId, target: PId) -> bool {
        let target = self.find(target);
        let mut visited: BTreeSet<PId> = BTreeSet::new();
        let mut stack = vec![self.find(from)];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if !visited.insert(n) {
                continue;
            }
            let node = &self.nodes[n];
            stack.extend(node.keys.values().map(|&c| self.find(c)));
            stack.extend(node.idxs.values().map(|&c| self.find(c)));
        }
        false
    }

    /// Identifies the subtrees at `x` and `y` (`EQ(α, β)`); `false` on
    /// conflict.
    fn merge(&mut self, x: PId, y: PId, keys: &Keys) -> bool {
        let (x, y) = (self.find(x), self.find(y));
        if x == y {
            return true;
        }
        // Occurs check: identifying a node with a strict descendant (or
        // ancestor) would force an infinite tree — unsatisfiable over
        // finite JSON documents, and divergent for the unifier.
        if self.reaches(x, y) || self.reaches(y, x) {
            return false;
        }
        // Merge y into x.
        let ynode = std::mem::take(&mut self.nodes[y]);
        self.nodes[y].uf = x;
        self.nodes[x].merged = true;
        if let Some(k) = ynode.kind {
            if !self.set_kind(x, k) {
                return false;
            }
        }
        let node = self.node_mut(x);
        if node.kind.is_some_and(|k| ynode.kind_not & kind_bit(k) != 0) {
            return false;
        }
        node.kind_not |= ynode.kind_not;
        if let Some(s) = ynode.str_val {
            match node.str_val {
                Some(v) if v != s => return false,
                _ => node.str_val = Some(s),
            }
        }
        if let Some(v) = ynode.num_val {
            match node.num_val {
                Some(e) if e != v => return false,
                _ => node.num_val = Some(v),
            }
        }
        for k in ynode.forbidden_keys {
            if node.keys.contains_key(&k) {
                return false;
            }
            node.forbidden_keys.insert(k);
        }
        if let Some(ml) = ynode.max_len {
            node.max_len = Some(node.max_len.map_or(ml, |m| m.min(ml)));
        }
        node.not_exact.extend(ynode.not_exact);
        node.diseq.extend(ynode.diseq);
        // Children merge recursively.
        for (k, yc) in ynode.keys {
            match self.key_child(x, k, keys) {
                Some(xc) => {
                    if !self.merge(xc, yc, keys) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        for (i, yc) in ynode.idxs {
            match self.idx_child(x, i, keys) {
                Some(xc) => {
                    if !self.merge(xc, yc, keys) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        if let Some(doc) = ynode.exact {
            if !self.impose_exact(x, doc, keys) {
                return false;
            }
        }
        true
    }

    /// Concretises the pattern tree at `root` into a JSON document. Free
    /// leaves get globally-unique fresh strings so that disequalities
    /// resolve themselves wherever possible. `path` is the chain of
    /// nodes above `root`.
    fn concretize(
        &self,
        root: PId,
        fresh: &mut u64,
        memo: &mut BTreeMap<PId, Json>,
        keys: &Keys,
        path: Option<&Visit>,
    ) -> Option<Json> {
        let x = self.find(root);
        // Memoise merged representatives: `EQ(α, β)`-merged nodes must
        // concretise to identical documents (fresh leaves included). No
        // other node is reached twice.
        if let Some(done) = memo.get(&x) {
            return Some(done.clone());
        }
        // Occurs check: `EQ(α, β)` can merge a node with its own
        // descendant; no finite tree equals a strict subtree of itself, so
        // such a branch is unsatisfiable.
        let mut above = path;
        while let Some(v) = above {
            if v.node == x {
                return None;
            }
            above = v.up;
        }
        let here = Visit { node: x, up: path };
        let out = self.concretize_node(x, fresh, memo, keys, &here)?;
        if self.nodes[x].merged {
            memo.insert(x, out.clone());
        }
        Some(out)
    }

    fn concretize_node(
        &self,
        x: PId,
        fresh: &mut u64,
        memo: &mut BTreeMap<PId, Json>,
        keys: &Keys,
        here: &Visit,
    ) -> Option<Json> {
        let node = &self.nodes[x];
        if let Some(doc) = node.exact {
            return Some(doc.clone());
        }
        let kind = node.kind.or_else(|| {
            // Default: infer from children, else a fresh string leaf.
            if !node.keys.is_empty() {
                Some(NodeKind::Obj)
            } else if !node.idxs.is_empty() || node.max_len.is_some() {
                Some(NodeKind::Arr)
            } else if node.num_val.is_some() {
                Some(NodeKind::Int)
            } else {
                // Respect kind exclusions when defaulting.
                [NodeKind::Str, NodeKind::Int, NodeKind::Obj, NodeKind::Arr]
                    .into_iter()
                    .find(|&k| node.kind_not & kind_bit(k) == 0)
            }
        })?;
        Some(match kind {
            NodeKind::Str => match node.str_val {
                Some(v) => Json::str(v),
                None => fresh_leaf(fresh),
            },
            NodeKind::Int => Json::Num(node.num_val.unwrap_or(0)),
            NodeKind::Obj => {
                let mut pairs = Vec::with_capacity(node.keys.len());
                for (&k, &c) in &node.keys {
                    let value = self.concretize(c, fresh, memo, keys, Some(here))?;
                    pairs.push((keys.resolve(k).into(), value));
                }
                Json::object(pairs).ok()?
            }
            NodeKind::Arr => {
                let len = node.idxs.keys().next_back().map_or(0, |&i| i + 1);
                if node.max_len.is_some_and(|ml| len > ml) {
                    return None;
                }
                let mut items: Vec<Json> = (0..len).map(|_| fresh_leaf(fresh)).collect();
                for (&i, &c) in &node.idxs {
                    items[i as usize] = self.concretize(c, fresh, memo, keys, Some(here))?;
                }
                Json::Array(items)
            }
        })
    }
}

/// The next fresh string leaf, `#fresh<n>`.
fn fresh_leaf(fresh: &mut u64) -> Json {
    *fresh += 1;
    Json::str(format!("#fresh{}", *fresh))
}

// ---------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------

struct Solver<'a> {
    budget: usize,
    exhausted: bool,
    original: &'a Unary,
    /// The query-owned key table: every formula key word, numbered once
    /// before the search starts (so in-search path translation is pure
    /// lookup and never mutates).
    keys: &'a Keys<'a>,
}

/// A pending obligation: formula `φ` must hold at pattern node `x`, or
/// must fail there when the flag is set (`¬φ`).
type Obligation<'a> = (PId, &'a Unary, bool);

impl<'a> Solver<'a> {
    /// The complete search: processes obligations, branching as needed.
    /// Non-branching obligations are consumed iteratively so that recursion
    /// depth is bounded by the *branching* nesting only (deep conjunctive
    /// chains must not grow the call stack).
    fn search(
        &mut self,
        state: State<'a>,
        root: PId,
        obligations: Vec<Obligation<'a>>,
    ) -> Option<Json> {
        let mut state = state;
        let mut obligations = obligations;
        loop {
            if self.budget == 0 {
                self.exhausted = true;
                return None;
            }
            self.budget -= 1;

            // Pop the next obligation; if none remain, close the state.
            let Some((x, mut phi, mut negated)) = obligations.pop() else {
                return self.try_close(&state);
            };
            while let Unary::Not(p) = phi {
                phi = p;
                negated = !negated;
            }

            match (phi, negated) {
                (Unary::True, false) => continue,
                (Unary::And(ps), false) | (Unary::Or(ps), true) => {
                    for p in ps {
                        obligations.push((x, p, negated));
                    }
                    continue;
                }
                (Unary::Or(ps), false) | (Unary::And(ps), true) => {
                    // If some branch is already entailed by the current
                    // state, the disjunction is settled — drop it instead of
                    // multiplying the search (this is what keeps UNSAT 3SAT
                    // instances at 2^vars instead of 3^clauses).
                    if ps
                        .iter()
                        .any(|p| entailed(&state, x, p, negated, self.keys))
                    {
                        continue;
                    }
                    for p in ps {
                        let mut obs = obligations.clone();
                        obs.push((x, p, negated));
                        if let Some(w) = self.search(state.clone(), root, obs) {
                            return Some(w);
                        }
                        if self.exhausted {
                            return None;
                        }
                    }
                    return None;
                }
                (Unary::Exists(alpha), false) => {
                    // Walk and convert embedded tests into obligations so
                    // their own branching is handled uniformly.
                    match self.walk_ob(&mut state, x, alpha, &mut obligations) {
                        Some(_) => continue,
                        None => return None,
                    }
                }
                (Unary::EqDoc(alpha, doc), false) => {
                    match self.walk_ob(&mut state, x, alpha, &mut obligations) {
                        Some(end) if state.impose_exact(end, doc, self.keys) => continue,
                        _ => return None,
                    }
                }
                (Unary::EqPair(alpha, beta), false) => {
                    let a = self.walk_ob(&mut state, x, alpha, &mut obligations)?;
                    let b = self.walk_ob(&mut state, x, beta, &mut obligations)?;
                    if state.merge(a, b, self.keys) {
                        continue;
                    }
                    return None;
                }
                (literal, true) => {
                    return self.search_negation(state, root, obligations, x, literal)
                }
                (Unary::Not(_), false) => unreachable!("negations are read off above"),
            }
        }
    }

    /// Handles a negated literal (the branching cases of the search).
    fn search_negation(
        &mut self,
        state: State<'a>,
        root: PId,
        obligations: Vec<Obligation<'a>>,
        x: PId,
        literal: &'a Unary,
    ) -> Option<Json> {
        match literal {
            Unary::Exists(alpha) => {
                self.branch_path_failure(state, root, obligations, x, alpha, None)
            }
            Unary::EqDoc(alpha, doc) => {
                // ¬EQ(α, A): path fails, or end differs from A.
                self.branch_path_failure(state, root, obligations, x, alpha, Some(doc))
            }
            Unary::EqPair(alpha, beta) => {
                // ¬EQ(α, β): α fails, or β fails, or both end nodes differ.
                // Case 1: α fails.
                if let Some(w) = self.branch_path_failure(
                    state.clone(),
                    root,
                    obligations.clone(),
                    x,
                    alpha,
                    None,
                ) {
                    return Some(w);
                }
                if self.exhausted {
                    return None;
                }
                // Case 2: α succeeds, β fails.
                {
                    let mut st = state.clone();
                    let mut obs = obligations.clone();
                    if self.walk_ob(&mut st, x, alpha, &mut obs).is_some() {
                        if let Some(w) = self.branch_path_failure(st, root, obs, x, beta, None) {
                            return Some(w);
                        }
                        if self.exhausted {
                            return None;
                        }
                    }
                }
                // Case 3: both succeed, subtrees differ.
                let mut st = state;
                let mut obs = obligations;
                let a = self.walk_ob(&mut st, x, alpha, &mut obs)?;
                let b = self.walk_ob(&mut st, x, beta, &mut obs)?;
                let (ra, rb) = (st.find(a), st.find(b));
                if ra == rb {
                    return None;
                }
                st.nodes[ra].diseq.push(rb);
                self.search(st, root, obs)
            }
            // `¬⊤` has no model.
            Unary::True => None,
            Unary::Not(_) | Unary::And(_) | Unary::Or(_) => {
                unreachable!("the search negates literals only")
            }
        }
    }

    /// Walks a path converting tests into obligations.
    fn walk_ob(
        &self,
        state: &mut State<'a>,
        x: PId,
        alpha: &'a Binary,
        obligations: &mut Vec<Obligation<'a>>,
    ) -> Option<PId> {
        let mut cur = x;
        each_step(alpha, self.keys, &mut |s| {
            match s {
                FStep::Key(w) => cur = state.key_child(cur, w, self.keys)?,
                FStep::Index(i) => cur = state.idx_child(cur, i, self.keys)?,
                FStep::Test(phi) => obligations.push((cur, phi, false)),
            }
            Some(())
        })?;
        Some(cur)
    }

    /// `¬[α]`-style branching: the path must fail at some position, or (if
    /// `not_doc` is given) succeed with an end that differs from it.
    fn branch_path_failure(
        &mut self,
        state: State<'a>,
        root: PId,
        obligations: Vec<Obligation<'a>>,
        x: PId,
        alpha: &'a Binary,
        not_doc: Option<&'a Json>,
    ) -> Option<Json> {
        let Some(steps) = flatten(alpha, self.keys) else {
            // Unflattenable (non-deterministic) — cannot happen: fragment
            // checked up front.
            return None;
        };
        // Option A: fail at position p.
        for p in 0..steps.len() {
            let mut st = state.clone();
            let mut obs = obligations.clone();
            // Succeed up to p.
            let mut cur = x;
            let mut ok = true;
            for s in &steps[..p] {
                match *s {
                    FStep::Key(w) => match st.key_child(cur, w, self.keys) {
                        Some(c) => cur = c,
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    FStep::Index(i) => match st.idx_child(cur, i, self.keys) {
                        Some(c) => cur = c,
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    FStep::Test(phi) => obs.push((cur, phi, false)),
                }
            }
            if !ok {
                continue;
            }
            // Fail at step p.
            match steps[p] {
                FStep::Key(w) => {
                    // (a) not an object
                    {
                        let mut st2 = st.clone();
                        if st2.exclude_kind(cur, NodeKind::Obj) {
                            if let Some(wit) = self.search(st2, root, obs.clone()) {
                                return Some(wit);
                            }
                            if self.exhausted {
                                return None;
                            }
                        }
                    }
                    // (b) object but key absent
                    let mut st2 = st;
                    let rep = st2.find(cur);
                    if st2.nodes[rep].keys.contains_key(&w) {
                        continue;
                    }
                    if let Some(doc) = st2.nodes[rep].exact {
                        if doc.get(self.keys.resolve(w)).is_some() {
                            continue;
                        }
                    }
                    st2.nodes[rep].forbidden_keys.insert(w);
                    if let Some(wit) = self.search(st2, root, obs) {
                        return Some(wit);
                    }
                    if self.exhausted {
                        return None;
                    }
                }
                FStep::Index(i) => {
                    // (a) not an array
                    {
                        let mut st2 = st.clone();
                        if st2.exclude_kind(cur, NodeKind::Arr) {
                            if let Some(wit) = self.search(st2, root, obs.clone()) {
                                return Some(wit);
                            }
                            if self.exhausted {
                                return None;
                            }
                        }
                    }
                    // (b) array shorter than i+1
                    let mut st2 = st;
                    let rep = st2.find(cur);
                    let needed = i + 1;
                    let too_long = st2.nodes[rep].idxs.keys().any(|&k| k >= i)
                        || st2.nodes[rep]
                            .exact
                            .and_then(|d| d.as_array())
                            .is_some_and(|a| a.len() as u64 >= needed);
                    if too_long {
                        continue;
                    }
                    let node = &mut st2.nodes[rep];
                    node.max_len = Some(node.max_len.map_or(needed - 1, |m| m.min(needed - 1)));
                    if let Some(wit) = self.search(st2, root, obs) {
                        return Some(wit);
                    }
                    if self.exhausted {
                        return None;
                    }
                }
                FStep::Test(phi) => {
                    let mut obs2 = obs.clone();
                    obs2.push((cur, phi, true));
                    if let Some(wit) = self.search(st, root, obs2) {
                        return Some(wit);
                    }
                    if self.exhausted {
                        return None;
                    }
                }
            }
        }
        // Option B: path succeeds, end constrained.
        if let Some(doc) = not_doc {
            let mut st = state;
            let mut obs = obligations;
            if let Some(end) = self.walk_ob(&mut st, x, alpha, &mut obs) {
                let rep = st.find(end);
                if st.nodes[rep].exact == Some(doc) {
                    return None;
                }
                st.nodes[rep].not_exact.push(doc);
                return self.search(st, root, obs);
            }
        }
        None
    }

    /// Concretises and verifies a saturated state.
    fn try_close(&mut self, state: &State<'a>) -> Option<Json> {
        let mut fresh = 0u64;
        let candidate = state.concretize(0, &mut fresh, &mut BTreeMap::new(), self.keys, None)?;
        // Soundness net: re-verify against the formula (this also enforces
        // `not_exact` and `diseq`, which concretisation handles only
        // heuristically via fresh leaves).
        holds(&candidate, self.original).then_some(candidate)
    }
}

/// Conservative entailment: `true` only if `phi` (negated when the flag is
/// set) is guaranteed to hold in every concretisation of `state` (peeking
/// at existing structure, never materialising). Used to discharge settled
/// disjunctions.
fn entailed(state: &State, x: PId, phi: &Unary, negated: bool, keys: &Keys) -> bool {
    match (phi, negated) {
        (Unary::Not(p), _) => entailed(state, x, p, !negated, keys),
        (Unary::True, false) => true,
        (Unary::And(ps), false) | (Unary::Or(ps), true) => {
            ps.iter().all(|p| entailed(state, x, p, negated, keys))
        }
        (Unary::Or(ps), false) | (Unary::And(ps), true) => {
            ps.iter().any(|p| entailed(state, x, p, negated, keys))
        }
        (Unary::Exists(alpha), false) => peek_walk(state, x, alpha, keys).is_some(),
        (Unary::EqDoc(alpha, doc), false) => peek_walk(state, x, alpha, keys)
            .is_some_and(|end| state.nodes[state.find(end)].exact == Some(doc)),
        (Unary::EqPair(alpha, beta), false) => {
            match (
                peek_walk(state, x, alpha, keys),
                peek_walk(state, x, beta, keys),
            ) {
                (Some(a), Some(b)) => state.find(a) == state.find(b),
                _ => false,
            }
        }
        // A negated literal is never taken as entailed.
        (_, true) => false,
    }
}

/// [`entailed`] for a path test as written: a negation inside it is
/// never taken as entailed.
fn test_entailed(state: &State, x: PId, phi: &Unary, keys: &Keys) -> bool {
    match phi {
        Unary::Not(_) => false,
        Unary::And(ps) => ps.iter().all(|p| test_entailed(state, x, p, keys)),
        Unary::Or(ps) => ps.iter().any(|p| test_entailed(state, x, p, keys)),
        literal => entailed(state, x, literal, false, keys),
    }
}

/// Walks a path through *existing* structure only.
fn peek_walk(state: &State, x: PId, alpha: &Binary, keys: &Keys) -> Option<PId> {
    let mut cur = state.find(x);
    each_step(alpha, keys, &mut |s| {
        match s {
            FStep::Key(w) => {
                if state.nodes[cur].kind != Some(NodeKind::Obj) {
                    return None;
                }
                cur = state.find(*state.nodes[cur].keys.get(&w)?);
            }
            FStep::Index(i) => {
                if state.nodes[cur].kind != Some(NodeKind::Arr) {
                    return None;
                }
                cur = state.find(*state.nodes[cur].idxs.get(&i)?);
            }
            FStep::Test(phi) => {
                if !test_entailed(state, cur, phi, keys) {
                    return None;
                }
            }
        }
        Some(())
    })?;
    Some(cur)
}

/// Whether `phi` holds at the root of `doc`, read straight off the value:
/// a deterministic path leads to at most one node.
fn holds(doc: &Json, phi: &Unary) -> bool {
    match phi {
        Unary::True => true,
        Unary::Not(p) => !holds(doc, p),
        Unary::And(ps) => ps.iter().all(|p| holds(doc, p)),
        Unary::Or(ps) => ps.iter().any(|p| holds(doc, p)),
        Unary::Exists(alpha) => end_of(doc, alpha).is_some(),
        Unary::EqDoc(alpha, d) => end_of(doc, alpha) == Some(d),
        Unary::EqPair(alpha, beta) => match (end_of(doc, alpha), end_of(doc, beta)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
    }
}

/// The node a deterministic path leads to from `doc`, if any.
fn end_of<'d>(doc: &'d Json, alpha: &Binary) -> Option<&'d Json> {
    match alpha {
        Binary::Epsilon => Some(doc),
        Binary::Key(w) => doc.get(w),
        Binary::Index(i) if *i >= 0 => doc.index(*i as usize),
        Binary::Test(p) => holds(doc, p).then_some(doc),
        Binary::Compose(ps) => ps.iter().try_fold(doc, |cur, p| end_of(cur, p)),
        Binary::Index(_) | Binary::KeyRegex(_) | Binary::Range(_, _) | Binary::Star(_) => {
            unreachable!("the fragment and the indices are checked before the search")
        }
    }
}

/// A flattened deterministic path step.
#[derive(Clone, Copy)]
enum FStep<'a> {
    Key(Key),
    Index(u64),
    Test(&'a Unary),
}

/// Feeds the steps of a deterministic binary formula to `f` in order.
/// `None` if `f` fails, or if the path uses negative indices or
/// non-deterministic constructs (callers pre-check the fragment, negative
/// indices yield `Unknown` upstream). Key words translate by pure table
/// lookup.
fn each_step<'a, F>(alpha: &'a Binary, keys: &Keys, f: &mut F) -> Option<()>
where
    F: FnMut(FStep<'a>) -> Option<()>,
{
    match alpha {
        Binary::Epsilon => Some(()),
        Binary::Key(w) => f(FStep::Key(keys.lookup(w)?)),
        Binary::Index(i) if *i >= 0 => f(FStep::Index(*i as u64)),
        Binary::Index(_) => None,
        Binary::Test(phi) => f(FStep::Test(phi)),
        Binary::Compose(ps) => {
            for p in ps {
                each_step(p, keys, f)?;
            }
            Some(())
        }
        Binary::KeyRegex(_) | Binary::Range(_, _) | Binary::Star(_) => None,
    }
}

/// The steps of a deterministic binary formula, as [`each_step`] feeds
/// them.
fn flatten<'a>(alpha: &'a Binary, keys: &Keys) -> Option<Vec<FStep<'a>>> {
    let mut out = Vec::new();
    each_step(alpha, keys, &mut |s| {
        out.push(s);
        Some(())
    })?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Binary as B, Unary as U};
    use jsondata::{parse, JsonTree};

    fn verify_sat(phi: &U) -> Json {
        match sat_deterministic(phi) {
            SatResult::Sat(w) => {
                let t = JsonTree::build(&w);
                assert!(
                    crate::eval::naive::eval(&t, phi)[0],
                    "witness {w} does not satisfy {phi}"
                );
                w
            }
            other => panic!("expected Sat for {phi}, got {other:?}"),
        }
    }

    #[test]
    fn simple_positive_formulas_sat() {
        verify_sat(&U::exists(B::compose(vec![B::key("a"), B::key("b")])));
        verify_sat(&U::eq_doc(B::key("age"), parse("32").unwrap()));
        verify_sat(&U::exists(B::compose(vec![B::key("arr"), B::index(2)])));
        verify_sat(&U::eq_pair(B::key("l"), B::key("r")));
    }

    #[test]
    fn paper_unsat_example() {
        // X_a[X_0] ∧ X_a[X_b]: key `a` must be both array and object
        // (the paper's Prop 2 discussion, positive and equality-free).
        let phi = U::and(vec![
            U::exists(B::compose(vec![
                B::key("a"),
                B::test(U::exists(B::index(0))),
            ])),
            U::exists(B::compose(vec![
                B::key("a"),
                B::test(U::exists(B::key("b"))),
            ])),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn string_vs_children_unsat() {
        // EQ(X_a, "s") ∧ [X_a ∘ X_b]: a string leaf cannot have children.
        let phi = U::and(vec![
            U::eq_doc(B::key("a"), parse("\"s\"").unwrap()),
            U::exists(B::compose(vec![B::key("a"), B::key("b")])),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn negation_branches() {
        // ¬[X_a] ∧ [X_b]
        let phi = U::and(vec![U::not(U::exists(B::key("a"))), U::exists(B::key("b"))]);
        let w = verify_sat(&phi);
        assert!(w.get("a").is_none());
        assert!(w.get("b").is_some());
    }

    #[test]
    fn neg_eqdoc_forces_difference() {
        let phi = U::and(vec![
            U::exists(B::key("x")),
            U::not(U::eq_doc(B::key("x"), parse("1").unwrap())),
        ]);
        let w = verify_sat(&phi);
        assert_ne!(w.get("x"), Some(&Json::Num(1)));
    }

    #[test]
    fn eq_doc_then_contradicting_eq_doc_unsat() {
        let phi = U::and(vec![
            U::eq_doc(B::key("x"), parse("1").unwrap()),
            U::eq_doc(B::key("x"), parse("2").unwrap()),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn eq_pair_merges_constraints() {
        // EQ(X_l, X_r) ∧ EQ(X_l ∘ X_v, 7) ∧ [X_r ∘ X_w]
        let phi = U::and(vec![
            U::eq_pair(B::key("l"), B::key("r")),
            U::eq_doc(
                B::compose(vec![B::key("l"), B::key("v")]),
                parse("7").unwrap(),
            ),
            U::exists(B::compose(vec![B::key("r"), B::key("w")])),
        ]);
        let w = verify_sat(&phi);
        // Merged: both l and r have v=7 and key w.
        assert_eq!(w.get("l").unwrap().get("v"), Some(&Json::Num(7)));
        assert_eq!(w.get("l"), w.get("r"));
    }

    #[test]
    fn eq_pair_conflict_unsat() {
        // EQ(X_l, X_r) but l is forced to 1 and r to 2.
        let phi = U::and(vec![
            U::eq_pair(B::key("l"), B::key("r")),
            U::eq_doc(B::key("l"), parse("1").unwrap()),
            U::eq_doc(B::key("r"), parse("2").unwrap()),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn neg_eq_pair_with_forced_equality_unsat() {
        let phi = U::and(vec![
            U::eq_doc(B::key("l"), parse(r#"{"z": 3}"#).unwrap()),
            U::eq_doc(B::key("r"), parse(r#"{"z": 3}"#).unwrap()),
            U::not(U::eq_pair(B::key("l"), B::key("r"))),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn disjunction_explores_both_branches() {
        let phi = U::and(vec![
            U::or(vec![
                U::eq_doc(B::key("k"), parse("1").unwrap()),
                U::eq_doc(B::key("k"), parse("2").unwrap()),
            ]),
            U::not(U::eq_doc(B::key("k"), parse("1").unwrap())),
        ]);
        let w = verify_sat(&phi);
        assert_eq!(w.get("k"), Some(&Json::Num(2)));
    }

    #[test]
    fn array_length_constraints() {
        // [X_a ∘ X_2] ∧ ¬[X_a ∘ X_5]: array with ≥3 and <6 elements.
        let phi = U::and(vec![
            U::exists(B::compose(vec![B::key("a"), B::index(2)])),
            U::not(U::exists(B::compose(vec![B::key("a"), B::index(5)]))),
        ]);
        let w = verify_sat(&phi);
        let len = w.get("a").unwrap().as_array().unwrap().len();
        assert!((3..6).contains(&len));
        // Contradictory bounds: [X_a ∘ X_5] ∧ ¬[X_a ∘ X_2] (5 ≥ 2).
        let phi = U::and(vec![
            U::exists(B::compose(vec![B::key("a"), B::index(5)])),
            U::not(U::exists(B::compose(vec![B::key("a"), B::index(2)]))),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn tests_inside_paths() {
        // [⟨¬[X_b]⟩ ∘ X_a] ∧ [X_b] is unsat: the test at the root demands
        // no key b, the second conjunct demands it.
        let phi = U::and(vec![
            U::exists(B::compose(vec![
                B::test(U::not(U::exists(B::key("b")))),
                B::key("a"),
            ])),
            U::exists(B::key("b")),
        ]);
        assert_eq!(sat_deterministic(&phi), SatResult::Unsat);
    }

    #[test]
    fn nonnegative_rank_preprocessing_shrinks_indices() {
        // Indices 0 and 1000000 become ranks 0 and 1, so the witness array
        // is small.
        let phi = U::and(vec![
            U::exists(B::compose(vec![B::key("a"), B::index(1_000_000)])),
            U::exists(B::compose(vec![B::key("a"), B::index(0)])),
        ]);
        let w = verify_sat(&rank_preprocess(&phi));
        assert!(w.get("a").unwrap().as_array().unwrap().len() <= 2);
    }

    #[test]
    fn nondeterministic_formula_reports_unknown() {
        let phi = U::exists(B::any_key());
        assert!(matches!(sat_deterministic(&phi), SatResult::Unknown(_)));
    }

    #[test]
    fn negative_indices_report_unknown() {
        // `[X_{-1}]` holds of any non-empty array; the tableau cannot
        // place a negative index, so it must not answer Unsat.
        let phi = U::exists(B::compose(vec![B::key("a"), B::index(-1)]));
        assert!(matches!(sat_deterministic(&phi), SatResult::Unknown(_)));
    }

    #[test]
    fn not_true_is_unsat() {
        assert_eq!(sat_deterministic(&U::not(U::True)), SatResult::Unsat);
        assert!(sat_deterministic(&U::True).is_sat());
    }
}
