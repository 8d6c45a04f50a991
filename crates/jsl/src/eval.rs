//! Evaluation of (non-recursive) JSL — Proposition 6.
//!
//! One bottom-up pass per subformula gives `O(|J|·|φ|)` when `Unique` is
//! absent. `Unique` is implemented twice:
//!
//! * [`UniqueStrategy::NaivePairwise`] — the paper's bound: all pairs of
//!   children compared structurally, `O(|J|²)` overall (the E7 baseline);
//! * [`UniqueStrategy::Canonical`] — children's canonical classes sorted
//!   and scanned, `O(|J| log |J|)` (the refinement measured against it).

use jsondata::{CanonTable, Json, JsonTree, NodeId, NodeKind, Sym};
use relex::{Regex, SymMatcher, SymMatcherTable};

use crate::ast::{Jsl, NodeTest};

/// Node-set result (indexed by `NodeId::index()`).
pub type NodeSet = Vec<bool>;

/// How the `Unique` node test is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UniqueStrategy {
    /// Compare all pairs of children structurally (quadratic; the paper's
    /// Proposition 6 bound).
    NaivePairwise,
    /// Compare canonical class ids (linearithmic).
    #[default]
    Canonical,
}

/// Evaluation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Strategy for `Unique`.
    pub unique: UniqueStrategy,
}

/// Shared evaluation state (canonical table + per-regex edge matchers).
///
/// Both edge keys and string atoms are interned by the tree, so every regex
/// — key modality or `Pattern` node test — is compiled once per (query,
/// tree) by [`SymMatcher::compile`]. It precomputes the verdicts as a
/// symbol bitset, so every later test is a single bit load.
pub struct JslContext<'t> {
    /// The tree under evaluation.
    pub tree: &'t JsonTree,
    /// Canonical subtree labels: the tree's own table
    /// ([`JsonTree::canon`]).
    pub canon: &'t CanonTable,
    matchers: SymMatcherTable,
    options: EvalOptions,
}

impl<'t> JslContext<'t> {
    /// Builds a context with default options.
    pub fn new(tree: &'t JsonTree) -> JslContext<'t> {
        JslContext::with_options(tree, EvalOptions::default())
    }

    /// Builds a context with explicit options.
    pub fn with_options(tree: &'t JsonTree, options: EvalOptions) -> JslContext<'t> {
        JslContext {
            tree,
            canon: tree.canon(),
            matchers: SymMatcherTable::new(),
            options,
        }
    }

    /// Whether the string behind `sym` matches `e` — a bit load unless `e`
    /// fell back to the memo.
    pub fn key_matches(&mut self, e: &Regex, sym: Sym) -> bool {
        let tree = self.tree;
        self.matcher_for(e)
            .matches_sym(sym.index(), || tree.resolve(sym))
    }

    /// The edge matcher for `e` — fetch once before a loop over many edges
    /// so the table probe (which hashes the regex AST) runs once, not per
    /// edge.
    pub fn matcher_for(&mut self, e: &Regex) -> &mut SymMatcher {
        let tree = self.tree;
        self.matchers
            .matcher(e, || tree.interner().iter().map(|(_, s)| s))
    }

    /// Evaluates one node test at one node.
    pub fn node_test(&mut self, t: &NodeTest, n: NodeId) -> bool {
        let tree = self.tree;
        match t {
            NodeTest::Arr => tree.kind(n) == NodeKind::Arr,
            NodeTest::Obj => tree.kind(n) == NodeKind::Obj,
            NodeTest::Str => tree.kind(n) == NodeKind::Str,
            NodeTest::Int => tree.kind(n) == NodeKind::Int,
            NodeTest::Pattern(e) => match tree.str_sym(n) {
                Some(sym) => self.key_matches(e, sym),
                None => false,
            },
            NodeTest::Min(i) => tree.num_value(n).is_some_and(|v| v >= *i),
            NodeTest::Max(i) => tree.num_value(n).is_some_and(|v| v <= *i),
            NodeTest::MultOf(i) => {
                tree.num_value(n)
                    .is_some_and(|v| if *i == 0 { v == 0 } else { v % i == 0 })
            }
            NodeTest::MinCh(i) => (tree.child_count(n) as u64) >= *i,
            NodeTest::MaxCh(i) => (tree.child_count(n) as u64) <= *i,
            NodeTest::EqDoc(doc) => {
                self.canon.class_of_json(tree, doc) == Some(self.canon.class_of(n))
            }
            NodeTest::Unique => self.unique(n),
        }
    }

    fn unique(&mut self, n: NodeId) -> bool {
        let tree = self.tree;
        if tree.kind(n) != NodeKind::Arr {
            return false;
        }
        let cs = tree.arr_children(n);
        match self.options.unique {
            UniqueStrategy::Canonical => {
                let mut classes: Vec<u32> = cs.iter().map(|c| self.canon.class_of(*c)).collect();
                classes.sort_unstable();
                classes.windows(2).all(|w| w[0] != w[1])
            }
            UniqueStrategy::NaivePairwise => {
                // Materialise each child's JSON value and compare all pairs
                // structurally — the paper's quadratic bound, kept as the E7
                // ablation baseline.
                let docs: Vec<Json> = cs.iter().map(|c| tree.json_at(*c)).collect();
                for i in 0..docs.len() {
                    for j in i + 1..docs.len() {
                        if docs[i] == docs[j] {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }
}

/// Evaluates `φ` at every node (Proposition 6).
pub fn evaluate(tree: &JsonTree, phi: &Jsl) -> NodeSet {
    evaluate_with(tree, phi, EvalOptions::default())
}

/// Evaluates with explicit options.
pub fn evaluate_with(tree: &JsonTree, phi: &Jsl, options: EvalOptions) -> NodeSet {
    let mut ctx = JslContext::with_options(tree, options);
    eval_set(&mut ctx, phi)
}

/// `J |ù φ`: evaluation at the root (the paper's schema-validation reading).
pub fn check_root(tree: &JsonTree, phi: &Jsl) -> bool {
    evaluate(tree, phi)[tree.root().index()]
}

pub(crate) fn eval_set(ctx: &mut JslContext<'_>, phi: &Jsl) -> NodeSet {
    let n = ctx.tree.node_count();
    match phi {
        Jsl::True => vec![true; n],
        Jsl::Var(v) => panic!(
            "free formula variable ${v} outside a recursive JSL context (use crate::recursive)"
        ),
        Jsl::Not(p) => {
            let mut s = eval_set(ctx, p);
            for b in &mut s {
                *b = !*b;
            }
            s
        }
        Jsl::And(ps) => {
            let mut acc = vec![true; n];
            for p in ps {
                let s = eval_set(ctx, p);
                for (a, b) in acc.iter_mut().zip(s) {
                    *a &= b;
                }
            }
            acc
        }
        Jsl::Or(ps) => {
            let mut acc = vec![false; n];
            for p in ps {
                let s = eval_set(ctx, p);
                for (a, b) in acc.iter_mut().zip(s) {
                    *a |= b;
                }
            }
            acc
        }
        // Pattern is special-cased so the matcher is fetched once for the
        // whole pass, not table-probed per node.
        Jsl::Test(NodeTest::Pattern(e)) => {
            let tree = ctx.tree;
            let matcher = ctx.matcher_for(e);
            tree.node_ids()
                .map(|nd| match tree.str_sym(nd) {
                    Some(sym) => matcher.matches_sym(sym.index(), || tree.resolve(sym)),
                    None => false,
                })
                .collect()
        }
        Jsl::Test(t) => (0..n)
            .map(|i| ctx.node_test(t, NodeId::from_index(i)))
            .collect(),
        Jsl::DiamondKey(e, p) => {
            let inner = eval_set(ctx, p);
            let tree = ctx.tree;
            let matcher = ctx.matcher_for(e);
            let mut out = Vec::with_capacity(n);
            for nd in tree.node_ids() {
                out.push(tree.obj_entries(nd).any(|(k, c)| {
                    inner[c.index()] && matcher.matches_sym(k.index(), || tree.resolve(k))
                }));
            }
            out
        }
        Jsl::BoxKey(e, p) => {
            let inner = eval_set(ctx, p);
            let tree = ctx.tree;
            let matcher = ctx.matcher_for(e);
            let mut out = Vec::with_capacity(n);
            for nd in tree.node_ids() {
                out.push(tree.obj_entries(nd).all(|(k, c)| {
                    inner[c.index()] || !matcher.matches_sym(k.index(), || tree.resolve(k))
                }));
            }
            out
        }
        Jsl::DiamondRange(i, j, p) => {
            let inner = eval_set(ctx, p);
            ctx.tree
                .node_ids()
                .map(|nd| {
                    ctx.tree
                        .arr_children(nd)
                        .iter()
                        .enumerate()
                        .any(|(pos, c)| {
                            let pos = pos as u64;
                            pos >= *i && j.is_none_or(|j| pos <= j) && inner[c.index()]
                        })
                })
                .collect()
        }
        Jsl::BoxRange(i, j, p) => {
            let inner = eval_set(ctx, p);
            ctx.tree
                .node_ids()
                .map(|nd| {
                    ctx.tree
                        .arr_children(nd)
                        .iter()
                        .enumerate()
                        .all(|(pos, c)| {
                            let pos = pos as u64;
                            !(pos >= *i && j.is_none_or(|j| pos <= j)) || inner[c.index()]
                        })
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Jsl as J;
    use jsondata::parse;

    fn tree(src: &str) -> JsonTree {
        JsonTree::build(&parse(src).unwrap())
    }

    #[test]
    fn node_tests() {
        let t = tree(r#"{"s": "abc", "n": 12, "a": [1, 1], "o": {}}"#);
        let mut ctx = JslContext::new(&t);
        let s = t.child_by_key(t.root(), "s").unwrap();
        let n = t.child_by_key(t.root(), "n").unwrap();
        let a = t.child_by_key(t.root(), "a").unwrap();
        let o = t.child_by_key(t.root(), "o").unwrap();

        assert!(ctx.node_test(&NodeTest::Str, s));
        assert!(ctx.node_test(&NodeTest::Pattern(Regex::parse("a.*").unwrap()), s));
        assert!(!ctx.node_test(&NodeTest::Pattern(Regex::parse("b.*").unwrap()), s));
        assert!(ctx.node_test(&NodeTest::Int, n));
        assert!(ctx.node_test(&NodeTest::Min(12), n));
        assert!(!ctx.node_test(&NodeTest::Min(13), n));
        assert!(ctx.node_test(&NodeTest::Max(12), n));
        assert!(ctx.node_test(&NodeTest::MultOf(4), n));
        assert!(!ctx.node_test(&NodeTest::MultOf(5), n));
        assert!(ctx.node_test(&NodeTest::Arr, a));
        assert!(!ctx.node_test(&NodeTest::Unique, a), "duplicates");
        assert!(ctx.node_test(&NodeTest::Obj, o));
        assert!(ctx.node_test(&NodeTest::MinCh(4), t.root()));
        assert!(ctx.node_test(&NodeTest::MaxCh(4), t.root()));
        assert!(!ctx.node_test(&NodeTest::MaxCh(3), t.root()));
        assert!(ctx.node_test(&NodeTest::EqDoc(parse("12").unwrap()), n));
        assert!(!ctx.node_test(&NodeTest::EqDoc(parse("13").unwrap()), n));
    }

    #[test]
    fn unique_strategies_agree() {
        for src in [
            r#"[1, 2, 3]"#,
            r#"[1, 2, 1]"#,
            r#"[{"a": 1}, {"a": 1}]"#,
            r#"[{"a": 1}, {"a": 2}]"#,
            r#"[[], {}, "", 0]"#,
            r#"[]"#,
        ] {
            let t = tree(src);
            let phi = J::Test(NodeTest::Unique);
            let naive = evaluate_with(
                &t,
                &phi,
                EvalOptions {
                    unique: UniqueStrategy::NaivePairwise,
                },
            );
            let canon = evaluate_with(
                &t,
                &phi,
                EvalOptions {
                    unique: UniqueStrategy::Canonical,
                },
            );
            assert_eq!(naive, canon, "doc {src}");
        }
    }

    #[test]
    fn modalities() {
        let t = tree(r#"{"name": "x", "aba": 2, "aca": 4, "arr": [10, 11, 12]}"#);
        // ◇_{a(b|c)a} MultOf(2)
        let phi = J::DiamondKey(
            Regex::parse("a(b|c)a").unwrap(),
            Box::new(J::Test(NodeTest::MultOf(2))),
        );
        assert!(check_root(&t, &phi));
        // □_{a(b|c)a} MultOf(2): both aba and aca are even.
        let phi = J::BoxKey(
            Regex::parse("a(b|c)a").unwrap(),
            Box::new(J::Test(NodeTest::MultOf(2))),
        );
        assert!(check_root(&t, &phi));
        // □_{a(b|c)a} MultOf(4): aba=2 fails.
        let phi = J::BoxKey(
            Regex::parse("a(b|c)a").unwrap(),
            Box::new(J::Test(NodeTest::MultOf(4))),
        );
        assert!(!check_root(&t, &phi));
        // Array ranges under the key arr.
        let arr_phi = |inner: J| J::diamond_key("arr", inner);
        assert!(check_root(
            &t,
            &arr_phi(J::DiamondRange(
                1,
                Some(2),
                Box::new(J::Test(NodeTest::Min(12)))
            ))
        ));
        assert!(!check_root(
            &t,
            &arr_phi(J::DiamondRange(
                0,
                Some(1),
                Box::new(J::Test(NodeTest::Min(12)))
            ))
        ));
        assert!(check_root(
            &t,
            &arr_phi(J::BoxRange(0, None, Box::new(J::Test(NodeTest::Min(10)))))
        ));
        assert!(!check_root(
            &t,
            &arr_phi(J::BoxRange(0, None, Box::new(J::Test(NodeTest::Min(11)))))
        ));
    }

    #[test]
    fn box_is_vacuous_on_leaves_and_mismatched_kinds() {
        let t = tree(r#"{"leaf": 5}"#);
        let leaf = t.child_by_key(t.root(), "leaf").unwrap();
        // □ over keys at a number node: vacuously true.
        let phi = J::box_any_key(J::falsity());
        assert!(evaluate(&t, &phi)[leaf.index()]);
        // ◇ at a number node: false.
        let phi = J::diamond_any_key(J::True);
        assert!(!evaluate(&t, &phi)[leaf.index()]);
    }

    #[test]
    fn paper_object_schema_example() {
        // §5.1 example: name must be a string, a(b|c)a keys even numbers,
        // everything else exactly the number 1.
        let name_re = Regex::literal("name");
        let abc_re = Regex::parse("a(b|c)a").unwrap();
        let other = name_re.to_dfa().union(&abc_re.to_dfa());
        // Complement via DFA → we only need a regex for testing membership;
        // approximate with box over specific keys in the test documents.
        let _ = other;
        let phi = J::and(vec![
            J::Test(NodeTest::Obj),
            J::BoxKey(name_re, Box::new(J::Test(NodeTest::Str))),
            J::BoxKey(
                abc_re,
                Box::new(J::and(vec![
                    J::Test(NodeTest::Int),
                    J::Test(NodeTest::MultOf(2)),
                ])),
            ),
        ]);
        assert!(check_root(&tree(r#"{"name": "x", "aba": 4}"#), &phi));
        assert!(!check_root(&tree(r#"{"name": 3}"#), &phi));
        assert!(!check_root(&tree(r#"{"aca": 3}"#), &phi));
    }

    #[test]
    #[should_panic(expected = "free formula variable")]
    fn free_variables_panic() {
        let t = tree("{}");
        let _ = evaluate(&t, &J::Var("g".into()));
    }
}
