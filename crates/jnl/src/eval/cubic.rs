//! The full-logic engine, including `EQ(α, β)` (Proposition 3, cubic case).
//!
//! Binary formulas are materialised as *relation rows*: for every node `n`,
//! a bitset of the nodes reachable by `α`. Because every primitive move
//! descends (to a child) or stays (tests, ε), relations are contained in
//! descendant-or-self, and `(α)*` closes in a single bottom-up pass over
//! pre-order ids. The worst case is the paper's `O(|J|³·|φ|)` (row unions
//! dominate); `EQ(α, β)` then intersects the canonical-class images of the
//! two rows per node.

use std::collections::HashSet;

use jsondata::NodeId;

use crate::ast::{Binary, Unary};
use crate::bitset::BitSet;
use crate::eval::{EvalContext, NodeSet};

/// Evaluates any JNL formula (the only engine that accepts `EQ(α, β)`
/// combined with non-determinism and recursion).
pub fn eval(tree: &jsondata::JsonTree, phi: &Unary) -> NodeSet {
    let mut ctx = EvalContext::new(tree);
    eval_unary(&mut ctx, phi)
}

pub(crate) fn eval_unary(ctx: &mut EvalContext<'_>, phi: &Unary) -> NodeSet {
    let n = ctx.tree.node_count();
    match phi {
        Unary::True => vec![true; n],
        Unary::Not(p) => {
            let mut s = eval_unary(ctx, p);
            for b in &mut s {
                *b = !*b;
            }
            s
        }
        Unary::And(ps) => {
            let mut acc = vec![true; n];
            for p in ps {
                let s = eval_unary(ctx, p);
                for (a, b) in acc.iter_mut().zip(s) {
                    *a &= b;
                }
            }
            acc
        }
        Unary::Or(ps) => {
            let mut acc = vec![false; n];
            for p in ps {
                let s = eval_unary(ctx, p);
                for (a, b) in acc.iter_mut().zip(s) {
                    *a |= b;
                }
            }
            acc
        }
        Unary::Exists(alpha) => {
            let rel = relation(ctx, alpha);
            rel.iter().map(|row| !row.is_empty()).collect()
        }
        Unary::EqDoc(alpha, doc) => {
            let rel = relation(ctx, alpha);
            let mut target = BitSet::new(n);
            if let Some(class) = ctx.class_of_doc(doc) {
                for i in 0..n {
                    if ctx.canon.class_of(NodeId::from_index(i)) == class {
                        target.insert(i);
                    }
                }
            }
            rel.iter().map(|row| row.intersects(&target)).collect()
        }
        Unary::EqPair(alpha, beta) => {
            let ra = relation(ctx, alpha);
            let rb = relation(ctx, beta);
            (0..n)
                .map(|i| {
                    // Compare canonical-class images of the two rows.
                    let (small, large) = if ra[i].count() <= rb[i].count() {
                        (&ra[i], &rb[i])
                    } else {
                        (&rb[i], &ra[i])
                    };
                    let classes: HashSet<u32> = small
                        .iter()
                        .map(|m| ctx.canon.class_of(NodeId::from_index(m)))
                        .collect();
                    large
                        .iter()
                        .any(|m| classes.contains(&ctx.canon.class_of(NodeId::from_index(m))))
                })
                .collect()
        }
    }
}

/// Materialises `JαK` as one bitset row per source node.
fn relation(ctx: &mut EvalContext<'_>, alpha: &Binary) -> Vec<BitSet> {
    let tree = ctx.tree;
    let n = tree.node_count();
    match alpha {
        Binary::Epsilon => identity(n),
        Binary::Test(phi) => {
            let s = eval_unary(ctx, phi);
            let mut rows = empty(n);
            for (i, &b) in s.iter().enumerate() {
                if b {
                    rows[i].insert(i);
                }
            }
            rows
        }
        Binary::Key(w) => {
            let mut rows = empty(n);
            for src in tree.node_ids() {
                if let Some(c) = tree.child_by_key(src, w) {
                    rows[src.index()].insert(c.index());
                }
            }
            rows
        }
        Binary::Index(i) => {
            let mut rows = empty(n);
            for src in tree.node_ids() {
                if let Some(c) = tree.child_by_signed_index(src, *i) {
                    rows[src.index()].insert(c.index());
                }
            }
            rows
        }
        Binary::KeyRegex(e) => {
            // One matcher fetch per relation; each edge test below is a
            // single bit load unless the regex fell back to the memo.
            let matcher = ctx.matcher_for(e);
            let mut rows = empty(n);
            for src in tree.node_ids() {
                for (k, c) in tree.obj_entries(src) {
                    if matcher.matches_sym(k.index(), || tree.resolve(k)) {
                        rows[src.index()].insert(c.index());
                    }
                }
            }
            rows
        }
        Binary::Range(i, j) => {
            let mut rows = empty(n);
            for src in tree.node_ids() {
                let cs = tree.arr_children(src);
                for (pos, c) in cs.iter().enumerate() {
                    let pos = pos as u64;
                    if pos >= *i && j.is_none_or(|j| pos <= j) {
                        rows[src.index()].insert(c.index());
                    }
                }
            }
            rows
        }
        Binary::Compose(parts) => {
            let mut acc = identity(n);
            for p in parts {
                let step = relation(ctx, p);
                acc = compose_rows(&acc, &step);
            }
            acc
        }
        Binary::Star(inner) => {
            let step = relation(ctx, inner);
            // All moves are descendant-or-self, so closing bottom-up over
            // pre-order ids terminates in one pass:
            // R*[n] = {n} ∪ ⋃_{m ∈ step[n], m ≠ n} R*[m].
            let mut rows = empty(n);
            for i in (0..n).rev() {
                let members: Vec<usize> = step[i].iter().filter(|&m| m != i).collect();
                rows[i].insert(i);
                for m in members {
                    debug_assert!(m > i, "steps may only descend");
                    let (head, tail) = rows.split_at_mut(m);
                    head[i].union_with(&tail[0]);
                }
            }
            rows
        }
    }
}

fn identity(n: usize) -> Vec<BitSet> {
    let mut rows = empty(n);
    for (i, row) in rows.iter_mut().enumerate() {
        row.insert(i);
    }
    rows
}

fn empty(n: usize) -> Vec<BitSet> {
    vec![BitSet::new(n); n]
}

fn compose_rows(a: &[BitSet], b: &[BitSet]) -> Vec<BitSet> {
    let n = a.len();
    let mut out = empty(n);
    for i in 0..n {
        for m in a[i].iter() {
            out[i].union_with(&b[m]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Binary as B, Unary as U};
    use jsondata::{parse, JsonTree};
    use relex::Regex;

    fn tree(src: &str) -> JsonTree {
        JsonTree::build(&parse(src).unwrap())
    }

    #[test]
    fn agrees_with_naive_on_full_logic() {
        let docs = [
            r#"{"a": {"x": [1, 2]}, "b": {"x": [1, 2]}, "c": {"x": [2, 1]}}"#,
            r#"[[1, [2]], [1, [2]], [[2], 1]]"#,
            r#"{"r": {"r": {"r": {"v": 9}}, "v": 9}}"#,
        ];
        let e = Regex::parse(".*").unwrap();
        let phis = vec![
            // EQ over recursive, nondeterministic paths.
            U::eq_pair(
                B::compose(vec![B::key("a"), B::star(B::key_regex(e.clone()))]),
                B::compose(vec![B::key("c"), B::star(B::key_regex(e.clone()))]),
            ),
            U::eq_pair(B::star(B::any_index()), B::star(B::any_index())),
            U::eq_pair(B::index(0), B::index(1)),
            U::not(U::eq_pair(B::index(0), B::index(2))),
            U::eq_pair(
                B::star(B::any_key()),
                B::compose(vec![B::any_key(), B::star(B::any_key())]),
            ),
            U::and(vec![
                U::exists(B::star(B::any_key())),
                U::eq_doc(B::star(B::any_key()), parse("9").unwrap()),
            ]),
        ];
        for src in docs {
            let t = tree(src);
            for phi in &phis {
                let fast = eval(&t, phi);
                let slow = crate::eval::naive::eval(&t, phi);
                assert_eq!(fast, slow, "doc {src}, formula {phi}");
            }
        }
    }

    #[test]
    fn eq_pair_with_star_finds_common_descendant_value() {
        // Do subtrees `l` and `r` share any equal descendant subtree?
        let t = tree(r#"{"l": {"p": [7, 8]}, "r": {"q": {"z": [7, 9]}}}"#);
        let desc = |k: &str| {
            B::compose(vec![
                B::key(k),
                B::star(B::compose(vec![
                    B::star(B::any_key()),
                    B::star(B::any_index()),
                ])),
            ])
        };
        let phi = U::eq_pair(desc("l"), desc("r"));
        assert!(eval(&t, &phi)[0], "both contain the value 7");
        let phi_miss = U::eq_pair(desc("l"), B::compose(vec![B::key("r"), B::key("q")]));
        assert!(!eval(&t, &phi_miss)[0]);
    }

    #[test]
    fn dispatcher_routes_to_cubic() {
        let t = tree(r#"{"a": 1, "b": 1}"#);
        let phi = U::eq_pair(B::any_key(), B::any_key());
        assert!(crate::eval::evaluate(&t, &phi)[0]);
    }
}
