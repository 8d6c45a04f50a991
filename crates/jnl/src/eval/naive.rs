//! The reference evaluator: a direct transcription of the denotational
//! semantics of §4.2/§4.3.
//!
//! Binary formulas are materialised as explicit pair sets and `(α)*` as an
//! iterated-union fixpoint, exactly as written in the paper. This is
//! `O(|J|²)` space and worse time — it exists as the differential-testing
//! oracle against which the efficient engines are validated, not for use.

use std::collections::HashSet;

use jsondata::{JsonTree, NodeId};

use crate::ast::{Binary, Unary};
use crate::eval::{EvalContext, NodeSet};

/// Evaluates `φ`, returning the satisfying node set.
pub fn eval(tree: &JsonTree, phi: &Unary) -> NodeSet {
    let mut ctx = EvalContext::new(tree);
    eval_unary(&mut ctx, phi)
}

fn eval_unary(ctx: &mut EvalContext<'_>, phi: &Unary) -> NodeSet {
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
            let pairs = eval_binary(ctx, alpha);
            let mut s = vec![false; n];
            for (a, _) in pairs {
                s[a.index()] = true;
            }
            s
        }
        Unary::EqDoc(alpha, doc) => {
            let target = ctx.class_of_doc(doc);
            let pairs = eval_binary(ctx, alpha);
            let mut s = vec![false; n];
            if let Some(t) = target {
                for (a, b) in pairs {
                    if ctx.canon.class_of(b) == t {
                        s[a.index()] = true;
                    }
                }
            }
            s
        }
        Unary::EqPair(alpha, beta) => {
            let pa = eval_binary(ctx, alpha);
            let pb = eval_binary(ctx, beta);
            let mut s = vec![false; n];
            // Group reachable classes per source node.
            let mut per_a: Vec<HashSet<u32>> = vec![HashSet::new(); n];
            for (a, x) in &pa {
                per_a[a.index()].insert(ctx.canon.class_of(*x));
            }
            for (a, y) in &pb {
                if per_a[a.index()].contains(&ctx.canon.class_of(*y)) {
                    s[a.index()] = true;
                }
            }
            s
        }
    }
}

/// Materialises `JαK_J` as a set of node pairs.
fn eval_binary(ctx: &mut EvalContext<'_>, alpha: &Binary) -> HashSet<(NodeId, NodeId)> {
    let tree = ctx.tree;
    match alpha {
        Binary::Epsilon => tree.node_ids().map(|n| (n, n)).collect(),
        Binary::Test(phi) => {
            let s = eval_unary(ctx, phi);
            tree.node_ids()
                .filter(|n| s[n.index()])
                .map(|n| (n, n))
                .collect()
        }
        Binary::Key(w) => tree
            .node_ids()
            .filter_map(|n| tree.child_by_key(n, w).map(|c| (n, c)))
            .collect(),
        Binary::Index(i) => tree
            .node_ids()
            .filter_map(|n| tree.child_by_signed_index(n, *i).map(|c| (n, c)))
            .collect(),
        Binary::KeyRegex(e) => {
            // Reference semantics on purpose: a fresh NFA run per resolved
            // key, independent of the symbol matchers the efficient engines
            // use — so differential tests exercise those matchers against
            // an implementation that cannot share their bugs.
            let compiled = e.compile();
            let mut out = HashSet::new();
            for n in tree.node_ids() {
                for (k, c) in tree.obj_entries(n) {
                    if compiled.is_match(tree.resolve(k)) {
                        out.insert((n, c));
                    }
                }
            }
            out
        }
        Binary::Range(i, j) => {
            let mut out = HashSet::new();
            for n in tree.node_ids() {
                let cs = tree.arr_children(n);
                let hi = match j {
                    Some(j) => (*j).min(cs.len().saturating_sub(1) as u64),
                    None => cs.len().saturating_sub(1) as u64,
                };
                if cs.is_empty() {
                    continue;
                }
                for p in *i..=hi {
                    if let Some(c) = cs.get(p as usize) {
                        out.insert((n, *c));
                    }
                }
            }
            out
        }
        Binary::Compose(parts) => {
            let mut acc: HashSet<(NodeId, NodeId)> = tree.node_ids().map(|n| (n, n)).collect();
            for p in parts {
                let step = eval_binary(ctx, p);
                acc = compose(&acc, &step);
            }
            acc
        }
        Binary::Star(inner) => {
            // Jα*K = JεK ∪ JαK ∪ Jα∘αK ∪ … as an increasing fixpoint.
            let step = eval_binary(ctx, inner);
            let mut acc: HashSet<(NodeId, NodeId)> = tree.node_ids().map(|n| (n, n)).collect();
            loop {
                let next = compose(&acc, &step);
                let before = acc.len();
                acc.extend(next);
                if acc.len() == before {
                    break;
                }
            }
            acc
        }
    }
}

fn compose(
    a: &HashSet<(NodeId, NodeId)>,
    b: &HashSet<(NodeId, NodeId)>,
) -> HashSet<(NodeId, NodeId)> {
    // Index b by first component.
    let mut by_first: std::collections::HashMap<NodeId, Vec<NodeId>> =
        std::collections::HashMap::new();
    for (x, y) in b {
        by_first.entry(*x).or_default().push(*y);
    }
    let mut out = HashSet::new();
    for (x, y) in a {
        if let Some(zs) = by_first.get(y) {
            for z in zs {
                out.insert((*x, *z));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Binary as B, Unary as U};
    use jsondata::parse;

    fn tree(src: &str) -> JsonTree {
        JsonTree::build(&parse(src).unwrap())
    }

    fn sat_root(src: &str, phi: &U) -> bool {
        let t = tree(src);
        eval(&t, phi)[0]
    }

    #[test]
    fn figure1_queries() {
        let src = r#"{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}"#;
        // [X_name ∘ X_first]
        assert!(sat_root(
            src,
            &U::exists(B::compose(vec![B::key("name"), B::key("first")]))
        ));
        // EQ(X_name ∘ X_first, "John")
        assert!(sat_root(
            src,
            &U::eq_doc(
                B::compose(vec![B::key("name"), B::key("first")]),
                parse("\"John\"").unwrap()
            )
        ));
        // ¬[X_salary]
        assert!(sat_root(src, &U::not(U::exists(B::key("salary")))));
        // array access: [X_hobbies ∘ X_1]
        assert!(sat_root(
            src,
            &U::exists(B::compose(vec![B::key("hobbies"), B::index(1)]))
        ));
        assert!(!sat_root(
            src,
            &U::exists(B::compose(vec![B::key("hobbies"), B::index(2)]))
        ));
        // negative index: EQ(X_hobbies ∘ X_{-1}, "yoga")
        assert!(sat_root(
            src,
            &U::eq_doc(
                B::compose(vec![B::key("hobbies"), B::index(-1)]),
                parse("\"yoga\"").unwrap()
            )
        ));
    }

    #[test]
    fn eq_pair_compares_subtrees() {
        let src = r#"{"a": {"x": [1,2]}, "b": {"x": [1,2]}, "c": {"x": [2,1]}}"#;
        assert!(sat_root(src, &U::eq_pair(B::key("a"), B::key("b"))));
        assert!(!sat_root(src, &U::eq_pair(B::key("a"), B::key("c"))));
        // nondeterministic witness: some child of a equals some child of c? both have key x.
        assert!(!sat_root(
            src,
            &U::eq_pair(
                B::compose(vec![B::key("a"), B::key("x")]),
                B::compose(vec![B::key("c"), B::key("x")])
            )
        ));
    }

    #[test]
    fn regex_and_range_steps() {
        let src = r#"{"aba": 1, "aca": 2, "ada": 3, "arr": [10, 20, 30, 40]}"#;
        let e = relex::Regex::parse("a(b|c)a").unwrap();
        let t = tree(src);
        let set = eval(&t, &U::exists(B::key_regex(e)));
        assert!(set[0]);
        let hits = eval(
            &t,
            &U::eq_doc(
                B::compose(vec![B::key("arr"), B::range(1, Some(2))]),
                parse("30").unwrap(),
            ),
        );
        assert!(hits[0]);
        let miss = eval(
            &t,
            &U::eq_doc(
                B::compose(vec![B::key("arr"), B::range(0, Some(1))]),
                parse("30").unwrap(),
            ),
        );
        assert!(!miss[0]);
        // open range i:∞
        let open = eval(
            &t,
            &U::eq_doc(
                B::compose(vec![B::key("arr"), B::range(2, None)]),
                parse("40").unwrap(),
            ),
        );
        assert!(open[0]);
    }

    #[test]
    fn star_reaches_descendants() {
        let src = r#"{"a": {"a": {"a": {"leaf": 7}}}}"#;
        let any_desc = B::star(B::any_key());
        // descendant with value 7 under key leaf
        let phi = U::eq_doc(
            B::compose(vec![any_desc, B::key("leaf")]),
            parse("7").unwrap(),
        );
        assert!(sat_root(src, &phi));
        // bounded composition fails before depth 3
        let two = B::power(B::key("a"), 2);
        assert!(!sat_root(
            src,
            &U::exists(B::compose(vec![two, B::key("leaf")]))
        ));
    }

    #[test]
    fn unsat_key_determinism_example() {
        // From the paper (Prop 2 discussion): X_a[X_1] ∧ X_a[X_b] forces the
        // value under key a to be both array and object.
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
        assert!(!sat_root(r#"{"a": [0]}"#, &phi));
        assert!(!sat_root(r#"{"a": {"b": 1}}"#, &phi));
    }

    #[test]
    fn epsilon_and_tests() {
        let src = r#"{"x": 1}"#;
        assert!(sat_root(src, &U::exists(B::Epsilon)));
        let phi = U::exists(B::compose(vec![
            B::test(U::exists(B::key("x"))),
            B::key("x"),
        ]));
        assert!(sat_root(src, &phi));
    }
}
