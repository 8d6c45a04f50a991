//! The frozen **per-node-visit** regex matching that predates both the
//! per-symbol memo and the precomputed bitset tiers, kept as the third
//! side of the S3 DFA-bitset experiment's strings ≡ memo ≡ bitset gate:
//! [`exists_regex_edge_strings`] for JNL and [`jsl_eval_strings`] for JSL.

use jsl::ast::{Jsl, NodeTest};
use jsondata::{JsonTree, NodeId, NodeKind};

/// The frozen pre-interning evaluation of `[X_e]⊤` — the nodes with some
/// outgoing object edge whose key matches `e`. One NFA run per resolved
/// edge key at every node visit: the per-node cost both the per-symbol
/// memo and the precomputed bitset tier removed.
pub fn exists_regex_edge_strings(tree: &JsonTree, e: &relex::Regex) -> Vec<bool> {
    let compiled = e.compile();
    tree.node_ids()
        .map(|n| tree.obj_children(n).any(|(k, _)| compiled.is_match(k)))
        .collect()
}

/// The frozen pre-interning JSL evaluation: each regex is compiled once per
/// formula node and the NFA runs on the **resolved string of every node
/// visit** — no symbol memoisation, no bitsets. Covers the non-recursive
/// fragment the S3 workloads use (kind/number/count tests, `Pattern`, key
/// modalities, ranges); panics on `Unique`, `EqDoc` and free variables.
pub fn jsl_eval_strings(tree: &JsonTree, phi: &Jsl) -> Vec<bool> {
    let n = tree.node_count();
    match phi {
        Jsl::True => vec![true; n],
        Jsl::Not(p) => {
            let mut s = jsl_eval_strings(tree, p);
            for b in &mut s {
                *b = !*b;
            }
            s
        }
        Jsl::And(ps) => {
            let mut acc = vec![true; n];
            for p in ps {
                for (a, b) in acc.iter_mut().zip(jsl_eval_strings(tree, p)) {
                    *a &= b;
                }
            }
            acc
        }
        Jsl::Or(ps) => {
            let mut acc = vec![false; n];
            for p in ps {
                for (a, b) in acc.iter_mut().zip(jsl_eval_strings(tree, p)) {
                    *a |= b;
                }
            }
            acc
        }
        Jsl::Test(NodeTest::Pattern(e)) => {
            let compiled = e.compile();
            tree.node_ids()
                .map(|nd| tree.str_value(nd).is_some_and(|s| compiled.is_match(s)))
                .collect()
        }
        Jsl::Test(t) => tree.node_ids().map(|nd| plain_test(tree, t, nd)).collect(),
        Jsl::DiamondKey(e, p) => {
            let inner = jsl_eval_strings(tree, p);
            let compiled = e.compile();
            tree.node_ids()
                .map(|nd| {
                    tree.obj_children(nd)
                        .any(|(k, c)| inner[c.index()] && compiled.is_match(k))
                })
                .collect()
        }
        Jsl::BoxKey(e, p) => {
            let inner = jsl_eval_strings(tree, p);
            let compiled = e.compile();
            tree.node_ids()
                .map(|nd| {
                    tree.obj_children(nd)
                        .all(|(k, c)| inner[c.index()] || !compiled.is_match(k))
                })
                .collect()
        }
        Jsl::DiamondRange(i, j, p) => {
            let inner = jsl_eval_strings(tree, p);
            tree.node_ids()
                .map(|nd| {
                    tree.arr_children(nd).iter().enumerate().any(|(pos, c)| {
                        let pos = pos as u64;
                        pos >= *i && j.is_none_or(|j| pos <= j) && inner[c.index()]
                    })
                })
                .collect()
        }
        Jsl::BoxRange(i, j, p) => {
            let inner = jsl_eval_strings(tree, p);
            tree.node_ids()
                .map(|nd| {
                    tree.arr_children(nd).iter().enumerate().all(|(pos, c)| {
                        let pos = pos as u64;
                        !(pos >= *i && j.is_none_or(|j| pos <= j)) || inner[c.index()]
                    })
                })
                .collect()
        }
        Jsl::Var(_) => panic!("baseline JSL engine covers the non-recursive fragment"),
    }
}

fn plain_test(tree: &JsonTree, t: &NodeTest, n: NodeId) -> bool {
    match t {
        NodeTest::Arr => tree.kind(n) == NodeKind::Arr,
        NodeTest::Obj => tree.kind(n) == NodeKind::Obj,
        NodeTest::Str => tree.kind(n) == NodeKind::Str,
        NodeTest::Int => tree.kind(n) == NodeKind::Int,
        NodeTest::Min(i) => tree.num_value(n).is_some_and(|v| v >= *i),
        NodeTest::Max(i) => tree.num_value(n).is_some_and(|v| v <= *i),
        NodeTest::MultOf(i) => {
            tree.num_value(n)
                .is_some_and(|v| if *i == 0 { v == 0 } else { v % i == 0 })
        }
        NodeTest::MinCh(i) => (tree.child_count(n) as u64) >= *i,
        NodeTest::MaxCh(i) => (tree.child_count(n) as u64) <= *i,
        other => panic!("baseline JSL engine does not cover {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{e1_formula, e7_doc, e7_formula, scaling_doc};
    use jsl::{EvalOptions, UniqueStrategy};

    // The `legacy_e1`/`legacy_e7` names date from the pre-interning string
    // engines these workloads were first checked against; the oracles are
    // now the §4.2/§4.3 transcription and the Prop 6 pairwise strategy.
    #[test]
    fn legacy_e1_engine_agrees_with_interned() {
        let doc = scaling_doc(3000, 1);
        let tree = JsonTree::build(&doc);
        let phi = e1_formula();
        assert_eq!(
            jnl::eval::naive::eval(&tree, &phi),
            jnl::eval::linear::eval(&tree, &phi).unwrap()
        );
    }

    #[test]
    fn legacy_e7_agrees_with_interned() {
        let doc = e7_doc(512, 100);
        let tree = JsonTree::build(&doc);
        let with = |unique| {
            jsl::eval::evaluate_with(
                &tree,
                &e7_formula(),
                EvalOptions {
                    unique,
                    ..Default::default()
                },
            )
        };
        assert_eq!(
            with(UniqueStrategy::NaivePairwise),
            with(UniqueStrategy::Canonical)
        );
    }

    #[test]
    fn legacy_regex_baselines_agree_with_engines() {
        // JNL side: [X_e]⊤ over distinct-key objects, string baseline vs
        // both tiers.
        let tree = JsonTree::build(&crate::s3_jnl_doc(64, 8));
        let (e, phi) = crate::s3_jnl_workload();
        let strings = exists_regex_edge_strings(&tree, &e);
        for strategy in [
            relex::EdgeStrategy::DfaBitset,
            relex::EdgeStrategy::LazyMemo,
        ] {
            assert_eq!(
                strings,
                jnl::eval::pdl::eval_with(&tree, &phi, strategy).unwrap(),
                "pdl {strategy:?}"
            );
            assert_eq!(
                strings,
                jnl::eval::cubic::eval_with(&tree, &phi, strategy),
                "cubic {strategy:?}"
            );
        }
        // JSL side: the pattern-properties formula over distinct atoms.
        let tree = JsonTree::build(&crate::s3_doc(300));
        let psi = crate::s3_jsl_formula();
        let strings = jsl_eval_strings(&tree, &psi);
        for edge in [
            relex::EdgeStrategy::DfaBitset,
            relex::EdgeStrategy::LazyMemo,
        ] {
            let opts = jsl::EvalOptions {
                edge,
                ..Default::default()
            };
            assert_eq!(
                strings,
                jsl::eval::evaluate_with(&tree, &psi, opts),
                "jsl {edge:?}"
            );
        }
    }
}
