//! The Proposition 3 engine (equality-free case): non-deterministic,
//! recursive JNL in `O(|J|·|φ|)` via PDL-style model checking.
//!
//! For every `[α]` / `EQ(α, A)` the binary formula is compiled into a path
//! NFA ([`super::pathnfa`]) and the set `pre_α(T)` — the nodes from which
//! some `α`-path reaches the target set `T` — is computed by a *backward*
//! BFS over the product of the tree and the NFA. Each product vertex
//! `(node, state)` is visited at most once, and regex edge labels are
//! pre-resolved to context matchers at NFA compile time (a precomputed
//! symbol bitset), so every edge check is `O(1)` — a vector index plus a
//! bit load — and the whole pass is linear in `|J| · |α|`.
//!
//! `EQ(α, β)` is rejected here — the paper shows it forces comparing pairs
//! of nodes ([`super::cubic`] implements that case).

use jsondata::NodeId;

use crate::ast::{Binary, Unary};
use crate::eval::pathnfa::{PathLabel, PathNfa};
use crate::eval::{EvalContext, EvalError, NodeSet};

/// Evaluates an `EQ(α,β)`-free JNL formula (non-determinism and recursion
/// allowed).
pub fn eval(tree: &jsondata::JsonTree, phi: &Unary) -> Result<NodeSet, EvalError> {
    let mut ctx = EvalContext::new(tree);
    eval_unary(&mut ctx, phi)
}

pub(crate) fn eval_unary(ctx: &mut EvalContext<'_>, phi: &Unary) -> Result<NodeSet, EvalError> {
    let n = ctx.tree.node_count();
    Ok(match phi {
        Unary::True => vec![true; n],
        Unary::Not(p) => {
            let mut s = eval_unary(ctx, p)?;
            for b in &mut s {
                *b = !*b;
            }
            s
        }
        Unary::And(ps) => {
            let mut acc = vec![true; n];
            for p in ps {
                let s = eval_unary(ctx, p)?;
                for (a, b) in acc.iter_mut().zip(s) {
                    *a &= b;
                }
            }
            acc
        }
        Unary::Or(ps) => {
            let mut acc = vec![false; n];
            for p in ps {
                let s = eval_unary(ctx, p)?;
                for (a, b) in acc.iter_mut().zip(s) {
                    *a |= b;
                }
            }
            acc
        }
        Unary::Exists(alpha) => pre(ctx, alpha, &vec![true; n])?,
        Unary::EqDoc(alpha, doc) => {
            let mut target = vec![false; n];
            if let Some(class) = ctx.class_of_doc(doc) {
                for (i, t) in target.iter_mut().enumerate() {
                    *t = ctx.canon.class_of(NodeId::from_index(i)) == class;
                }
            }
            pre(ctx, alpha, &target)?
        }
        Unary::EqPair(_, _) => return Err(EvalError::EqPairUnsupported),
    })
}

/// `pre_α(T)`: nodes from which some `α`-path ends in `T`.
fn pre(ctx: &mut EvalContext<'_>, alpha: &Binary, target: &NodeSet) -> Result<NodeSet, EvalError> {
    let (nfa, tests) = PathNfa::compile(ctx, alpha, &mut eval_unary)?;
    let tree = ctx.tree;
    let n = tree.node_count();
    let states = nfa.n_states;
    let rev = nfa.reverse_adjacency();

    // visited[(node, state)]: the configuration can reach (m, accept), m∈T.
    let mut visited = vec![false; n * states];
    let mut work: Vec<(u32, u32)> = Vec::new();
    for (i, &t) in target.iter().enumerate() {
        if t {
            visited[i * states + nfa.accept] = true;
            work.push((i as u32, nfa.accept as u32));
        }
    }

    while let Some((node_u, state_u)) = work.pop() {
        let node = NodeId::from_index(node_u as usize);
        for &(from_state, label) in &rev[state_u as usize] {
            // A transition (from_state, label, state_u): find predecessor
            // tree configurations (pred_node, from_state).
            let pred_node = match label {
                PathLabel::Eps => Some(node),
                PathLabel::Test(ti) => tests[*ti][node.index()].then_some(node),
                PathLabel::Word(sym) => match (sym, tree.incoming_key_sym(node)) {
                    (Some(w), Some(k)) if *w == k => tree.parent(node),
                    _ => None,
                },
                PathLabel::Re(id) => match tree.incoming_key_sym(node) {
                    Some(k) => {
                        if ctx.matcher(*id).matches_sym(k.index(), || tree.resolve(k)) {
                            tree.parent(node)
                        } else {
                            None
                        }
                    }
                    None => None,
                },
                PathLabel::Index(i) => match tree.parent(node) {
                    Some(p) if tree.child_by_signed_index(p, *i) == Some(node) => Some(p),
                    _ => None,
                },
                PathLabel::Range(i, j) => match ctx.incoming_index(node) {
                    Some(pos) if pos >= *i && j.is_none_or(|j| pos <= j) => tree.parent(node),
                    _ => None,
                },
            };
            if let Some(p) = pred_node {
                let slot = p.index() * states + from_state;
                if !visited[slot] {
                    visited[slot] = true;
                    work.push((p.index() as u32, from_state as u32));
                }
            }
        }
    }

    Ok((0..n).map(|i| visited[i * states + nfa.start]).collect())
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
    fn agrees_with_naive_on_nondeterministic_formulas() {
        let docs = [
            r#"{"aba": {"x": 1}, "aca": {"x": 2}, "zzz": {"x": 3}}"#,
            r#"{"a": {"a": {"a": {"leaf": 7}}}, "b": [1, [2, [3, [4]]]]}"#,
            r#"[[0, 1], [2, 3], {"k": [4]}]"#,
            r#"{"deep": {"deep": {"deep": "end"}}}"#,
        ];
        let e = Regex::parse("a(b|c)a").unwrap();
        let phis = vec![
            U::exists(B::key_regex(e.clone())),
            U::exists(B::compose(vec![B::key_regex(e), B::key("x")])),
            U::eq_doc(B::star(B::any_key()), parse("7").unwrap()),
            U::eq_doc(
                B::star(B::compose(vec![B::any_key()])),
                parse(r#"{"leaf": 7}"#).unwrap(),
            ),
            U::exists(B::compose(vec![B::range(1, None), B::range(0, Some(0))])),
            U::not(U::exists(B::star(B::any_index()))),
            U::exists(B::star(B::compose(vec![
                B::any_index(),
                B::test(U::exists(B::any_index())),
            ]))),
            U::or(vec![
                U::eq_doc(B::star(B::any_index()), parse("4").unwrap()),
                U::eq_doc(B::star(B::any_key()), parse("\"end\"").unwrap()),
            ]),
        ];
        for src in docs {
            let t = tree(src);
            for phi in &phis {
                let fast = eval(&t, phi).unwrap();
                let slow = crate::eval::naive::eval(&t, phi);
                assert_eq!(fast, slow, "doc {src}, formula {phi}");
            }
        }
    }

    #[test]
    fn rejects_eq_pair() {
        let t = tree("{}");
        assert_eq!(
            eval(&t, &U::eq_pair(B::Epsilon, B::Epsilon)),
            Err(EvalError::EqPairUnsupported)
        );
    }

    #[test]
    fn descendant_axis() {
        // (X_{Σ*} ∪ X_{0:∞})* expressed as ((X_{Σ*})* ∘ (X_{0:∞})*)* —
        // any-descendant through both objects and arrays.
        let any_child_star = B::star(B::compose(vec![
            B::star(B::any_key()),
            B::star(B::any_index()),
        ]));
        let t = tree(r#"{"a": [{"b": [0, {"c": "needle"}]}]}"#);
        let phi = U::eq_doc(any_child_star, parse("\"needle\"").unwrap());
        let res = eval(&t, &phi).unwrap();
        assert!(res[0], "root reaches the needle");
        let slow = crate::eval::naive::eval(&t, &phi);
        assert_eq!(res, slow);
    }

    #[test]
    fn even_depth_paths() {
        // Nodes from which some path of even length ≥ 2 reaches a leaf 1.
        let two_steps = B::compose(vec![B::any_key(), B::any_key()]);
        let phi = U::eq_doc(B::star(two_steps), parse("1").unwrap());
        let t = tree(r#"{"a": {"b": 1}, "c": 1}"#);
        let res = eval(&t, &phi).unwrap();
        assert!(res[0], "two steps a.b reach 1");
        let slow = crate::eval::naive::eval(&t, &phi);
        assert_eq!(res, slow);
    }
}
