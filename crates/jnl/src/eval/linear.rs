//! The Proposition 1 engine: deterministic JNL in `O(|J|·|φ|)`.
//!
//! In the deterministic fragment every binary formula denotes a *partial
//! function* on nodes (each key/index step has at most one successor — the
//! determinism of JSON trees, §3.2). Evaluation therefore proceeds
//! bottom-up over unary subformulas; for each `[α]`, `EQ(α,A)`, `EQ(α,β)`
//! the path is *walked* from every node in `O(|α|)` steps. Subtree
//! equalities are resolved "online" through the canonical labels of
//! [`jsondata::CanonTable`] in `O(1)` per comparison — the refinement the
//! paper's proof obtains via its monadic-datalog translation (the naive
//! alternative, pre-comparing all node pairs, is the quadratic baseline
//! measured in experiment E1).

use jsondata::{JsonTree, NodeId, Sym};

use crate::ast::{Binary, Unary};
use crate::eval::{EvalContext, EvalError, NodeSet};

/// Evaluates a deterministic JNL formula; errors on non-deterministic or
/// recursive constructs.
pub fn eval(tree: &JsonTree, phi: &Unary) -> Result<NodeSet, EvalError> {
    eval_with_guard(tree, phi, jguard::QueryCtx::unlimited())
}

/// [`eval`] under a governance context: the per-node walk loops poll
/// `guard` and stop with [`EvalError::Interrupted`] when it fails.
pub fn eval_with_guard(
    tree: &JsonTree,
    phi: &Unary,
    guard: jguard::QueryCtx,
) -> Result<NodeSet, EvalError> {
    let mut ctx = EvalContext::with_guard(tree, guard);
    eval_unary(&mut ctx, phi)
}

/// One step of a compiled deterministic path. Key steps carry the tree's
/// interned symbol — resolved once at compile time, so the walk itself does
/// pure `u32` binary searches. `Key(None)` records a key the tree never
/// interned: no edge anywhere can match, and the walk fails immediately.
enum Step {
    Key(Option<Sym>),
    Index(i64),
    /// `⟨φ⟩`: proceed only if the current node is in the set.
    Test(NodeSet),
}

fn eval_unary(ctx: &mut EvalContext<'_>, phi: &Unary) -> Result<NodeSet, EvalError> {
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
        Unary::Exists(alpha) => {
            let steps = compile(ctx, alpha)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                ctx.poll_at(i)?;
                out.push(walk(ctx.tree, &steps, NodeId::from_index(i)).is_some());
            }
            out
        }
        Unary::EqDoc(alpha, doc) => {
            let steps = compile(ctx, alpha)?;
            let target = ctx.class_of_doc(doc);
            let Some(target) = target else {
                // The document does not occur in the tree at all.
                return Ok(vec![false; n]);
            };
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                ctx.poll_at(i)?;
                out.push(
                    walk(ctx.tree, &steps, NodeId::from_index(i))
                        .is_some_and(|m| ctx.canon.class_of(m) == target),
                );
            }
            out
        }
        Unary::EqPair(alpha, beta) => {
            let sa = compile(ctx, alpha)?;
            let sb = compile(ctx, beta)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                ctx.poll_at(i)?;
                let from = NodeId::from_index(i);
                out.push(
                    match (walk(ctx.tree, &sa, from), walk(ctx.tree, &sb, from)) {
                        (Some(x), Some(y)) => ctx.canon.equal(x, y),
                        _ => false,
                    },
                );
            }
            out
        }
    })
}

/// Flattens a deterministic binary formula into a step list, evaluating
/// embedded tests eagerly (each test set is computed once).
fn compile(ctx: &mut EvalContext<'_>, alpha: &Binary) -> Result<Vec<Step>, EvalError> {
    let mut steps = Vec::new();
    flatten(ctx, alpha, &mut steps)?;
    Ok(steps)
}

fn flatten(
    ctx: &mut EvalContext<'_>,
    alpha: &Binary,
    out: &mut Vec<Step>,
) -> Result<(), EvalError> {
    match alpha {
        Binary::Epsilon => {}
        Binary::Key(w) => out.push(Step::Key(ctx.tree.sym(w))),
        Binary::Index(i) => out.push(Step::Index(*i)),
        Binary::Test(phi) => out.push(Step::Test(eval_unary(ctx, phi)?)),
        Binary::Compose(parts) => {
            for p in parts {
                flatten(ctx, p, out)?;
            }
        }
        Binary::KeyRegex(e) => {
            // A singleton regex is deterministic in effect; accept it.
            match e.as_single_word() {
                Some(w) => out.push(Step::Key(ctx.tree.sym(&w))),
                None => return Err(EvalError::NotDeterministic("X_e (regex key step)")),
            }
        }
        Binary::Range(i, Some(j)) if i == j => out.push(Step::Index(*i as i64)),
        Binary::Range(_, _) => return Err(EvalError::NotDeterministic("X_{i:j} (range step)")),
        Binary::Star(_) => return Err(EvalError::NotDeterministic("(α)* (recursion)")),
    }
    Ok(())
}

fn walk(tree: &JsonTree, steps: &[Step], from: NodeId) -> Option<NodeId> {
    let mut cur = from;
    for s in steps {
        match s {
            Step::Key(sym) => cur = tree.child_by_sym(cur, (*sym)?)?,
            Step::Index(i) => cur = tree.child_by_signed_index(cur, *i)?,
            Step::Test(set) => {
                if !set[cur.index()] {
                    return None;
                }
            }
        }
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Binary as B, Unary as U};
    use jsondata::parse;

    fn tree(src: &str) -> JsonTree {
        JsonTree::build(&parse(src).unwrap())
    }

    #[test]
    fn agrees_with_naive_on_deterministic_formulas() {
        let docs = [
            r#"{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}"#,
            r#"{"a":{"b":{"a":{"b":1}}},"c":[{"a":1},{"a":2}]}"#,
            r#"[[1,2],[1,2],[2,1]]"#,
            r#"{}"#,
        ];
        let phis = vec![
            U::exists(B::compose(vec![B::key("name"), B::key("first")])),
            U::eq_doc(B::key("age"), parse("32").unwrap()),
            U::not(U::exists(B::key("age"))),
            U::eq_pair(B::index(0), B::index(1)),
            U::eq_pair(B::index(0), B::index(2)),
            U::and(vec![
                U::exists(B::key("a")),
                U::or(vec![U::exists(B::key("c")), U::exists(B::index(-1))]),
            ]),
            U::exists(B::compose(vec![
                B::test(U::exists(B::key("a"))),
                B::key("a"),
                B::key("b"),
            ])),
            U::eq_doc(
                B::compose(vec![B::key("hobbies"), B::index(-1)]),
                parse("\"yoga\"").unwrap(),
            ),
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
    fn rejects_nondeterministic_constructs() {
        let t = tree("{}");
        assert!(matches!(
            eval(&t, &U::exists(B::any_key())),
            Err(EvalError::NotDeterministic(_))
        ));
        assert!(matches!(
            eval(&t, &U::exists(B::star(B::key("a")))),
            Err(EvalError::NotDeterministic(_))
        ));
        assert!(matches!(
            eval(&t, &U::exists(B::range(0, None))),
            Err(EvalError::NotDeterministic(_))
        ));
    }

    #[test]
    fn accepts_effectively_deterministic_sugar() {
        // Singleton regex and i:i ranges are deterministic in effect.
        let t = tree(r#"{"k": [5, 6]}"#);
        let phi = U::eq_doc(
            B::compose(vec![
                B::key_regex(relex::Regex::literal("k")),
                B::range(1, Some(1)),
            ]),
            parse("6").unwrap(),
        );
        assert!(eval(&t, &phi).unwrap()[0]);
    }

    #[test]
    fn eq_doc_absent_document_is_false_everywhere() {
        let t = tree(r#"{"a": 1}"#);
        let phi = U::eq_doc(B::key("a"), parse("2").unwrap());
        assert!(eval(&t, &phi).unwrap().iter().all(|b| !b));
    }

    #[test]
    fn deep_equality_is_constant_time_per_node() {
        // Both branches carry an identical large subtree: the walk compares
        // one class id, not the whole subtree.
        let big = r#"{"x":[1,2,3,{"y":[4,5,{"z":"deep"}]}]}"#;
        let doc = format!(r#"{{"l":{big},"r":{big}}}"#);
        let t = tree(&doc);
        let phi = U::eq_pair(B::key("l"), B::key("r"));
        assert!(eval(&t, &phi).unwrap()[0]);
    }
}
