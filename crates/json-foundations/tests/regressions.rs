//! Regression tests for bugs found (and fixed) during development — each
//! case pins behaviour that once diverged.

use jnl::ast::{Binary as B, Unary as U};
use jsl::ast::{Jsl as J, NodeTest as T};
use json_foundations::prelude::*;

/// `EQ(α, β)` identifying a node with its own descendant used to send the
/// pattern-tree unifier into rational-tree divergence; it must terminate
/// and report UNSAT (no finite tree equals a strict subtree of itself).
#[test]
fn eq_pair_with_ancestor_terminates_unsat() {
    let phi = jnl::parse_unary(r#"eqpair(@1 ; @0 ; @"b", @1)"#).unwrap();
    assert_eq!(jnl::sat_deterministic(&phi), jnl::SatResult::Unsat);
    // The reflexive case is satisfiable (same path on both sides).
    let refl = jnl::parse_unary(r#"eqpair(@"a", @"a")"#).unwrap();
    assert!(jnl::sat_deterministic(&refl).is_sat());
    // Mutually-entangled equations across siblings still terminate.
    let tangled = U::and(vec![
        U::eq_pair(B::key("l"), B::compose(vec![B::key("r"), B::key("x")])),
        U::eq_pair(B::key("r"), B::compose(vec![B::key("l"), B::key("x")])),
    ]);
    let result = jnl::sat_deterministic(&tangled);
    // Terminates with a definite or honest answer; a witness, if any,
    // must verify.
    if let jnl::SatResult::Sat(w) = &result {
        let t = JsonTree::build(w);
        assert!(jnl::eval::check_root(&t, &tangled));
    }
}

/// Tautological QBF clauses (x ∨ ¬x) once produced a bogus "falsifying
/// path" constraint that flipped verdicts.
#[test]
fn qbf_tautological_clauses_are_no_constraints() {
    use jsl::reduce::qbf::{Qbf, Quant};
    let q = Qbf {
        prefix: vec![Quant::Forall],
        clauses: vec![vec![(0, true), (0, false)]],
    };
    assert!(q.brute_force());
    assert_eq!(q.solve_via_jsl(), Some(true));
}

/// `EQ(α, β)`-merged pattern nodes must concretise identically — fresh
/// leaves included (the witness for `eqpair(@"l", @"r")` was once
/// `{"l": "#fresh1", "r": "#fresh2"}`).
#[test]
fn merged_nodes_concretise_identically() {
    let phi = jnl::parse_unary(r#"eqpair(@"l", @"r")"#).unwrap();
    match jnl::sat_deterministic(&phi) {
        jnl::SatResult::Sat(w) => assert_eq!(w.get("l"), w.get("r"), "witness {w}"),
        other => panic!("expected Sat, got {other:?}"),
    }
}

/// ¬Min(i) must not leak a positive `Min`-style kind constraint onto
/// non-number nodes: an object satisfies ¬Min(3) vacuously.
#[test]
fn negated_numeric_tests_do_not_constrain_other_kinds() {
    let phi = J::and(vec![J::Test(T::Obj), J::not(J::Test(T::Min(3)))]);
    match jsl::sat_jsl(&phi) {
        jsl::JslSatResult::Sat(w) => assert!(w.is_object()),
        other => panic!("expected Sat, got {other:?}"),
    }
    // And for numbers it must bite: Int ∧ ¬Min(0) is unsatisfiable over ℕ.
    let phi = J::and(vec![J::Test(T::Int), J::not(J::Test(T::Min(0)))]);
    assert!(jsl::sat_jsl(&phi).is_unsat());
}

/// The naive `Unique` baseline must not short-circuit its complexity away
/// on all-distinct arrays, and both strategies must agree near collisions
/// of different kinds (`1` vs `"1"` vs `[1]`).
#[test]
fn unique_strategies_agree_on_lookalikes() {
    use jsl::{EvalOptions, UniqueStrategy};
    let phi = J::Test(T::Unique);
    for src in [
        r#"[1, "1", [1], {"1": 1}]"#,
        r#"[[1], [1]]"#,
        r#"[{"a":1},{"a":1}]"#,
    ] {
        let tree = JsonTree::build(&parse(src).unwrap());
        let a = jsl::eval::evaluate_with(
            &tree,
            &phi,
            EvalOptions {
                unique: UniqueStrategy::NaivePairwise,
            },
        );
        let b = jsl::eval::evaluate_with(
            &tree,
            &phi,
            EvalOptions {
                unique: UniqueStrategy::Canonical,
            },
        );
        assert_eq!(a, b, "doc {src}");
    }
}

/// A JSONPath `*` is not a single JNL binary formula (no union in
/// Definition 1); the branch compilation must still agree with direct
/// selection on mixed object/array levels.
#[test]
fn jsonpath_wildcard_branches_cover_both_axes() {
    let doc = parse(r#"{"o": {"k": 1}, "a": [2, 3]}"#).unwrap();
    let tree = JsonTree::build(&doc);
    let p = jsonpath::JsonPath::parse("$.*.*").unwrap();
    assert_eq!(p.to_jnl_branches().len(), 4, "2 wildcards → 4 branches");
    let mut direct = p.select_nodes(&tree);
    let mut via = p.select_nodes_via_jnl(&tree);
    direct.sort();
    via.sort();
    assert_eq!(direct, via);
    assert_eq!(direct.len(), 3); // 1, 2, 3
}

/// The rank preprocessing for huge indices must not be applied under EQ
/// operators (it would desynchronise embedded documents): the solver
/// reports Unknown rather than a wrong verdict.
#[test]
fn rank_preprocessing_refuses_equality_mixes() {
    let phi = U::and(vec![
        U::exists(B::compose(vec![B::key("a"), B::index(1_000_000)])),
        U::eq_doc(B::key("a"), parse("[1,2,3]").unwrap()),
    ]);
    match jnl::sat_deterministic(&phi) {
        jnl::SatResult::Unknown(_) => {}
        jnl::SatResult::Unsat => {} // also sound (the doc has no index 10^6)
        jnl::SatResult::Sat(w) => panic!("cannot be satisfiable: {w}"),
    }
}

/// Deterministic-looking sugar (singleton regexes, `i:i` ranges) must be
/// accepted by the linear engine, not misrouted.
#[test]
fn effectively_deterministic_sugar_stays_linear() {
    let doc = parse(r#"{"k": [5, 6]}"#).unwrap();
    let tree = JsonTree::build(&doc);
    let phi = U::eq_doc(
        B::compose(vec![
            B::key_regex(relex::Regex::literal("k")),
            B::range(1, Some(1)),
        ]),
        parse("6").unwrap(),
    );
    assert!(jnl::eval::linear::eval(&tree, &phi).unwrap()[0]);
}

/// Streaming and tree evaluation agreed only after `□`-vacuity on
/// mismatched kinds was handled (box-over-keys at an array node is true).
#[test]
fn streaming_box_vacuity() {
    use jsl::streaming::{events_of, validate_stream};
    let phi = J::box_any_key(J::falsity());
    for src in ["[1, 2]", "\"s\"", "7", "{}"] {
        let doc = parse(src).unwrap();
        let tree = JsonTree::build(&doc);
        assert_eq!(
            validate_stream(&phi, events_of(&doc)).unwrap(),
            jsl::eval::check_root(&tree, &phi),
            "doc {src}"
        );
    }
    // {} has a key-child... no: {} has none, but {"k":1} does.
    let doc = parse(r#"{"k": 1}"#).unwrap();
    assert!(!validate_stream(&phi, events_of(&doc)).unwrap());
}

/// Empty-schema and empty-formula degenerate cases across the stack.
#[test]
fn degenerate_cases() {
    // Empty schema accepts everything, as does ⊤ everywhere.
    let schema = jschema::Schema::parse_str("{}").unwrap();
    let delta = jschema::schema_to_jsl(&schema).unwrap();
    for src in ["0", "{}", "[]", r#""""#] {
        let doc = parse(src).unwrap();
        assert!(jschema::is_valid(&schema, &doc).unwrap());
        assert!(delta.check_root(&JsonTree::build(&doc)));
    }
    // ⊥ is unsatisfiable in every engine.
    assert!(jnl::sat_deterministic(&U::not(U::True)).is_unsat());
    assert!(jsl::sat_jsl(&J::falsity()).is_unsat());
    // The empty JSONPath selects the root.
    let doc = parse("{}").unwrap();
    assert_eq!(
        jsonpath::JsonPath::parse("$").unwrap().select(&doc),
        vec![doc]
    );
}

/// The fused parser's duplicate-key probe must stay near-linear on wide
/// objects (the `Sym`-pair hash probe, mirroring the O(n²)→O(n) fix the
/// value parser got): a 50k-key object parses straight to a tree in one
/// pass, and a duplicate appended at the end is still rejected at the
/// position of the second occurrence — identically by both paths.
#[test]
fn fused_wide_object_duplicate_check_is_near_linear() {
    let n = 50_000usize;
    let mut src = String::with_capacity(n * 12);
    src.push('{');
    for i in 0..n {
        if i > 0 {
            src.push(',');
        }
        src.push_str(&format!("\"key{i}\":{i}"));
    }
    src.push('}');
    let tree = jsondata::parse_to_tree(&src).unwrap();
    assert_eq!(tree.child_count(tree.root()), n);
    assert_eq!(tree.node_count(), n + 1);
    // Keys are interned once each and spans are symbol-sorted.
    assert_eq!(tree.interner().len(), n);
    assert!(tree.obj_syms(tree.root()).windows(2).all(|w| w[0] < w[1]));
    // One duplicate appended: rejected with the second occurrence's
    // position, identically to the value parser.
    let dup = format!("{}, \"key0\": 0}}", &src[..src.len() - 1]);
    let e_fused = jsondata::parse_to_tree(&dup).unwrap_err();
    let e_value = parse(&dup).unwrap_err();
    assert_eq!(e_fused, e_value);
    assert_eq!(e_fused.position.offset, dup.len() - 10);
}
