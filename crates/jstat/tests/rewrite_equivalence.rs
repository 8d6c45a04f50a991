//! The rewrite-equivalence property suite: the empirical half of the
//! analyzer's soundness contract.
//!
//! Seeded random pipelines (drawn from a pool deliberately salted with
//! lint-triggering constructs — unsatisfiable and tautological filters,
//! shadowing matches, schema-dead paths, degenerate `$skip`/`$limit`
//! combinations, consecutive `$sort`s) run over seeded random
//! collections that conform to the declared schema. For every pair:
//!
//! 1. `prune(analyze(..))` must be **output-identical** to the original
//!    through both executors — the value-based `jagg::reference` oracle
//!    *and* the tree-backed `jagg::aggregate`;
//! 2. every `EmptyResult` diagnostic must be empirically dead: the
//!    pipeline prefix up to and including the flagged stage really
//!    produces zero rows;
//! 3. the sweep must actually exercise the rewrites (a healthy fraction
//!    of generated pipelines is flagged) — a vacuously-clean corpus
//!    would pin nothing.

use jagg::pipeline::Stage;
use jagg::{reference, Pipeline};
use jnl::ast::{Binary, Unary};
use jsl::translate::jnl_to_jsl_cps;
use jsl::RecursiveJsl;
use jsondata::{JStr, Json};
use jstat::{Action, Analyze};
use mongofind::Collection;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The declared schema: the key `"q"` never exists (at the root). Built
/// through the same Theorem 2 translation the analyzer itself uses.
fn no_key_q_schema() -> RecursiveJsl {
    let phi = Unary::not(Unary::exists(Binary::key("q")));
    RecursiveJsl::plain(jnl_to_jsl_cps(&phi).expect("translates"))
}

/// Stage pool. Duplicated entries weight the draw toward combinations
/// that make lints fire when stages land next to each other.
const STAGES: [&str; 26] = [
    r#"{"$match": {"k": 1}}"#,
    r#"{"$match": {"k": 2}}"#,
    r#"{"$match": {"k": {"$exists": "true"}}}"#,
    r#"{"$match": {"k": {"$exists": "true"}}}"#,
    r#"{"$match": {"$and": [{"k": 1}, {"k": 2}]}}"#,
    r#"{"$match": {"$or": [{"x": {"$exists": "true"}}, {"x": {"$exists": "false"}}]}}"#,
    r#"{"$match": {"q": 1}}"#,
    r#"{"$match": {"q": {"$exists": "true"}}}"#,
    r#"{"$match": {"n": {"$gte": 2}}}"#,
    r#"{"$project": {"k": 1, "x": 1}}"#,
    r#"{"$project": {"v": "$k", "qq": "$q"}}"#,
    r#"{"$project": {"k": 1, "q": 1, "arr": 1}}"#,
    r#"{"$unwind": "$arr"}"#,
    r#"{"$unwind": "$q"}"#,
    r#"{"$group": {"_id": "$k", "n": {"$count": {}}, "s": {"$sum": "$n"}}}"#,
    r#"{"$sort": {"k": 1}}"#,
    r#"{"$sort": {"k": 1}}"#,
    r#"{"$sort": {"k": 1, "x": 0}}"#,
    r#"{"$sort": {"x": 0}}"#,
    r#"{"$sort": {"q": 1, "k": 1}}"#,
    r#"{"$skip": 1}"#,
    r#"{"$skip": 3}"#,
    r#"{"$limit": 2}"#,
    r#"{"$limit": 0}"#,
    r#"{"$limit": 4}"#,
    r#"{"$count": "n"}"#,
];

fn random_pipeline(rng: &mut StdRng) -> Pipeline {
    let n = rng.gen_range(1..=5usize);
    let stages: Vec<&str> = (0..n)
        .map(|_| STAGES[rng.gen_range(0..STAGES.len())])
        .collect();
    Pipeline::parse_str(&format!("[{}]", stages.join(", "))).expect("pool stages parse")
}

/// A schema-conforming random document: draws from the keys the stage
/// pool navigates — never `"q"`.
fn random_doc(rng: &mut StdRng) -> Json {
    let mut pairs: Vec<(JStr, Json)> = Vec::new();
    if rng.gen_bool(0.8) {
        pairs.push(("k".into(), Json::Num(rng.gen_range(0..4u64))));
    }
    if rng.gen_bool(0.5) {
        pairs.push(("x".into(), Json::Num(rng.gen_range(0..3u64))));
    }
    if rng.gen_bool(0.5) {
        pairs.push(("n".into(), Json::Num(rng.gen_range(0..5u64))));
    }
    if rng.gen_bool(0.6) {
        let len = rng.gen_range(0..3usize);
        let items = (0..len).map(|i| Json::Num(i as u64)).collect();
        pairs.push(("arr".into(), Json::Array(items)));
    }
    if rng.gen_bool(0.3) {
        pairs.push((
            "name".into(),
            Json::object(vec![("first".into(), Json::str("Sue"))]).expect("distinct keys"),
        ));
    }
    Json::object(pairs).expect("distinct keys")
}

fn random_collection(rng: &mut StdRng) -> (Collection, Vec<Json>) {
    let n = rng.gen_range(0..=12usize);
    let docs: Vec<Json> = (0..n).map(|_| random_doc(rng)).collect();
    let coll = Collection::parse_str(&Json::Array(docs.clone()).to_string()).expect("round-trips");
    (coll, docs)
}

#[test]
fn pruned_pipelines_are_output_identical_on_generated_corpora() {
    let schema = no_key_q_schema();
    let mut rng = StdRng::seed_from_u64(0x6a737461);
    let mut flagged = 0usize;
    let mut rewritten = 0usize;
    const ROUNDS: usize = 300;

    for round in 0..ROUNDS {
        let pipe = random_pipeline(&mut rng);
        let (coll, docs) = random_collection(&mut rng);

        // Alternate between schema-aware and schema-free analysis so
        // both J004 and the schema-free lints are crossed with the same
        // pipeline distribution.
        let schema_ref = if round % 2 == 0 { Some(&schema) } else { None };
        let report = pipe.analyze(schema_ref);
        if !report.is_clean() {
            flagged += 1;
        }
        let pruned = pipe.prune(&report);
        if report.has_rewrite() {
            rewritten += 1;
        }

        // (1) output-identical through the value oracle…
        let want = reference::aggregate(&docs, &pipe);
        let got = reference::aggregate(&docs, &pruned);
        assert_eq!(
            want, got,
            "round {round}: prune changed reference output\n  pipeline: {:?}\n  report: {report}",
            pipe.stages
        );
        // …and through the tree executor.
        let want_tree = jagg::aggregate(&coll, &pipe);
        let got_tree = jagg::aggregate(&coll, &pruned);
        assert_eq!(
            want_tree, got_tree,
            "round {round}: prune changed tree-executor output\n  pipeline: {:?}\n  report: {report}",
            pipe.stages
        );
        // Executor agreement (belt and braces; pinned by jagg's own
        // differential suite too).
        assert_eq!(want, want_tree, "round {round}: executors disagree");

        // (2) every EmptyResult diagnostic is empirically dead.
        for d in &report.diagnostics {
            if matches!(d.action, Action::EmptyResult) {
                let prefix = Pipeline {
                    stages: pipe.stages[..=d.stage].to_vec(),
                };
                assert!(
                    reference::aggregate(&docs, &prefix).is_empty(),
                    "round {round}: stage {} flagged EmptyResult but produces rows\n  {d}",
                    d.stage
                );
            }
        }
    }

    // (3) the sweep is not vacuous.
    assert!(
        flagged * 2 >= ROUNDS,
        "only {flagged}/{ROUNDS} pipelines flagged — the pool no longer exercises the lints"
    );
    assert!(
        rewritten * 4 >= ROUNDS,
        "only {rewritten}/{ROUNDS} pipelines rewritten — the pool no longer exercises prune"
    );
}

#[test]
fn delete_and_replace_rewrites_shrink_but_preserve_row_counts() {
    // Focused determinism check: a pipeline hitting J002 + J003 + J005
    // at once prunes to a strictly smaller stage list with identical
    // output on a hand-written collection.
    let pipe = Pipeline::parse_str(
        r#"[
            {"$match": {"$or": [{"k": {"$exists": "true"}}, {"k": {"$exists": "false"}}]}},
            {"$match": {"k": 3}},
            {"$match": {"k": {"$exists": "true"}}},
            {"$sort": {"k": 1}},
            {"$sort": {"k": 1, "x": 0}}
        ]"#,
    )
    .unwrap();
    let report = pipe.analyze(None);
    let pruned = pipe.prune(&report);
    assert!(
        pruned.stages.len() < pipe.stages.len(),
        "expected a shrink, report: {report}"
    );
    // The tautology, the shadowed match and the overwritten sort are all
    // gone; the real filter and the final sort remain.
    assert_eq!(pruned.stages.len(), 2);
    assert!(matches!(pruned.stages[0], Stage::Match(_)));
    assert!(matches!(pruned.stages[1], Stage::Sort(_)));

    let docs: Vec<Json> = (0..8)
        .map(|i| {
            Json::object(vec![
                ("k".into(), Json::Num(i % 4)),
                ("x".into(), Json::Num(7 - i)),
            ])
            .expect("distinct keys")
        })
        .collect();
    assert_eq!(
        reference::aggregate(&docs, &pipe),
        reference::aggregate(&docs, &pruned)
    );
}
