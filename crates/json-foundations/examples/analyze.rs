//! Static analysis of an aggregation pipeline against a declared schema.
//!
//! ```sh
//! cargo run -p json-foundations --example analyze
//! ```
//!
//! A collection declares (as a promise) that its documents never carry a
//! `legacy_id` key. The pipeline under review accumulated cruft across
//! refactors: a tautological guard, a filter shadowed by an earlier one,
//! a `$sort` immediately overwritten by a wider one, and a projection of
//! the long-gone `legacy_id`. `jstat` proves each one dead — every lint
//! is backed by a sat/containment verdict, never a heuristic — and the
//! pruning rewrite drops them without changing a single output document.

use json_foundations::agg::{reference, Pipeline};
use json_foundations::mongo::Collection;
use json_foundations::nav::ast::{Binary, Unary};
use json_foundations::schema_logic::{translate::jnl_to_jsl_cps, RecursiveJsl};
use json_foundations::stat::Analyze;

fn main() {
    // The declared schema: "no document has a `legacy_id` key" — written
    // in JNL and carried over to JSL by the paper's Theorem 2
    // translation (the same bridge the analyzer itself uses).
    let no_legacy = Unary::not(Unary::exists(Binary::key("legacy_id")));
    let schema = RecursiveJsl::plain(jnl_to_jsl_cps(&no_legacy).expect("translates"));

    let mut coll = Collection::parse_str(
        r#"[
            {"user": "sue",  "age": 28, "plan": "pro"},
            {"user": "john", "age": 32, "plan": "free"},
            {"user": "ana",  "age": 45, "plan": "pro"},
            {"user": "wei",  "age": 28}
        ]"#,
    )
    .expect("collection parses");
    coll.set_schema(schema).expect("schema is well-formed");

    let pipe = Pipeline::parse_str(
        r#"[
            {"$match": {"$or": [{"plan": {"$exists": "true"}},
                                {"plan": {"$exists": "false"}}]}},
            {"$match": {"plan": "pro"}},
            {"$match": {"plan": {"$exists": "true"}}},
            {"$sort": {"age": 1}},
            {"$sort": {"age": 1, "user": 1}},
            {"$project": {"user": 1, "age": 1, "legacy_id": 1}}
        ]"#,
    )
    .expect("pipeline parses");

    let report = pipe.analyze(coll.schema());
    println!("analysis of a {}-stage pipeline:\n", pipe.stages.len());
    for d in &report.diagnostics {
        println!("  {d}");
    }

    let pruned = pipe.prune(&report);
    println!(
        "\npruned: {} stages -> {} stages",
        pipe.stages.len(),
        pruned.stages.len()
    );

    // The rewrite is semantics-preserving: identical output documents.
    let docs = coll.docs();
    let before = reference::aggregate(&docs, &pipe);
    let after = reference::aggregate(&docs, &pruned);
    assert_eq!(before, after, "prune must not change the output");
    println!("output identical on {} result documents:", after.len());
    for doc in &after {
        println!("  {doc}");
    }
}
