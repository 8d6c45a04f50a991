//! Aggregation pipelines over a collection — the MongoDB fragment
//! formalised in Botoeva–Corman–Townsend, *"Towards a Standard for JSON
//! Document Databases"*, executed natively on the collection's tree column
//! by the `jagg` engine (rows are tree cursors + `$unwind` overlay
//! bindings; documents materialise only at pipeline output).
//!
//! ```sh
//! cargo run --example aggregate
//! ```

use json_foundations::agg::{aggregate, reference, Pipeline};
use json_foundations::mongo::Collection;
use jsondata::gen::person_records;

fn main() {
    // Load 10k person records through the fused parser: one pass lexes,
    // interns and builds the persistent tree column the pipelines below
    // run against.
    let text = jsondata::serialize::to_string(&person_records(10_000, 42));
    let mut coll = Collection::parse_str(&text).expect("collection parses");
    println!(
        "collection: {} documents ({} tree nodes, {} interned symbols)\n",
        coll.len(),
        coll.segments()[0].node_count(),
        coll.interner().len()
    );

    // Selection → unnest → grouping → sorting: which hobbies do the 40+
    // crowd actually have, and how old are their practitioners?
    // (Match_φ ∘ Unwind_p ∘ Group_{g;α} ∘ Sort_ω in the report's algebra.)
    let pipe = Pipeline::parse_str(
        r#"[
            {"$match":  {"age": {"$gte": 40}}},
            {"$unwind": "$hobbies"},
            {"$group":  {"_id": "$hobbies",
                         "n": {"$count": {}},
                         "avg_age": {"$avg": "$age"},
                         "youngest": {"$min": "$age"},
                         "oldest": {"$max": "$age"}}},
            {"$sort":   {"n": 0, "_id": 1}}
        ]"#,
    )
    .unwrap();
    println!("hobby demographics of the 40+ crowd:");
    for doc in aggregate(&coll, &pipe) {
        println!("  {doc}");
    }

    // The naive value-based reference executor defines the semantics; the
    // tree executor must agree output-for-output (CI-gated by harness s5).
    assert_eq!(
        aggregate(&coll, &pipe),
        reference::aggregate(&coll.docs(), &pipe),
        "executors agree by construction"
    );
    println!("  (value-based reference executor agrees)\n");

    // Projection + pagination: the five oldest Sues, name and age only.
    let top = Pipeline::parse_str(
        r#"[
            {"$match":   {"name.first": "Sue"}},
            {"$project": {"name.first": 1, "age": 1}},
            {"$sort":    {"age": 0}},
            {"$limit":   5}
        ]"#,
    )
    .unwrap();
    println!("five oldest Sues:");
    for doc in aggregate(&coll, &top) {
        println!("  {doc}");
    }

    // Incremental insert appends a segment to the tree column through the
    // collection's shared interner; pipelines see the document at once.
    coll.insert_str(
        r#"{"name": {"first": "Sue", "last": "Zenith"}, "age": 99, "hobbies": ["chess"]}"#,
    )
    .unwrap();
    let count =
        Pipeline::parse_str(r#"[{"$match": {"age": {"$gte": 99}}}, {"$count": "sues_99"}]"#)
            .unwrap();
    println!("\nafter insert: {:?}", aggregate(&coll, &count));
}
