//! The paper's §4.1 MongoDB scenario: `db.collection.find(filter,
//! projection)` over a collection of person records (Example 1), evaluated
//! both natively and through the JNL compilation.
//!
//! ```sh
//! cargo run --example mongo_collection
//! ```

use json_foundations::agg;
use json_foundations::guard::QueryCtx;
use json_foundations::mongo::{Collection, Filter, Projection};
use jsondata::gen::person_records;

fn main() {
    // Load the collection from text through the fused parser: one pass
    // lexes, interns and builds the persistent tree column every query
    // below runs against (no intermediate value tree).
    let text = jsondata::serialize::to_string(&person_records(10_000, 42));
    let coll = Collection::parse_str(&text).expect("array collection");
    println!(
        "collection: {} documents ({} tree nodes, {} interned symbols)\n",
        coll.len(),
        coll.segments()[0].node_count(),
        coll.interner().len()
    );

    // The paper's Example 1: find the person named Sue.
    let filter = Filter::parse_str(r#"{"name.first": {"$eq": "Sue"}}"#).unwrap();
    let sues = coll.find(&filter);
    println!(
        "find({{name.first: {{$eq: \"Sue\"}}}})     → {} documents",
        sues.len()
    );
    println!("  compiled JNL filter: {}", filter.to_jnl());

    // The JNL engine answers identically (one Prop 1 evaluation per
    // segment answers every document at once).
    let via_jnl: Vec<_> = coll
        .find_refs_via_jnl_with_ctx(&filter, &QueryCtx::unlimited())
        .expect("an unlimited evaluation never trips")
        .into_iter()
        .map(|d| coll.json_of(d))
        .collect();
    assert_eq!(sues, via_jnl);
    println!("  JNL engine agrees on all documents\n");

    // Richer filters.
    let seniors =
        Filter::parse_str(r#"{"$and": [{"age": {"$gte": 65}}, {"hobbies": {"$size": 2}}]}"#)
            .unwrap();
    println!(
        "seniors with two hobbies              → {}",
        coll.find(&seniors).len()
    );

    let any =
        Filter::parse_str(r#"{"$or": [{"hobbies.0": "chess"}, {"hobbies.1": "chess"}]}"#).unwrap();
    println!(
        "chess in the first two hobby slots    → {}",
        coll.find(&any).len()
    );

    // Projection (§6 future work): keep only name.first and age. A
    // projected find is the pipeline [{"$match": filter}, {"$project": …}].
    let projection = Projection::parse_str(r#"{"name.first": 1, "age": 1}"#).unwrap();
    let preview = agg::aggregate(&coll, &agg::Pipeline::find(filter, projection));
    println!("\nprojected sample:");
    for doc in preview.iter().take(3) {
        println!("  {doc}");
    }
}
