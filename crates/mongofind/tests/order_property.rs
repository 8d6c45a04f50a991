//! Order-agreement property suite: the three implementations of the
//! dialect's total order must agree *exactly* before the sorted index
//! column may rely on any of them.
//!
//! * [`Json::total_cmp`] — value against value (the specification);
//! * [`mongofind::cmp_node_json`] — tree node against external value
//!   (what range probes binary-search with);
//! * [`mongofind::cmp_nodes`] — node against node, of one tree (what the
//!   sorted column is built with) or of two (what `$group`'s `$min`/`$max`
//!   compare their handles with across segments).
//!
//! Any disagreement is an index-order bug: a column sorted by one
//! comparator but probed by another returns wrong ranges silently. The
//! audited edges: cross-kind rank boundaries (numbers < strings < arrays
//! < objects), object key order (string-sorted, *not* interning-order —
//! the classic trap, pinned by interning keys in adversarial order),
//! array prefixes, unicode strings, empty containers, and `u64` extremes.
//! This fragment has no floats (`Json::Num(u64)` only), so there is no
//! int/float edge to audit; the rank table is the cross-kind story.

use std::cmp::Ordering;

use jsondata::{gen, parse, Json, JsonTree};
use mongofind::{cmp_node_json, cmp_nodes};

/// Asserts all three comparators agree on `a` vs `b`.
fn assert_agree(a: &Json, b: &Json) {
    let spec = a.total_cmp(b);
    // Node-vs-value: build a tree holding both, compare each side's node
    // against the *other* side's value.
    let tree = JsonTree::build(&Json::Array(vec![a.clone(), b.clone()]));
    let kids = tree.arr_children(tree.root());
    let (na, nb) = (kids[0], kids[1]);
    assert_eq!(
        cmp_node_json(&tree, na, b),
        spec,
        "cmp_node_json(a, b) vs total_cmp: {a} <> {b}"
    );
    assert_eq!(
        cmp_node_json(&tree, nb, a),
        spec.reverse(),
        "cmp_node_json(b, a) vs total_cmp reversed: {a} <> {b}"
    );
    // Node-vs-node within the same tree.
    assert_eq!(
        cmp_nodes(&tree, na, &tree, nb),
        spec,
        "cmp_nodes: {a} <> {b}"
    );
    assert_eq!(
        cmp_nodes(&tree, nb, &tree, na),
        spec.reverse(),
        "cmp_nodes reversed: {a} <> {b}"
    );
    // Reflexivity of each side against itself.
    assert_eq!(cmp_nodes(&tree, na, &tree, na), Ordering::Equal);
    assert_eq!(cmp_node_json(&tree, nb, b), Ordering::Equal);
}

/// Hand-picked values crossing every rank boundary and known edge.
fn edge_corpus() -> Vec<Json> {
    [
        "0",
        "1",
        "28",
        "18446744073709551615", // u64::MAX
        r#""""#,
        r#""0""#, // the string "0" vs the number 0: rank boundary
        r#""a""#,
        r#""Z""#,
        r#""Zürich""#,
        r#""zürich""#,
        r#""北京""#,
        r#""ø""#,
        "[]",
        "[1]",
        "[1, 2]",
        "[1, 2, 3]", // array prefix chain
        "[2]",
        r#"[1, "a"]"#,
        "[[]]",
        "[[1]]",
        "{}",
        r#"{"a": 1}"#,
        r#"{"a": 2}"#,
        r#"{"b": 1}"#,
        r#"{"a": 1, "b": 2}"#,
        r#"{"b": 2, "a": 1}"#, // same map, reversed source order
        r#"{"à": 1}"#,
        r#"{"a": {"b": []}}"#,
    ]
    .iter()
    .map(|s| parse(s).expect("edge corpus parses"))
    .collect()
}

#[test]
fn comparators_agree_on_edge_corpus_pairs() {
    let corpus = edge_corpus();
    for a in &corpus {
        for b in &corpus {
            assert_agree(a, b);
        }
    }
}

#[test]
fn comparators_agree_on_seeded_random_pairs() {
    let docs: Vec<Json> = (0..60u64)
        .map(|seed| gen::random_json(&gen::GenConfig::sized(seed, 40)))
        .collect();
    for (i, a) in docs.iter().enumerate() {
        for b in &docs[i..] {
            assert_agree(a, b);
        }
    }
}

#[test]
fn object_order_is_string_sorted_not_interning_order() {
    // Intern "z" long before "a" by building the tree from a document
    // that mentions "z" first: if any comparator ordered object keys by
    // Sym (interning order), {"z": 0} would sort before {"a": 0}.
    let doc = parse(r#"[{"z": 0}, {"a": 0}]"#).unwrap();
    let tree = JsonTree::build(&doc);
    let kids = tree.arr_children(tree.root());
    let (zn, an) = (kids[0], kids[1]);
    assert_eq!(
        cmp_nodes(&tree, an, &tree, zn),
        Ordering::Less,
        "\"a\" < \"z\""
    );
    assert_eq!(
        cmp_node_json(&tree, an, &parse(r#"{"z": 0}"#).unwrap()),
        Ordering::Less
    );
    let (a, z) = (parse(r#"{"a": 0}"#).unwrap(), parse(r#"{"z": 0}"#).unwrap());
    assert_eq!(a.total_cmp(&z), Ordering::Less);
}

#[test]
fn order_is_total_on_the_mixed_corpus() {
    // Sorting the whole mixed corpus by each comparator yields the same
    // permutation — the property the sorted column's binary search needs.
    let mut corpus = edge_corpus();
    corpus.extend((100..120u64).map(|s| gen::random_json(&gen::GenConfig::sized(s, 25))));
    let tree = JsonTree::build(&Json::Array(corpus.clone()));
    let kids: Vec<_> = tree.arr_children(tree.root()).to_vec();

    let mut by_value: Vec<usize> = (0..corpus.len()).collect();
    by_value.sort_by(|&i, &j| corpus[i].total_cmp(&corpus[j]).then(i.cmp(&j)));
    let mut by_node: Vec<usize> = (0..corpus.len()).collect();
    by_node.sort_by(|&i, &j| cmp_nodes(&tree, kids[i], &tree, kids[j]).then(i.cmp(&j)));
    assert_eq!(
        by_value, by_node,
        "total_cmp and cmp_nodes sort identically"
    );

    // And the node-vs-value comparator agrees pointwise with the sorted
    // order (the exact shape of a range probe's partition_point calls).
    for w in by_node.windows(2) {
        assert_ne!(
            cmp_node_json(&tree, kids[w[0]], &corpus[w[1]]),
            Ordering::Greater,
            "sorted neighbours must not invert under cmp_node_json"
        );
    }
}

#[test]
fn cross_tree_comparison_agrees_with_total_cmp() {
    // Two trees with their own interners, filled in opposite orders, so
    // every shared string has a different symbol on each side: a
    // comparator that compared symbols across trees would disagree with
    // the value order here.
    let mut corpus = edge_corpus();
    corpus.extend((200..230u64).map(|s| gen::random_json(&gen::GenConfig::sized(s, 30))));
    let fwd = JsonTree::build(&Json::Array(corpus.clone()));
    let rev_docs: Vec<Json> = corpus.iter().rev().cloned().collect();
    let rev = JsonTree::build(&Json::Array(rev_docs));
    let fk = fwd.arr_children(fwd.root());
    let rk = rev.arr_children(rev.root());
    let n = corpus.len();
    for (i, a) in corpus.iter().enumerate() {
        for (j, b) in corpus.iter().enumerate() {
            let spec = a.total_cmp(b);
            let (na, nb) = (fk[i], rk[n - 1 - j]);
            assert_eq!(cmp_nodes(&fwd, na, &rev, nb), spec, "{a} <> {b}");
            assert_eq!(cmp_nodes(&rev, nb, &fwd, na), spec.reverse(), "{b} <> {a}");
        }
    }
}

#[test]
fn cross_segment_comparison_agrees_with_total_cmp() {
    // The collection case: a loaded segment plus insert segments whose
    // tables extend it. Every document pair, across and within segments.
    let docs: Vec<Json> = (300..340u64)
        .map(|s| gen::random_json(&gen::GenConfig::sized(s, 20)))
        .collect();
    let mut coll = mongofind::Collection::from_json(&Json::Array(docs[..20].to_vec()));
    for d in &docs[20..] {
        coll.insert(d);
    }
    assert!(coll.segments().len() > 2);
    let refs = coll.doc_refs();
    for (i, x) in refs.iter().enumerate() {
        for (j, y) in refs.iter().enumerate() {
            let (tx, ty) = (
                &coll.segments()[x.seg as usize],
                &coll.segments()[y.seg as usize],
            );
            assert_eq!(
                cmp_nodes(tx, x.node, ty, y.node),
                docs[i].total_cmp(&docs[j]),
                "{} <> {}",
                docs[i],
                docs[j]
            );
        }
    }
}
