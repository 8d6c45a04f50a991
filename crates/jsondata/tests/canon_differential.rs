//! The canonical-label arena against `Json ==`, an oracle that shares no
//! code with it: on seeded documents built through the fused parser,
//! `JsonTree::build` and `concat_subtrees`, two nodes share a class
//! exactly when their values are equal, `class_of_json` finds every
//! value the tree holds and no other, and the measures the tree computes
//! instead of storing (`subtree_size`, `height`) match naive counts.

use std::sync::Arc;

use jsondata::gen::{self, GenConfig};
use jsondata::{parse, parse_to_tree, Json, JsonTree, NodeId};

/// Small documents over small pools, so that equal subtrees are common.
fn small_doc(seed: u64) -> Json {
    gen::random_json(&GenConfig {
        max_width: 4,
        num_bound: 4,
        string_pool: ["x", "y", ""].iter().map(|s| s.to_string()).collect(),
        key_pool: ["a", "b", "c"].iter().map(|s| s.to_string()).collect(),
        ..GenConfig::sized(seed, 40)
    })
}

/// The trees of one seed: the document parsed (fused) and built, and
/// three documents built along one table lineage and concatenated.
fn trees(seed: u64) -> Vec<JsonTree> {
    let doc = small_doc(seed);
    let mut table = Arc::default();
    let parts: Vec<JsonTree> = (0..3)
        .map(|i| {
            let t = JsonTree::build_into(&small_doc(seed * 3 + i + 1000), &table);
            table = Arc::clone(t.interner());
            t
        })
        .collect();
    let refs: Vec<(&JsonTree, NodeId)> = parts.iter().map(|t| (t, t.root())).collect();
    vec![
        parse_to_tree(&doc.to_string()).expect("generated text parses"),
        JsonTree::build(&doc),
        JsonTree::concat_subtrees(&refs, &table),
    ]
}

fn values(t: &JsonTree) -> Vec<Json> {
    t.node_ids().map(|n| t.json_at(n)).collect()
}

#[test]
fn classes_are_equal_exactly_when_values_are() {
    for seed in 0..60 {
        for t in trees(seed) {
            let canon = t.canon();
            let vals = values(&t);
            let mut distinct: Vec<&Json> = Vec::new();
            for (a, va) in t.node_ids().zip(&vals) {
                if !distinct.contains(&va) {
                    distinct.push(va);
                }
                for (b, vb) in t.node_ids().zip(&vals) {
                    assert_eq!(
                        canon.class_of(a) == canon.class_of(b),
                        va == vb,
                        "seed {seed}: nodes {a:?} {va} and {b:?} {vb}"
                    );
                }
            }
            assert_eq!(canon.class_count(), distinct.len(), "seed {seed}");
        }
    }
}

#[test]
fn numbers_are_told_apart_by_all_64_bits() {
    let t = JsonTree::build(
        &parse("[0, 1, 4294967296, 4294967297, 18446744073709551615, 4294967295, 1]").unwrap(),
    );
    let canon = t.canon();
    let kids = t.arr_children(t.root());
    for (i, &a) in kids.iter().enumerate() {
        for (j, &b) in kids.iter().enumerate() {
            assert_eq!(canon.equal(a, b), t.json_at(a) == t.json_at(b), "{i} {j}");
        }
    }
    assert_eq!(canon.class_of_json(&t, &Json::Num(1 << 33)), None);
}

#[test]
fn class_of_json_finds_the_values_a_tree_holds_and_no_other() {
    for seed in 0..60 {
        // Subvalues of other documents, over wider pools: some occur in
        // the tree, many do not (an unseen number or string, an unknown
        // key, or a known container shape around an absent value).
        let probe_doc = gen::random_json(&GenConfig {
            max_width: 4,
            num_bound: 6,
            string_pool: ["x", "y", "", "z"].iter().map(|s| s.to_string()).collect(),
            key_pool: ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect(),
            ..GenConfig::sized(seed + 5000, 40)
        });
        let probe_tree = JsonTree::build(&probe_doc);
        let mut probes = values(&probe_tree);
        probes.extend(
            [
                r#"{"never": 1}"#,
                r#""never""#,
                "[[[[]]]]",
                r#"{"a": {"a": {"a": {}}}}"#,
            ]
            .map(|s| parse(s).unwrap()),
        );
        for t in trees(seed) {
            let canon = t.canon();
            let vals = values(&t);
            for (n, v) in t.node_ids().zip(&vals) {
                assert_eq!(
                    canon.class_of_json(&t, v),
                    Some(canon.class_of(n)),
                    "seed {seed}: {v}"
                );
            }
            let mut absent = 0;
            for p in &probes {
                let want = vals
                    .iter()
                    .position(|v| v == p)
                    .map(|i| canon.class_of(NodeId::from_index(i)));
                absent += usize::from(want.is_none());
                assert_eq!(canon.class_of_json(&t, p), want, "seed {seed}: probe {p}");
            }
            assert!(absent > 0, "seed {seed}: every probe was present");
        }
    }
}

/// How many nodes of `t` lie in the subtree of `n`, by parent chains.
fn naive_size(t: &JsonTree, n: NodeId) -> usize {
    t.node_ids()
        .filter(|&m| {
            let mut at = Some(m);
            while let Some(a) = at {
                if a == n {
                    return true;
                }
                at = t.parent(a);
            }
            false
        })
        .count()
}

#[test]
fn subtree_sizes_and_heights_match_naive_counts() {
    for seed in 0..60 {
        for t in trees(seed) {
            assert_eq!(t.height(), t.to_json().height(), "seed {seed}");
            for n in t.node_ids() {
                assert_eq!(t.subtree_size(n), naive_size(&t, n), "seed {seed}: {n:?}");
            }
        }
    }
    // A chain, and objects whose members are stored in another order
    // than their ids run in.
    let chain = JsonTree::build(&gen::deep_chain(50, "k", Json::Num(0)));
    assert_eq!(chain.height(), 50);
    assert_eq!(chain.subtree_size(chain.root()), 51);
    let t = JsonTree::build(&parse(r#"[{"b": 1, "a": 2}, {"a": [1, {"z": 2}], "b": 3}]"#).unwrap());
    for n in t.node_ids() {
        assert_eq!(t.subtree_size(n), naive_size(&t, n), "{n:?}");
    }
    assert_eq!(t.height(), 4);
    assert_eq!(JsonTree::build(&Json::Num(7)).height(), 0);
}

#[test]
fn distinct_atoms_keep_distinct_classes_when_their_hash_bits_collide() {
    // A slot keeps 30 bits of a signature's hash, so among 200k distinct
    // numbers about twenty pairs share them: only the full comparison
    // keeps those pairs apart.
    let n = 200_000u64;
    let values: Vec<Json> = (0..n)
        .map(|i| Json::Num(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    let t = JsonTree::build(&Json::Array(values.clone()));
    let canon = t.canon();
    assert_eq!(canon.class_count() as u64, n + 1);
    for (v, &c) in values.iter().zip(t.arr_children(t.root())) {
        assert_eq!(canon.class_of_json(&t, v), Some(canon.class_of(c)));
    }
}
