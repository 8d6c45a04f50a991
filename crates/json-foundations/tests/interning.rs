//! Property tests pinning down that key interning is semantically
//! invisible: symbol-sorted CSR storage, `Sym`-probe lookups and
//! symbol-keyed canonical signatures must change *nothing* observable
//! about values, trees, or canonical classes.

use json_foundations::prelude::*;
use jsondata::gen::{self, GenConfig};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// An arbitrary document in the paper's fragment (bounded size), drawing
/// keys from a small pool so that objects share vocabulary.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        (0u64..40).prop_map(Json::Num),
        "[a-e]{0,3}".prop_map(Json::str),
    ];
    leaf.prop_recursive(4, 64, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            prop::collection::btree_map("[a-f]{1,2}", inner, 0..5).prop_map(|m| {
                Json::object(m.into_iter().map(|(k, v)| (k.into(), v)).collect())
                    .expect("btree keys are distinct")
            }),
        ]
    })
}

fn hash_of(j: &Json) -> u64 {
    let mut h = DefaultHasher::new();
    j.hash(&mut h);
    h.finish()
}

/// A permutation of an object's pairs driven by a seed.
fn permute(doc: &Json, seed: usize) -> Json {
    match doc {
        Json::Object(o) => {
            let mut pairs: Vec<(jsondata::JStr, Json)> = o
                .iter()
                .map(|(k, v)| (k.into(), permute(v, seed.wrapping_add(k.len()))))
                .collect();
            if pairs.len() > 1 {
                let k = seed % pairs.len();
                pairs.rotate_left(k);
            }
            Json::object(pairs).expect("permutation keeps keys distinct")
        }
        Json::Array(items) => Json::Array(items.iter().map(|v| permute(v, seed)).collect()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Unordered object equality and hashing are untouched by interning:
    // reordering object members changes neither equality nor the hash, and
    // the trees built from both orderings are canonically identical.
    #[test]
    fn unordered_equality_and_hash_survive_interning(doc in arb_json(), seed in 0usize..7) {
        let shuffled = permute(&doc, seed);
        prop_assert_eq!(&doc, &shuffled);
        prop_assert_eq!(hash_of(&doc), hash_of(&shuffled));
        let (ta, tb) = (JsonTree::build(&doc), JsonTree::build(&shuffled));
        prop_assert_eq!(ta.to_json(), tb.to_json());
        let (ca, cb) = (CanonTable::build(&ta), CanonTable::build(&tb));
        prop_assert_eq!(
            ca.class_of_json(&ta, &shuffled).is_some(),
            cb.class_of_json(&tb, &doc).is_some()
        );
        prop_assert_eq!(ca.class_of_json(&ta, &doc), Some(ca.class_of(ta.root())));
    }

    // child_by_key (interner probe + Sym binary search) agrees with a naive
    // scan over resolved key strings at every object node.
    #[test]
    fn child_by_key_agrees_with_naive_scan(doc in arb_json()) {
        let tree = JsonTree::build(&doc);
        for n in tree.node_ids() {
            let entries: Vec<(String, NodeId)> =
                tree.obj_children(n).map(|(k, c)| (k.to_owned(), c)).collect();
            // Every present key is found...
            for (k, c) in &entries {
                prop_assert_eq!(tree.child_by_key(n, k), Some(*c));
                let sym = tree.sym(k).expect("present keys are interned");
                prop_assert_eq!(tree.child_by_sym(n, sym), Some(*c));
            }
            // ...and probe misses / foreign keys answer None.
            for probe in ["zz-absent", "", "k0"] {
                let naive = entries.iter().find(|(k, _)| k == probe).map(|(_, c)| *c);
                prop_assert_eq!(tree.child_by_key(n, probe), naive);
            }
        }
    }

    // The canonical partition equals structural subtree equality — the
    // defining property the Sig change must preserve.
    #[test]
    fn canon_classes_characterise_structural_equality(doc in arb_json()) {
        let tree = JsonTree::build(&doc);
        let canon = CanonTable::build(&tree);
        let n = tree.node_count();
        for i in (0..n).step_by(3) {
            for j in (0..n).step_by(4) {
                let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
                prop_assert_eq!(
                    canon.equal(a, b),
                    tree.json_at(a) == tree.json_at(b),
                    "classes must track equality at {:?},{:?}", a, b
                );
            }
        }
    }

    // Every edge and string atom resolves through the interner and back.
    #[test]
    fn symbols_round_trip_through_the_interner(doc in arb_json()) {
        let tree = JsonTree::build(&doc);
        for n in tree.node_ids() {
            if let Some(sym) = tree.incoming_key_sym(n) {
                let key = tree.resolve(sym).to_owned();
                prop_assert_eq!(tree.sym(&key), Some(sym));
                match tree.edge_from_parent(n) {
                    Some(jsondata::EdgeLabel::Key(k)) => prop_assert_eq!(k, key),
                    other => return Err(TestCaseError(format!("expected key edge, got {other:?}"))),
                }
            }
            if let Some(sym) = tree.str_sym(n) {
                prop_assert_eq!(tree.str_value(n), Some(tree.resolve(sym)));
            }
        }
    }
}

/// Interning must be invisible on the generator corpus too (bigger docs,
/// shared key pools — the shape the benches measure).
#[test]
fn generated_corpus_round_trips_and_looks_up() {
    for seed in 0..20u64 {
        let doc = gen::random_json(&GenConfig::sized(seed, 600));
        let tree = JsonTree::build(&doc);
        assert_eq!(tree.to_json(), doc, "seed {seed}");
        // Interner size is bounded by the distinct keys + atoms, far below
        // node count for pool-driven generation.
        assert!(tree.interner().len() <= tree.node_count());
        for n in tree.node_ids() {
            for (k, c) in tree.obj_children(n) {
                assert_eq!(tree.child_by_key(n, k), Some(c));
            }
            assert_eq!(tree.child_by_key(n, "never-generated-key"), None);
        }
    }
}

/// The documented contract: a key the tree never interned misses in O(1)
/// and can never address a child.
#[test]
fn uninterned_keys_always_miss() {
    let doc = jsondata::parse(r#"{"a": {"b": 1}, "c": [2, 3]}"#).unwrap();
    let tree = JsonTree::build(&doc);
    assert_eq!(tree.sym("d"), None);
    for n in tree.node_ids() {
        assert_eq!(tree.child_by_key(n, "d"), None);
    }
    // "b" is interned but only addresses a child under the right node.
    let a = tree.child_by_key(tree.root(), "a").unwrap();
    assert!(tree.child_by_key(a, "b").is_some());
    assert_eq!(tree.child_by_key(tree.root(), "b"), None);
}
