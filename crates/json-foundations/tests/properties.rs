//! Property-based tests over the core invariants, with proptest generators
//! for documents, formulas and schemas.

use jnl::ast::{Binary, Unary};
use json_foundations::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// An arbitrary document in the paper's fragment (bounded size).
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        (0u64..50).prop_map(Json::Num),
        "[a-d]{0,3}".prop_map(Json::str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            prop::collection::btree_map("[a-e]{1,2}", inner, 0..5).prop_map(|m| {
                Json::object(m.into_iter().map(|(k, v)| (k.into(), v)).collect())
                    .expect("btree keys are distinct")
            }),
        ]
    })
}

/// An arbitrary regular expression over a small ascii + greek alphabet
/// (overlapping the key/atom alphabets below, so matches actually occur).
fn arb_regex() -> impl Strategy<Value = relex::Regex> {
    use relex::{CharClass, Regex};
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        "[a-e]{1,2}".prop_map(|s| Regex::literal(&s)),
        "[α-γ]{1,1}".prop_map(|s| Regex::literal(&s)),
        Just(Regex::Class(CharClass::from_ranges([(
            'a' as u32, 'c' as u32
        )]))),
        Just(Regex::Class(CharClass::from_ranges([(
            'α' as u32,
            'ω' as u32
        )]))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(relex::Regex::concat),
            prop::collection::vec(inner.clone(), 1..3).prop_map(relex::Regex::alt),
            inner.prop_map(|r| relex::Regex::Star(Box::new(r))),
        ]
    })
}

/// An arbitrary document whose keys and string atoms mix ascii and greek —
/// the symbol universe the edge-matching tiers are tested over.
fn arb_json_unicode() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        (0u64..50).prop_map(Json::Num),
        "[a-d]{0,3}".prop_map(Json::str),
        "[α-δ]{1,2}".prop_map(Json::str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            prop::collection::btree_map("[a-e]{1,2}", inner.clone(), 0..5).prop_map(|m| {
                Json::object(m.into_iter().map(|(k, v)| (k.into(), v)).collect())
                    .expect("btree keys are distinct")
            }),
            prop::collection::btree_map("[α-γ]{1,2}", inner, 0..4).prop_map(|m| {
                Json::object(m.into_iter().map(|(k, v)| (k.into(), v)).collect())
                    .expect("btree keys are distinct")
            }),
        ]
    })
}

/// An arbitrary document whose keys and string atoms are drawn from
/// `{a,b}^13` — the words `(a|b)*a(a|b){12}` tests, so that regex has hits.
fn arb_json_ab13() -> impl Strategy<Value = Json> {
    let leaf = "[a-b]{13,13}".prop_map(Json::str);
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            prop::collection::btree_map("[a-b]{13,13}", inner, 0..4).prop_map(|m| {
                Json::object(m.into_iter().map(|(k, v)| (k.into(), v)).collect())
                    .expect("btree keys are distinct")
            }),
        ]
    })
}

/// `◇_e ⊤ ∧ ¬□_e Pattern(e)`: some key matches `e`, and some key matching
/// `e` holds a value that is not a string atom matching `e`.
fn jsl_edge_formula(e: &relex::Regex) -> jsl::Jsl {
    use jsl::{Jsl, NodeTest};
    Jsl::and(vec![
        Jsl::DiamondKey(e.clone(), Box::new(Jsl::True)),
        Jsl::not(Jsl::BoxKey(
            e.clone(),
            Box::new(Jsl::Test(NodeTest::Pattern(e.clone()))),
        )),
    ])
}

/// An arbitrary deterministic JNL formula over a small key space.
fn arb_det_unary() -> impl Strategy<Value = Unary> {
    let path = prop::collection::vec(
        prop_oneof![
            "[a-e]{1,2}".prop_map(Binary::Key),
            (0i64..3).prop_map(Binary::Index),
        ],
        1..4,
    )
    .prop_map(Binary::compose);
    let atom = prop_oneof![
        Just(Unary::True),
        path.clone().prop_map(Unary::exists),
        (path.clone(), 0u64..5).prop_map(|(p, v)| Unary::eq_doc(p, Json::Num(v))),
        (path.clone(), path.clone()).prop_map(|(a, b)| Unary::eq_pair(a, b)),
    ];
    atom.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Unary::and),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Unary::or),
            inner.prop_map(Unary::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // -------------------------------------------------------------
    // jsondata invariants
    // -------------------------------------------------------------

    #[test]
    fn parse_serialize_round_trip(doc in arb_json()) {
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn pretty_and_compact_agree(doc in arb_json()) {
        let pretty = jsondata::serialize::to_string_pretty(&doc);
        prop_assert_eq!(parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn tree_round_trip(doc in arb_json()) {
        let tree = JsonTree::build(&doc);
        prop_assert_eq!(tree.to_json(), doc.clone());
        prop_assert_eq!(tree.node_count(), doc.node_count());
        prop_assert_eq!(tree.height(), doc.height());
    }

    #[test]
    fn canonical_labels_characterise_equality(doc in arb_json()) {
        let tree = JsonTree::build(&doc);
        let canon = CanonTable::build(&tree);
        // Sample node pairs rather than all O(n²).
        let n = tree.node_count();
        for i in (0..n).step_by(3) {
            for j in (0..n).step_by(5) {
                let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
                prop_assert_eq!(
                    canon.equal(a, b),
                    tree.json_at(a) == tree.json_at(b)
                );
            }
        }
    }

    #[test]
    fn formal_model_always_validates(doc in arb_json()) {
        let formal = jsondata::domain::FormalJson::from_tree(&JsonTree::build(&doc));
        prop_assert!(formal.validate().is_empty());
        prop_assert_eq!(formal.to_json().unwrap(), doc);
    }

    // -------------------------------------------------------------
    // JNL engine agreement (Prop 1 / Prop 3 implementations vs oracle)
    // -------------------------------------------------------------

    #[test]
    fn jnl_engines_agree_with_oracle(doc in arb_json(), phi in arb_det_unary()) {
        let tree = JsonTree::build(&doc);
        let oracle = jnl::eval::naive::eval(&tree, &phi);
        let linear = jnl::eval::linear::eval(&tree, &phi).unwrap();
        prop_assert_eq!(&oracle, &linear, "linear vs oracle for {}", phi);
        let cubic = jnl::eval::cubic::eval(&tree, &phi);
        prop_assert_eq!(&oracle, &cubic, "cubic vs oracle for {}", phi);
        if !phi.fragment().eq_pair {
            let pdl = jnl::eval::pdl::eval(&tree, &phi).unwrap();
            prop_assert_eq!(&oracle, &pdl, "pdl vs oracle for {}", phi);
        }
    }

    // -------------------------------------------------------------
    // Edge matching: SymMatcher vs the NFA, engines vs streaming
    // -------------------------------------------------------------

    #[test]
    fn regex_tiers_three_way_agreement(doc in arb_json_unicode(), e in arb_regex()) {
        // Three deciders that share no matcher code: the engines' symbol
        // matcher, a fresh NFA run per string, and the streaming validator.
        let tree = JsonTree::build(&doc);
        let compiled = e.compile();
        let mut matcher = relex::SymMatcher::compile(&e, tree.interner().iter().map(|(_, s)| s));
        prop_assert!(matcher.is_bitset(), "small regexes must determinise");
        for (sym, s) in tree.interner().iter() {
            prop_assert_eq!(
                compiled.is_match(s),
                matcher.matches_sym(sym.index(), || s),
                "matcher on {:?}", s
            );
        }
        let phi = jsl_edge_formula(&e);
        prop_assert_eq!(
            jsl::eval::evaluate(&tree, &phi),
            jsl::streaming::node_set(&phi, &tree).unwrap(),
            "jsl vs streaming under {}", e
        );
    }

    #[test]
    fn dfa_too_large_fallback_agrees(doc in arb_json_unicode(), ab in arb_json_ab13()) {
        // (a|b)*a(a|b)^12 needs 2^13 DFA states — above MAX_EDGE_DFA_STATES —
        // so the matcher must fall back to the memo and still agree with
        // the NFA on every interned symbol. `ab` draws its keys and atoms
        // from {a,b}^13, so the regex has hits there, and whole evaluations
        // through the fallback must agree with their oracles.
        let e = relex::Regex::parse("(a|b)*a(a|b){12}").unwrap();
        let compiled = e.compile();
        for doc in [&doc, &ab] {
            let tree = JsonTree::build(doc);
            let mut matcher = relex::SymMatcher::compile(&e, tree.interner().iter().map(|(_, s)| s));
            prop_assert!(!matcher.is_bitset(), "blowup regex must fall back");
            for (sym, s) in tree.interner().iter() {
                prop_assert_eq!(
                    compiled.is_match(s),
                    matcher.matches_sym(sym.index(), || s),
                    "fallback on {:?}", s
                );
            }
        }
        let tree = JsonTree::build(&ab);
        let exists = Unary::exists(Binary::key_regex(e.clone()));
        let oracle = jnl::eval::naive::eval(&tree, &exists);
        prop_assert_eq!(&oracle, &jnl::eval::pdl::eval(&tree, &exists).unwrap(), "pdl");
        prop_assert_eq!(&oracle, &jnl::eval::cubic::eval(&tree, &exists), "cubic");
        let psi = jsl_edge_formula(&e);
        prop_assert_eq!(
            jsl::eval::evaluate(&tree, &psi),
            jsl::streaming::node_set(&psi, &tree).unwrap(),
            "jsl vs streaming"
        );
    }

    // -------------------------------------------------------------
    // Satisfiability soundness (Prop 2)
    // -------------------------------------------------------------

    #[test]
    fn det_sat_witnesses_verify(phi in arb_det_unary()) {
        match jnl::sat_deterministic(&phi) {
            jnl::SatResult::Sat(w) => {
                let tree = JsonTree::build(&w);
                prop_assert!(
                    jnl::eval::check_root(&tree, &phi),
                    "witness {} must satisfy {}", w, phi
                );
            }
            jnl::SatResult::Unsat => {
                // Spot-check soundness: a handful of small random documents
                // must also falsify the formula at the root.
                for seed in 0..5u64 {
                    let doc = jsondata::gen::random_json(&jsondata::gen::GenConfig::sized(seed, 40));
                    let tree = JsonTree::build(&doc);
                    prop_assert!(
                        !jnl::eval::check_root(&tree, &phi),
                        "UNSAT but {} satisfies {}", doc, phi
                    );
                }
            }
            jnl::SatResult::Unknown(_) => {}
        }
    }

    // -------------------------------------------------------------
    // Theorem 2: JSL ↔ JNL translations preserve semantics
    // -------------------------------------------------------------

    #[test]
    fn theorem2_translations_preserve_semantics(doc in arb_json(), phi in arb_det_unary()) {
        if phi.fragment().eq_pair {
            return Ok(()); // outside the Theorem 2 fragment
        }
        // Negative indices are outside JSL's reach.
        let tree = JsonTree::build(&doc);
        if let Ok(psi) = jsl::jnl_to_jsl_cps(&phi) {
            {
                let via_jnl = jnl::eval::evaluate(&tree, &phi);
                let via_jsl = jsl::eval::evaluate(&tree, &psi);
                prop_assert_eq!(via_jnl, via_jsl, "{} vs {}", phi, psi);
                // And back again.
                if let Ok(phi2) = jsl::jsl_to_jnl(&strip_tests(&psi)) {
                    let again = jnl::eval::evaluate(&tree, &phi2);
                    let direct = jsl::eval::evaluate(&tree, &strip_tests(&psi));
                    prop_assert_eq!(again, direct);
                }
            }
        } // Err: formula used a construct outside the fragment
    }

    // -------------------------------------------------------------
    // Theorem 1: schema inference output round-trips through JSL
    // -------------------------------------------------------------

    #[test]
    fn theorem1_on_inferred_schemas(docs in prop::collection::vec(arb_json(), 1..4), probe in arb_json()) {
        let schema = json_foundations::schema::infer(&docs);
        let delta = json_foundations::schema::schema_to_jsl(&schema).unwrap();
        // Agreement on both the training documents and an arbitrary probe.
        for d in docs.iter().chain(std::iter::once(&probe)) {
            let via_validator = json_foundations::schema::is_valid(&schema, d).unwrap();
            let via_jsl = delta.check_root(&JsonTree::build(d));
            prop_assert_eq!(via_validator, via_jsl, "doc {}", d);
        }
    }

    // -------------------------------------------------------------
    // Dialects agree with their JNL compilations
    // -------------------------------------------------------------

    #[test]
    fn jsonpath_selection_matches_jnl(doc in arb_json()) {
        let tree = JsonTree::build(&doc);
        for src in ["$..a", "$.*", "$[0:2]", "$..b[*]", "$.a.b"] {
            let p = jsonpath::JsonPath::parse(src).unwrap();
            let mut direct = p.select_nodes(&tree);
            let mut via = p.select_nodes_via_jnl(&tree);
            direct.sort();
            via.sort();
            prop_assert_eq!(direct, via, "path {} on {}", src, doc);
        }
    }
}

/// Replaces node tests other than `∼(A)` by `⊤` so the formula re-enters
/// the `jsl_to_jnl` fragment (used to close the round trip).
fn strip_tests(phi: &jsl::Jsl) -> jsl::Jsl {
    use jsl::{Jsl, NodeTest};
    match phi {
        Jsl::Test(NodeTest::EqDoc(_)) | Jsl::True | Jsl::Var(_) => phi.clone(),
        Jsl::Test(_) => Jsl::True,
        Jsl::Not(p) => Jsl::not(strip_tests(p)),
        Jsl::And(ps) => Jsl::and(ps.iter().map(strip_tests).collect()),
        Jsl::Or(ps) => Jsl::or(ps.iter().map(strip_tests).collect()),
        Jsl::DiamondKey(e, p) => Jsl::DiamondKey(e.clone(), Box::new(strip_tests(p))),
        Jsl::BoxKey(e, p) => Jsl::BoxKey(e.clone(), Box::new(strip_tests(p))),
        Jsl::DiamondRange(i, j, p) => Jsl::DiamondRange(*i, *j, Box::new(strip_tests(p))),
        Jsl::BoxRange(i, j, p) => Jsl::BoxRange(*i, *j, Box::new(strip_tests(p))),
    }
}
