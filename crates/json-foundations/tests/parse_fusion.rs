//! Differential tests for the fused streaming parser: `parse_to_tree(s)`
//! must be **node-for-node identical** to `JsonTree::build(&parse(s)?)` —
//! same CSR layout, same symbol table, same canonical-label vector — and
//! must report the **identical `ParseError`** (kind *and* position) on
//! every malformed input. Both paths reduce to the same `TreeBuilder`
//! event core; this suite pins that equivalence from the outside.

use std::sync::Arc;

use jsondata::serialize::{to_string, to_string_pretty};
use jsondata::{
    gen, parse, parse_to_tree, parse_to_tree_into, parse_to_tree_with_limits, parse_with_limits,
    CanonTable, JsonTree, ParseLimits,
};

/// Asserts full structural identity between the fused and two-pass trees of
/// one valid document, plus canon-signature agreement and value round-trip.
fn assert_fusion_identical(src: &str) {
    let doc = parse(src).unwrap_or_else(|e| panic!("corpus doc must parse: {src:?}: {e}"));
    let two_pass = JsonTree::build(&doc);
    let fused = parse_to_tree(src).unwrap_or_else(|e| panic!("fused parse failed on {src:?}: {e}"));
    assert!(
        fused.identical(&two_pass),
        "fused and two-pass trees differ for {src:?}\nfused: {fused:?}\ntwo-pass: {two_pass:?}"
    );
    // Canonical subtree labels are a function of the arena layout; identical
    // trees must produce byte-identical class vectors.
    assert_eq!(
        CanonTable::build(&fused).classes(),
        CanonTable::build(&two_pass).classes(),
        "canon classes differ for {src:?}"
    );
    // And the tree still denotes the parsed value.
    assert_eq!(fused.to_json(), doc, "to_json round-trip for {src:?}");
}

/// Asserts both paths reject `src` with the identical error.
fn assert_same_error(src: &str) {
    let e_value = parse(src).expect_err("corpus doc must be malformed");
    let e_fused = parse_to_tree(src).expect_err("fused parse must also reject");
    assert_eq!(e_value, e_fused, "error mismatch for {src:?}");
}

#[test]
fn hand_written_corpus_is_node_for_node_identical() {
    let corpus: &[&str] = &[
        // Scalars.
        "0",
        "42",
        "18446744073709551615", // u64::MAX
        r#""""#,
        r#""plain ascii""#,
        // Unicode keys and atoms, multi-byte runs.
        r#"{"čšž": "中文", "ключ": ["δ", "ε"], "😀": 7}"#,
        "\"čšž — 中文 😀\"",
        // Escapes in keys and values, incl. surrogate pairs.
        r#"{"A\n\t": "\\\"\/\b\f\n\r\t", "😀": "é"}"#,
        r#""long clean prefix before the first \u00e9 escape""#,
        r#""\ud83d\ude00 surrogate pair""#,
        // Empty containers, nested mixes.
        "{}",
        "[]",
        r#"{"e": {}, "a": []}"#,
        r#"[[], {}, [[]], [{}], {"x": []}]"#,
        // Key order vs symbol order: later keys re-using earlier symbols
        // force sorted spans to differ from document order.
        r#"{"b": 1, "a": 2}"#,
        r#"{"a": {"z": 1}, "x": {"b": 2, "z": 3}}"#,
        r#"["z", {"b": 1, "z": 2}, {"z": 3, "b": 4}]"#,
        // Keys shared with string atoms (one symbol table for both).
        r#"{"yoga": ["yoga", "fishing"], "fishing": "yoga"}"#,
        // The paper's Figure 1.
        r#"{
            "name": {"first": "John", "last": "Doe"},
            "age": 32,
            "hobbies": ["fishing", "yoga"]
        }"#,
        // Deep nesting (well under the default limit).
        &("[".repeat(100) + "7" + &"]".repeat(100)),
        &(r#"{"k":"#.repeat(60).to_string() + "1" + &"}".repeat(60)),
        // Duplicate *symbols across siblings* (legal — only same-object
        // duplicates are errors).
        r#"[{"k": 1}, {"k": 2}, {"k": 3}]"#,
        // Whitespace everywhere.
        " \t\r\n{ \"a\" : [ 1 , 2 ] } \n",
        "\n[\r\n1\t,    2]   ",
    ];
    for src in corpus {
        assert_fusion_identical(src);
    }
}

#[test]
fn malformed_corpus_produces_identical_errors() {
    let corpus: &[&str] = &[
        // Eof at every structural point.
        "",
        "  ",
        "{",
        "{\"a\"",
        "{\"a\":",
        "{\"a\": 1",
        "{\"a\": 1,",
        "[",
        "[1",
        "[1,",
        "\"abc",
        "\"abc\\",
        "\"abc\\u12",
        // Out-of-fragment constructs.
        "null",
        "true",
        "false",
        "-3",
        "3.5",
        "3e2",
        "012",
        "99999999999999999999999",
        "nul",
        "tru",
        // Structure errors.
        "{,}",
        "{1: 2}",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "{\"a\": 1 \"b\": 2}",
        "[1 2]",
        "[1,]",
        "[1, 2)",
        "1 2",
        "{} {}",
        "]",
        "}",
        ":",
        "%",
        "é",
        // String errors.
        "\"a\u{0001}b\"",
        r#""\q""#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800A""#,
        r#""\ud800x""#,
        r#""\uzzzz""#,
        // Duplicate keys, shallow and nested, with escape-built duplicates.
        r#"{"a": 1, "a": 2}"#,
        r#"{"k": {"x": 1, "x": 2}}"#,
        r#"[1, {"dup": [], "dup": {}}]"#,
        // Error *after* substantial valid prefix (positions must agree deep
        // into the document).
        r#"{"a": [1, 2, {"b": "c"}], "d": nope}"#,
        "{\n  \"a\": null\n}",
    ];
    for src in corpus {
        assert_same_error(src);
    }
}

#[test]
fn parse_limits_edges_agree() {
    let cases: &[(&str, usize)] = &[
        // Scalars parse at depth 0; any nesting exceeds it.
        ("7", 0),
        ("[]", 0),
        ("{}", 0),
        ("[7]", 0),
        (r#"{"k": 1}"#, 0),
        // Exactly at and one past the limit.
        ("[[3]]", 2),
        ("[[[3]]]", 2),
        ("[[[", 2),
        (r#"{"a": {"b": {"c": 1}}}"#, 3),
        (r#"{"a": {"b": {"c": {}}}}"#, 3),
        (r#"{"a": {"b": {"c": {"d": 1}}}}"#, 3),
    ];
    for &(src, max_depth) in cases {
        let limits = ParseLimits::depth(max_depth);
        let via_value = parse_with_limits(src, limits);
        let via_tree = parse_to_tree_with_limits(src, limits);
        match (via_value, via_tree) {
            (Ok(doc), Ok(tree)) => {
                assert!(
                    tree.identical(&JsonTree::build(&doc)),
                    "trees differ for {src:?} at depth {max_depth}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors differ for {src:?} at {max_depth}"),
            (a, b) => panic!(
                "accept/reject mismatch for {src:?} at depth {max_depth}: value={a:?} tree={}",
                if b.is_ok() { "Ok" } else { "Err" }
            ),
        }
    }
    // The default-limit boundary itself.
    let at_limit = "[".repeat(512) + "1" + &"]".repeat(512);
    let over_limit = "[".repeat(513) + "1" + &"]".repeat(513);
    assert!(parse_to_tree(&at_limit).is_ok());
    assert_eq!(
        parse(&over_limit).unwrap_err(),
        parse_to_tree(&over_limit).unwrap_err()
    );
}

#[test]
fn random_documents_fuse_identically() {
    // Property sweep: random documents serialized both compactly and
    // pretty-printed must fuse to the identical tree, and the tree must
    // round-trip to the generated value.
    for seed in 0..300u64 {
        let doc = gen::random_json(&gen::GenConfig::sized(seed, 120));
        for src in [to_string(&doc), to_string_pretty(&doc)] {
            let fused = parse_to_tree(&src).expect("serialized docs parse");
            let two_pass = JsonTree::build(&parse(&src).unwrap());
            assert!(
                fused.identical(&two_pass),
                "seed {seed}: fused differs on {src}"
            );
            assert_eq!(fused.to_json(), doc, "seed {seed}: round-trip on {src}");
            assert_eq!(
                CanonTable::build(&fused).classes(),
                CanonTable::build(&two_pass).classes(),
                "seed {seed}: canon classes on {src}"
            );
        }
    }
}

#[test]
fn random_unicode_heavy_documents_fuse_identically() {
    // Push multi-byte keys/atoms and escape-heavy serialization through the
    // lexer's borrowed and owned string paths.
    let cfg_base = gen::GenConfig::sized(0, 80);
    for seed in 0..120u64 {
        let cfg = gen::GenConfig {
            seed,
            key_pool: [
                "α",
                "βγ",
                "中文",
                "k\n",
                "tab\t",
                "q\"uote",
                "back\\slash",
                "a",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            string_pool: ["δ", "x\ty", "line\nbreak", "中 文", "\u{8}\u{c}", ""]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..cfg_base.clone()
        };
        let doc = gen::random_json(&cfg);
        let src = to_string(&doc);
        let fused = parse_to_tree(&src).expect("escaped serialization parses");
        let two_pass = JsonTree::build(&parse(&src).unwrap());
        assert!(fused.identical(&two_pass), "seed {seed}: {src}");
        assert_eq!(fused.to_json(), doc, "seed {seed}: {src}");
    }
}

#[test]
fn shared_interner_symbols_are_stable_across_documents() {
    let limits = ParseLimits::default();
    for seed in 0..60u64 {
        let doc_a = gen::random_json(&gen::GenConfig::sized(seed, 60));
        let doc_b = gen::random_json(&gen::GenConfig::sized(seed + 1000, 60));
        let (src_a, src_b) = (to_string(&doc_a), to_string(&doc_b));

        let t_a = parse_to_tree_into(&src_a, limits, &Arc::default()).unwrap();
        let t_b = parse_to_tree_into(&src_b, limits, t_a.interner()).unwrap();
        let shared = t_b.interner();

        // Sym stability: every string interned by both trees carries the
        // same symbol, and t_a's table is a prefix of t_b's.
        for (sym, s) in t_a.interner().iter() {
            assert_eq!(t_b.sym(s), Some(sym), "seed {seed}: symbol for {s:?}");
            assert_eq!(shared.lookup(s), Some(sym));
        }
        assert!(t_a.interner().len() <= t_b.interner().len());

        // The shared-interner tree is *not* identical to a fresh-interner
        // parse in general, but denotes the same value and matches the
        // two-pass shared-interner construction.
        let two_a = JsonTree::build_into(&parse(&src_a).unwrap(), &Arc::default());
        let two_b = JsonTree::build_into(&parse(&src_b).unwrap(), two_a.interner());
        assert!(t_a.identical(&two_a), "seed {seed}: shared doc A");
        assert!(t_b.identical(&two_b), "seed {seed}: shared doc B");
        assert_eq!(t_a.to_json(), doc_a);
        assert_eq!(t_b.to_json(), doc_b);
    }
}

#[test]
fn shared_interner_survives_parse_errors() {
    let limits = ParseLimits::default();
    let t1 = parse_to_tree_into(r#"{"k": "v"}"#, limits, &Arc::default()).unwrap();
    let shared = Arc::clone(t1.interner());
    // A malformed document never writes its base table: neither existing
    // symbols nor the well-formed prefix's new strings change it.
    let before = shared.lookup("k");
    let len = shared.len();
    assert!(parse_to_tree_into(r#"{"new": "w", "bad" 1}"#, limits, &shared).is_err());
    assert_eq!(
        shared.lookup("k"),
        before,
        "existing symbols survive errors"
    );
    assert_eq!(shared.lookup("new"), None, "the failed prefix adds nothing");
    assert_eq!(shared.len(), len);
    let t2 = parse_to_tree_into(r#"{"v": "k"}"#, limits, &shared).unwrap();
    assert_eq!(t1.sym("k"), t2.sym("k"));
    assert_eq!(t1.sym("v"), t2.sym("v"));
}

#[test]
fn fused_tree_structural_invariants_hold() {
    // The invariants the engines rely on, checked on fused-built trees
    // directly: pre-order ids, contiguous subtrees, symbol-sorted object
    // spans, slot/parent consistency.
    for seed in 0..40u64 {
        let doc = gen::random_json(&gen::GenConfig::sized(seed, 150));
        let tree = parse_to_tree(&to_string(&doc)).unwrap();
        for n in tree.node_ids() {
            let syms = tree.obj_syms(n);
            assert!(syms.windows(2).all(|w| w[0] < w[1]), "sorted object span");
            for (_, c) in tree.children(n) {
                assert!(c > n, "pre-order ids");
                assert_eq!(tree.parent(c), Some(n), "parent pointers");
            }
            // Subtree contiguity: children fall inside [n, n + size).
            let hi = n.index() + tree.subtree_size(n);
            for (_, c) in tree.children(n) {
                assert!(c.index() < hi, "children inside the contiguous block");
            }
        }
        assert_eq!(tree.to_json(), doc);
    }
}

#[test]
fn duplicate_key_positions_agree_after_unicode_prefixes() {
    // Position bookkeeping (line/col in scalar values) must agree between
    // the paths even when multi-byte characters and escapes precede the
    // error.
    let srcs = [
        "{\"中文\": 1,\n \"中文\": 2}",
        "{\"a\": \"😀😀\", \"a\": 1}",
        "{\"x\": \"multi\nline is illegal\"}",
        "{\"k\": \"ok\", \"\\u4e2d\\u6587\": 1, \"中文\": 2}",
    ];
    for src in srcs {
        let a = parse(src);
        let b = parse_to_tree(src).map(|t| t.to_json());
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{src:?}"),
            (Err(x), Err(y)) => assert_eq!(x, y, "{src:?}"),
            other => panic!("accept/reject mismatch on {src:?}: {other:?}"),
        }
    }
}
