//! Bound-filter differential suite.
//!
//! Every tree-side evaluation binds its filter to the collection's symbol
//! table once per query (`Filter::bind`) and then tests rows by symbol.
//! This suite checks that binding against the owned-value oracle,
//! `Filter::matches` on `Collection::json_of(d)`, which never sees a
//! symbol: the document scan (`find_refs_via_scan_with_ctx`) and the
//! routed find (the index route, probes plus a bound residual) must both
//! return exactly the documents the oracle keeps.
//!
//! The collections are built across many insert segments whose later
//! segments bring keys and strings the earlier tables lack, so a filter
//! bound to the last table resolves in segments that know only a prefix
//! of it. Layouts: fragmented (one segment per insert), compacted, and
//! indexed (so the index route and its residual run), at 1 and 2 threads.

use jguard::QueryCtx;
use jpar::Pool;
use jsondata::{parse, serialize::to_string, JStr, Json};
use mongofind::{Collection, DocRef, Filter, Route};

/// The oracle: documents whose materialised value satisfies the filter.
fn oracle(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.doc_refs()
        .into_iter()
        .filter(|&d| f.matches(&coll.json_of(d)))
        .collect()
}

fn scan(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.find_refs_via_scan_with_ctx(f, &QueryCtx::unlimited())
        .unwrap()
}

fn routed(coll: &Collection, f: &Filter) -> Vec<DocRef> {
    coll.find_refs_with_ctx(f, &QueryCtx::unlimited()).unwrap()
}

/// Asserts scan and routed find both equal the oracle on every layout of
/// `coll` (fragmented, compacted, indexed on `indexes`) at 1 and 2
/// threads; returns the oracle's hit count per filter (on the fragmented
/// layout), so a case can pin that it is not vacuous.
fn check_all(coll: &Collection, indexes: &[&str], filters: &[Filter]) -> Vec<usize> {
    let mut compacted = coll.clone();
    compacted.compact();
    let mut indexed = coll.clone();
    for p in indexes {
        indexed.create_index(p);
    }
    let layouts = [
        ("fragmented", coll.clone()),
        ("compacted", compacted),
        ("indexed", indexed),
    ];
    let mut hits = Vec::new();
    for (label, mut c) in layouts {
        for f in filters {
            let want = oracle(&c, f);
            if label == "fragmented" {
                hits.push(want.len());
            }
            for threads in [1, 2] {
                c.set_pool(Pool::with_threads(threads));
                assert_eq!(scan(&c, f), want, "{label} x{threads} scan {f}");
                assert_eq!(routed(&c, f), want, "{label} x{threads} routed {f}");
            }
            // The same refs materialise to the same documents.
            let docs: Vec<Json> = want.iter().map(|&d| c.json_of(d)).collect();
            assert_eq!(c.find(f), docs, "{label} find {f}");
        }
    }
    hits
}

fn filters(srcs: &[&str]) -> Vec<Filter> {
    srcs.iter()
        .map(|s| Filter::parse_str(s).expect("filter parses"))
        .collect()
}

/// A collection whose first segment knows only `seed`'s strings, then one
/// insert segment per document of `inserts` (alternating the text and the
/// value insert paths).
fn layered(seed: &str, inserts: &[&str]) -> Collection {
    let mut coll = Collection::parse_str(seed).unwrap();
    for (i, src) in inserts.iter().enumerate() {
        if i % 2 == 0 {
            coll.insert_str(src).unwrap();
        } else {
            coll.insert(&parse(src).unwrap());
        }
    }
    coll
}

#[test]
fn constants_first_seen_in_a_later_segment() {
    let coll = layered(
        r#"[{"name": "Sue", "age": 30}, {"name": "Ann", "age": 41}]"#,
        &[
            r#"{"name": "Bo", "age": 30}"#,
            r#"{"name": "Late", "email": "late@x", "age": 52}"#,
            r#"{"name": "Sue", "email": "sue@x", "tags": ["new", "late@x"]}"#,
        ],
    );
    // "Late", "email", "late@x", "tags", "new" exist only in insert
    // segments; the first segment's table lacks them.
    assert!(coll.segments()[0].sym("late@x").is_none());
    assert!(coll.interner().lookup("late@x").is_some());
    let fs = filters(&[
        r#"{"email": "late@x"}"#,
        r#"{"name": "Late"}"#,
        r#"{"tags.1": "late@x"}"#,
        r#"{"tags.0": {"$in": ["new", "old"]}}"#,
        r#"{"email": {"$ne": "late@x"}}"#,
        r#"{"email": {"$nin": ["late@x"]}}"#,
        r#"{"email": {"$exists": "true"}, "age": {"$gte": 30}}"#,
        r#"{"name": {"$gt": "Bo"}}"#,
    ]);
    assert_eq!(
        check_all(&coll, &["email", "name", "age"], &fs),
        [1, 1, 1, 1, 1, 1, 1, 3]
    );
}

#[test]
fn absent_constants_under_every_equality_operator() {
    let coll = layered(
        r#"[{"s": "a"}, {"s": "b"}, {"n": 1}]"#,
        &[r#"{"s": "c"}"#, r#"{"s": ["never"]}"#],
    );
    // "never" is interned (inside an array), "nowhere" is not.
    assert!(coll.interner().lookup("nowhere").is_none());
    let fs = filters(&[
        r#"{"s": "nowhere"}"#,
        r#"{"s": {"$ne": "nowhere"}}"#,
        r#"{"s": {"$in": ["nowhere", "nothing"]}}"#,
        r#"{"s": {"$nin": ["nowhere"]}}"#,
        r#"{"s": {"$in": ["nowhere", "b"]}}"#,
        r#"{"s": "never"}"#,
        r#"{"nowhere": {"$exists": "false"}}"#,
        r#"{"nowhere": {"$ne": 1}}"#,
        r#"{"$not": {"s": "nowhere"}}"#,
    ]);
    assert_eq!(check_all(&coll, &["s"], &fs), [0, 4, 0, 4, 1, 0, 5, 0, 5]);
}

#[test]
fn in_lists_mixing_strings_numbers_and_objects() {
    let coll = layered(
        r#"[{"v": "x"}, {"v": 3}, {"v": {"k": "x"}}, {"v": ["x"]}]"#,
        &[
            r#"{"v": {"k": "late"}}"#,
            r#"{"v": "late"}"#,
            r#"{"v": 4}"#,
            r#"{"v": {"k": "x", "j": 1}}"#,
        ],
    );
    let fs = filters(&[
        r#"{"v": {"$in": ["late", 3, {"k": "late"}]}}"#,
        r#"{"v": {"$nin": ["late", 3, {"k": "late"}]}}"#,
        r#"{"v": {"$in": [{"k": "x"}, ["x"], "absent"]}}"#,
        r#"{"v": {"$in": [4, "4", {"k": "absent"}]}}"#,
        r#"{"v": {"$eq": {"j": 1, "k": "x"}}}"#,
    ]);
    assert_eq!(check_all(&coll, &["v"], &fs), [3, 5, 2, 1, 1]);
}

#[test]
fn numeric_segments_on_arrays_and_on_objects_keyed_zero() {
    let coll = layered(
        r#"[{"a": ["p", "q"]}, {"a": {"1": "q"}}, {"a": "p"}]"#,
        &[
            // The key "0" first appears here, in a later segment.
            r#"{"a": {"0": "p"}}"#,
            r#"{"a": [["p"], "q"]}"#,
            r#"{"a": {"00": "p", "0": "r"}}"#,
            r#"{"a": {"0": {"0": "p"}}}"#,
        ],
    );
    assert!(coll.segments()[0].sym("0").is_none());
    let fs = filters(&[
        r#"{"a.0": "p"}"#,
        r#"{"a.1": "q"}"#,
        r#"{"a.00": "p"}"#,
        r#"{"a.0.0": "p"}"#,
        r#"{"a.0": {"$exists": "true"}}"#,
        r#"{"a.0": {"$type": "array"}}"#,
        r#"{"a.2": {"$exists": "false"}}"#,
    ]);
    assert_eq!(check_all(&coll, &["a.0"], &fs), [2, 3, 2, 2, 5, 1, 7]);
}

#[test]
fn index_residual_binds_once_and_filters_survivors() {
    let coll = layered(
        r#"[{"k": 1, "tag": "old"}, {"k": 2, "tag": "old"}, {"k": 1}]"#,
        &[
            r#"{"k": 1, "tag": "fresh", "who": {"n": "Zed"}}"#,
            r#"{"k": 2, "tag": "fresh"}"#,
            r#"{"k": 1, "tag": ["fresh"], "who": {"n": "Amy"}}"#,
        ],
    );
    let fs = filters(&[
        r#"{"k": 1, "tag": "fresh"}"#,
        r#"{"k": 1, "tag": {"$ne": "fresh"}}"#,
        r#"{"k": {"$gte": 1}, "who.n": {"$in": ["Zed", "Nobody"]}}"#,
        r#"{"k": 1, "$or": [{"tag": "old"}, {"who.n": "Amy"}]}"#,
        r#"{"k": 2, "tag": "absent-everywhere"}"#,
    ]);
    let mut indexed = coll.clone();
    indexed.create_index("k");
    for f in &fs {
        assert_eq!(indexed.route_of(f), Route::Index, "{f}");
    }
    assert_eq!(check_all(&coll, &["k"], &fs), [1, 2, 1, 2, 0]);
}

/// A small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

const KEYS: &[&str] = &["a", "b", "0", "name", "email", "tags"];
const STRS: &[&str] = &["s0", "s1", "s2", "late0", "late1", "late2"];

/// A random value over the first `keys`/`strs` of the vocabularies.
fn value(rng: &mut Rng, keys: usize, strs: usize, depth: u32) -> Json {
    match rng.below(if depth == 0 { 2 } else { 4 }) {
        0 => Json::Num(rng.below(4) as u64),
        1 => Json::str(rng.pick(&STRS[..strs])),
        2 => Json::Array(
            (0..rng.below(3))
                .map(|_| value(rng, keys, strs, depth - 1))
                .collect(),
        ),
        _ => document(rng, keys, strs, depth - 1),
    }
}

fn document(rng: &mut Rng, keys: usize, strs: usize, depth: u32) -> Json {
    let mut pairs: Vec<(JStr, Json)> = Vec::new();
    for k in &KEYS[..keys] {
        if rng.below(2) == 0 {
            pairs.push(((*k).into(), value(rng, keys, strs, depth)));
        }
    }
    Json::object(pairs).expect("distinct keys")
}

/// A random filter over the whole vocabulary plus strings no document
/// holds.
fn filter(rng: &mut Rng, depth: u32) -> String {
    const PATHS: &[&str] = &[
        "a", "b", "0", "email", "tags.0", "tags.1", "name.a", "a.0", "a.0.b", "missing",
    ];
    let konst = |rng: &mut Rng| -> String {
        match rng.below(4) {
            0 => rng.below(4).to_string(),
            1 => format!("\"{}\"", rng.pick(&["absent", "s1", "late2"])),
            2 => format!("\"{}\"", rng.pick(STRS)),
            _ => to_string(&value(rng, KEYS.len(), STRS.len(), 1)),
        }
    };
    if depth > 0 && rng.below(4) == 0 {
        let (op, n) = [("$and", 2), ("$or", 2), ("$not", 1)][rng.below(3)];
        let subs: Vec<String> = (0..n).map(|_| filter(rng, depth - 1)).collect();
        return if op == "$not" {
            format!("{{\"$not\": {}}}", subs[0])
        } else {
            format!("{{\"{op}\": [{}]}}", subs.join(", "))
        };
    }
    let path = rng.pick(PATHS);
    let cond = match rng.below(9) {
        0 => konst(rng),
        1 => format!("{{\"$ne\": {}}}", konst(rng)),
        2 => format!("{{\"$gt\": {}}}", konst(rng)),
        3 => format!("{{\"$lte\": {}}}", konst(rng)),
        4 => format!("{{\"$in\": [{}, {}]}}", konst(rng), konst(rng)),
        5 => format!("{{\"$nin\": [{}, {}]}}", konst(rng), konst(rng)),
        6 => format!("{{\"$exists\": \"{}\"}}", ["true", "false"][rng.below(2)]),
        7 => format!("{{\"$size\": {}}}", rng.below(3)),
        _ => format!(
            "{{\"$type\": \"{}\"}}",
            rng.pick(&["string", "number", "object", "array"])
        ),
    };
    format!("{{\"{path}\": {cond}}}")
}

#[test]
fn random_filters_agree_with_the_oracle_across_segments() {
    for seed in 1..=4u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        // The first segment knows half the keys and strings; each later
        // third of the inserts widens the vocabulary.
        let seed_docs: Vec<Json> = (0..120).map(|_| document(&mut rng, 3, 3, 2)).collect();
        let mut coll = Collection::from_json(&Json::Array(seed_docs));
        for i in 0..240 {
            let (keys, strs) = match i / 80 {
                0 => (4, 4),
                1 => (5, 5),
                _ => (KEYS.len(), STRS.len()),
            };
            coll.insert(&document(&mut rng, keys, strs, 2));
        }
        let fs: Vec<Filter> = (0..60)
            .map(|_| Filter::parse_str(&filter(&mut rng, 2)).expect("generated filter parses"))
            .collect();
        check_all(&coll, &["a", "email", "tags.0"], &fs);
    }
}
