//! Shared workloads and measurement helpers for the experiment harness and
//! the bench tests. Each experiment (E1–E12, `harness e1`–`e12`)
//! reproduces one complexity claim of the paper; the workloads here
//! define its parameter sweeps.

pub mod jsonout;
pub mod memtrack;

use std::time::Instant;

use jnl::ast::{Binary, Unary};
use jsl::ast::{Jsl, NodeTest};
use jsondata::{gen, Json};

/// Times one run of a closure in milliseconds.
fn once_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// The middle element of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times one closure in milliseconds (median of `reps` runs).
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median((0..reps).map(|_| once_ms(&mut f)).collect())
}

/// What a query context costs over the same query run ungoverned, as
/// [`ctx_overhead`] measured it.
pub struct Overhead {
    /// Median wall time of the ungoverned run.
    pub base_ms: f64,
    /// `base_ms` plus the median paired delta.
    pub ctx_ms: f64,
    /// The median paired delta as a percentage of `base_ms`.
    pub pct: f64,
    /// Heap allocations of one run on a serial pool (the same with and
    /// without the context).
    pub allocs: u64,
}

/// The overhead gate of `harness s7` (a live deadline) and `s10` (a
/// metrics sink): `run` under `ctx` against `run` under
/// `QueryCtx::unlimited()`, which is what the ungoverned entry points
/// pass. It asserts three things, with `gate` naming the caller:
///
/// 1. both runs return the same output size;
/// 2. on a serial pool both allocate exactly as often (a count, so no
///    noise: the serial pool keeps it off the thread schedule, and the
///    `FxHashMap` seed is fixed per process);
/// 3. on `coll`'s own pool, the minimum of 31 alternating-order paired
///    deltas is at most 2% of the base time plus 0.25 ms. Interference
///    on a shared runner is one-sided: a spike lands on one half of a
///    pair and moves only that pair's delta, while a real per-item
///    regression is in every pair, so the minimum still shows it. The
///    median delta is what gets reported.
pub fn ctx_overhead(
    gate: &str,
    label: &str,
    coll: &mut mongofind::Collection,
    ctx: &jguard::QueryCtx,
    run: &dyn Fn(&mongofind::Collection, &jguard::QueryCtx) -> usize,
) -> Overhead {
    let unlimited = jguard::QueryCtx::unlimited();
    assert_eq!(
        run(coll, &unlimited),
        run(coll, ctx),
        "{gate}: output differs under the context on {label}"
    );
    let pool = *coll.pool();
    coll.set_pool(jpar::Pool::serial());
    let (_, base) = memtrack::measure(|| run(coll, &unlimited));
    let (_, with) = memtrack::measure(|| run(coll, ctx));
    coll.set_pool(pool);
    assert_eq!(
        with.allocs, base.allocs,
        "{gate}: the context changes allocations on {label}"
    );
    let coll = &*coll;
    let pairs: Vec<(f64, f64)> = (0..31)
        .map(|i| {
            if i % 2 == 0 {
                let b = once_ms(|| run(coll, &unlimited));
                (b, once_ms(|| run(coll, ctx)))
            } else {
                let c = once_ms(|| run(coll, ctx));
                (once_ms(|| run(coll, &unlimited)), c)
            }
        })
        .collect();
    let base_ms = median(pairs.iter().map(|&(b, _)| b).collect());
    let delta_ms = median(pairs.iter().map(|&(b, c)| c - b).collect());
    let min_delta_ms = pairs
        .iter()
        .map(|&(b, c)| c - b)
        .fold(f64::INFINITY, f64::min);
    let ctx_ms = base_ms + delta_ms;
    let pct = delta_ms / base_ms * 100.0;
    assert!(
        min_delta_ms <= base_ms * 0.02 + 0.25,
        "{gate}: overhead on {label}: {base_ms:.3} -> {ctx_ms:.3} ms \
         ({pct:+.2}% median, {min_delta_ms:.3} ms min paired delta)"
    );
    Overhead {
        base_ms,
        ctx_ms,
        pct,
        allocs: base.allocs,
    }
}

/// The document-scan oracle, ungoverned.
pub fn scan_refs(coll: &mongofind::Collection, f: &mongofind::Filter) -> Vec<mongofind::DocRef> {
    coll.find_refs_via_scan_with_ctx(f, &jguard::QueryCtx::unlimited())
        .expect("an unlimited scan never trips")
}

/// The routed find path (index probe or scan, per `route_of`), ungoverned.
pub fn routed_refs(coll: &mongofind::Collection, f: &mongofind::Filter) -> Vec<mongofind::DocRef> {
    coll.find_refs_with_ctx(f, &jguard::QueryCtx::unlimited())
        .expect("an unlimited find never trips")
}

/// The JNL oracle (the paper's Prop 1 engine), ungoverned.
pub fn jnl_refs(coll: &mongofind::Collection, f: &mongofind::Filter) -> Vec<mongofind::DocRef> {
    coll.find_refs_via_jnl_with_ctx(f, &jguard::QueryCtx::unlimited())
        .expect("an unlimited JNL evaluation never trips")
}

/// [`jnl_refs`], materialised.
pub fn jnl_docs(coll: &mongofind::Collection, f: &mongofind::Filter) -> Vec<Json> {
    jnl_refs(coll, f)
        .into_iter()
        .map(|d| coll.json_of(d))
        .collect()
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// exponent of a scaling curve. Linear algorithms fit ≈1, quadratic ≈2.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-9).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// A balanced document of roughly `target` nodes (bounded height, wide
/// fan-out) whose leaves cycle through a small value pool so that subtree
/// equalities and `Unique` have work to do.
pub fn scaling_doc(target: usize, seed: u64) -> Json {
    // Compose chunks until the target is met: a single `random_json` call
    // may draw a leaf at the root, so the document is assembled as an array
    // of independently seeded random chunks.
    let mut chunks: Vec<Json> = Vec::new();
    let mut total = 1usize;
    let mut i = 0u64;
    while total < target {
        let cfg = gen::GenConfig {
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(i),
            target_nodes: (target / 8).clamp(32, 4096),
            max_depth: 10,
            max_width: 10,
            ..gen::GenConfig::default()
        };
        let chunk = gen::random_json(&cfg);
        total += chunk.node_count();
        chunks.push(chunk);
        i += 1;
    }
    Json::Array(chunks)
}

/// E1: a deterministic JNL formula exercising navigation, tests, and both
/// equality forms.
pub fn e1_formula() -> Unary {
    jnl::parse_unary(
        r#"([@"a" ; @"b"] | [@"items" ; @0] | eqdoc(@"name", "John") | eqpair(@"a", @"b"))
           & !eqdoc(@"id", 17)"#,
    )
    .expect("well-formed")
}

/// E1 (formula sweep): a chain of `k` existential conjuncts.
pub fn e1_formula_sized(k: usize) -> Unary {
    Unary::and(
        (0..k)
            .map(|i| {
                Unary::or(vec![
                    Unary::exists(Binary::compose(vec![
                        Binary::key(format!("k{}", i % 7)),
                        Binary::key("x"),
                    ])),
                    Unary::not(Unary::eq_doc(
                        Binary::key(format!("k{}", i % 5)),
                        Json::Num(i as u64),
                    )),
                ])
            })
            .collect(),
    )
}

/// E3: an equality-free recursive/non-deterministic formula (PDL engine).
pub fn e3_formula_eqfree() -> Unary {
    jnl::parse_unary(r#"eqdoc(((@/.*/)* ; (@[0:*])*)*, "yoga") | [(@/.*/)* ; @"needle"]"#)
        .expect("well-formed")
}

/// E3: the same navigation with a binary equality (cubic engine).
pub fn e3_formula_eqpair() -> Unary {
    Unary::eq_pair(
        Binary::star(Binary::compose(vec![
            Binary::star(Binary::any_key()),
            Binary::star(Binary::any_index()),
        ])),
        Binary::star(Binary::any_key()),
    )
}

/// E7: `Unique` over one wide array with a controlled duplicate pool.
pub fn e7_doc(n: usize, distinct: usize) -> Json {
    gen::array_with_duplicates(n, distinct, 0xE7)
}

/// E7: the JSL formula (`Arr ∧ Unique`).
pub fn e7_formula() -> Jsl {
    Jsl::and(vec![Jsl::Test(NodeTest::Arr), Jsl::Test(NodeTest::Unique)])
}

/// S3 (JNL side): an array of `objects` objects with `keys_each` keys
/// apiece, all `objects × keys_each` keys globally distinct — a
/// high-distinct-key tree where a per-symbol cache gets no cross-node
/// reuse, so the cost of an edge test is the cost of deciding one symbol.
pub fn s3_jnl_doc(objects: usize, keys_each: usize) -> Json {
    Json::Array(
        (0..objects)
            .map(|o| {
                Json::object(
                    (0..keys_each)
                        .map(|j| {
                            let i = o * keys_each + j;
                            (format!("k{i}").into(), Json::Num(i as u64))
                        })
                        .collect(),
                )
                .expect("generated keys are distinct")
            })
            .collect(),
    )
}

/// S3 (JNL side): `[X_e]⊤` for a regex `e` over the `s3_jnl_doc` key
/// space — keys whose last digit is 7, ≈10% of them, so existential scans
/// rarely short-circuit.
pub fn s3_jnl_workload() -> Unary {
    let e = relex::Regex::parse("k[0-9]*7").expect("well-formed");
    Unary::exists(Binary::key_regex(e))
}

/// S3 (JSL side): an object with `n` distinct keys `u{i}` whose values are
/// `n` distinct string atoms `v{i}` — the high-distinct-symbol regime
/// where each regex is decided on every symbol once, by one DFA table walk
/// per symbol in the bitset pass.
pub fn s3_doc(n: usize) -> Json {
    Json::object(
        (0..n)
            .map(|i| (format!("u{i}").into(), Json::str(format!("v{i}"))))
            .collect(),
    )
    .expect("generated keys are distinct")
}

/// S3 (JSL side): a `patternProperties`-shaped formula — keys with an even
/// last digit must hold string atoms matching `v[0-9]+`, and some key
/// ending in 7 must exist.
pub fn s3_jsl_formula() -> Jsl {
    let even_keys = relex::Regex::parse("u[0-9]*[02468]").expect("well-formed");
    let seven_keys = relex::Regex::parse("u[0-9]*7").expect("well-formed");
    let values = relex::Regex::parse("v[0-9]+").expect("well-formed");
    Jsl::and(vec![
        Jsl::BoxKey(even_keys, Box::new(Jsl::Test(NodeTest::Pattern(values)))),
        Jsl::DiamondKey(seven_keys, Box::new(Jsl::Test(NodeTest::Str))),
    ])
}

/// S4: the large-document parse-fusion workloads — `(label, text)` pairs
/// covering the mixed random scaling document (deep-ish, container-heavy)
/// and a wide record batch (the `mongofind`-collection shape: many small
/// objects over a shared key vocabulary).
pub fn s4_workloads() -> Vec<(&'static str, String)> {
    use jsondata::serialize::to_string;
    vec![
        (
            "scaling_mixed_64k_nodes",
            to_string(&scaling_doc(1 << 16, 5)),
        ),
        (
            "person_records_20k",
            to_string(&gen::person_records(20_000, 7)),
        ),
    ]
}

/// S5: the aggregation workload collection — 20k person records serialized,
/// loaded through the fused parser into one tree column.
pub fn s5_collection_text() -> String {
    jsondata::serialize::to_string(&gen::person_records(20_000, 7))
}

/// S5: the benchmark pipelines (label, pipeline JSON). Together they cover
/// every stage class: selection, unnest, grouping with five accumulators,
/// projection, sorting and pagination.
pub fn s5_pipelines() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "match_unwind_group_sort",
            r#"[
                {"$match": {"age": {"$gte": 30}}},
                {"$unwind": "$hobbies"},
                {"$group": {"_id": "$hobbies",
                            "n": {"$count": {}},
                            "total_age": {"$sum": "$age"},
                            "avg_age": {"$avg": "$age"},
                            "min_age": {"$min": "$age"},
                            "max_age": {"$max": "$age"}}},
                {"$sort": {"n": 0, "_id": 1}}
            ]"#,
        ),
        (
            // The leading $match is deliberately OUTSIDE the exact JNL
            // fragment ($in alongside an order comparison), so this
            // pipeline exercises the per-document bound-filter scan
            // (`BoundFilter::matches_at`).
            "match_project_sort_paginate",
            r#"[
                {"$match": {"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$lte": 89}}},
                {"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}},
                {"$sort": {"age": 0, "name.first": 1}},
                {"$skip": 100},
                {"$limit": 50}
            ]"#,
        ),
        (
            // The leading $match is in the exact JNL fragment (the key
            // keeps its historical name); the executor answers it on the
            // routed find path — a scan here, no index is declared —
            // before the group stage.
            "jnl_match_group_compound_id",
            r#"[
                {"$match": {"name.last": {"$in": ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"]}}},
                {"$group": {"_id": {"f": "$name.first", "l": "$name.last"},
                            "n": {"$count": {}},
                            "ages": {"$push": "$age"},
                            "youngest": {"$min": "$age"}}},
                {"$sort": {"n": 0, "_id": 1}},
                {"$limit": 10}
            ]"#,
        ),
    ]
}

/// S6: the parallel-execution benchmark pipelines (label, pipeline JSON).
/// Both group — the stage whose chunk-merge plan the experiment gates —
/// and one leads with an exact-fragment `$match` (a parallel document
/// scan) while the other fans `$unwind` row expansion out first.
pub fn s6_pipelines() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "jnl_match_group",
            r#"[
                {"$match": {"name.last": {"$in": ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"]}}},
                {"$group": {"_id": {"f": "$name.first", "l": "$name.last"},
                            "n": {"$count": {}},
                            "ages": {"$push": "$age"},
                            "youngest": {"$min": "$age"}}},
                {"$sort": {"n": 0, "_id": 1}},
                {"$limit": 10}
            ]"#,
        ),
        (
            "unwind_group",
            r#"[
                {"$unwind": "$hobbies"},
                {"$group": {"_id": "$hobbies",
                            "n": {"$count": {}},
                            "total_age": {"$sum": "$age"},
                            "avg_age": {"$avg": "$age"},
                            "first_id": {"$first": "$id"},
                            "last_id": {"$last": "$id"}}},
                {"$sort": {"n": 0, "_id": 1}}
            ]"#,
        ),
    ]
}

/// S6: the find filter driving the chunk-parallel document scan (outside
/// the exact JNL fragment, so it runs the bound filter,
/// `BoundFilter::matches_at`, per document).
pub const S6_FIND_FILTER: &str =
    r#"{"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$gte": 30, "$lte": 79}}"#;

/// S6: the exact-fragment filter driving the per-segment JNL fan-out
/// (one whole-tree Proposition 1 evaluation per segment).
pub const S6_JNL_FILTER: &str = r#"{"name.last": {"$in": ["Doe", "Kim", "Chen"]}}"#;

/// S9: the paths the secondary-index experiment declares indexes on
/// (`name.last` is deliberately left unindexed so one workload exercises
/// the probe+residual split).
pub const S9_INDEX_PATHS: [&str; 3] = ["id", "name.first", "age"];

/// S9: the index-vs-scan workloads (label, filter JSON) over the 20k
/// person records. `eq_unique` is the selective-`$match` headline (one
/// matching document); the rest cover common `$eq`, pure ranges, `$in`,
/// all-probed compounds, and the probe+residual split.
pub fn s9_workloads() -> Vec<(&'static str, &'static str)> {
    vec![
        ("eq_unique", r#"{"id": 12345}"#),
        ("eq_common", r#"{"name.first": "Sue"}"#),
        ("range", r#"{"age": {"$gte": 40, "$lt": 50}}"#),
        (
            "in_set",
            r#"{"name.first": {"$in": ["Sue", "Omar", "Ivy"]}}"#,
        ),
        (
            "compound_probed",
            r#"{"name.first": "Sue", "age": {"$gte": 40, "$lt": 60}}"#,
        ),
        (
            "probe_residual",
            r#"{"age": {"$gte": 40, "$lt": 60}, "name.last": "Kim"}"#,
        ),
    ]
}

/// S10: the supplemental route workloads (label, filter JSON, expected
/// route name) that extend [`s9_workloads`] — all of which probe the
/// declared indexes — so the explain/execute agreement gate exercises
/// both branches of `Collection::route_of`. `name.last` is unindexed, so
/// both the exact-fragment equality (the label keeps its historical
/// name) and the order comparison take the chunk-parallel scan.
pub fn s10_route_workloads() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut all: Vec<(&'static str, &'static str, &'static str)> = s9_workloads()
        .into_iter()
        .map(|(label, src)| (label, src, "index"))
        .collect();
    all.push(("jnl_eq_unindexed", r#"{"name.last": "Kim"}"#, "scan"));
    all.push((
        "scan_order_unindexed",
        r#"{"name.last": {"$gt": "K"}}"#,
        "scan",
    ));
    all
}

/// E9: the even-depth recursive JSL expression of the paper's Example 2.
pub fn e9_even_depth() -> jsl::RecursiveJsl {
    jsl::RecursiveJsl {
        defs: vec![
            ("g1".into(), Jsl::box_any_key(Jsl::Var("g2".into()))),
            (
                "g2".into(),
                Jsl::and(vec![
                    Jsl::diamond_any_key(Jsl::True),
                    Jsl::box_any_key(Jsl::Var("g1".into())),
                ]),
            ),
        ],
        base: Jsl::Var("g1".into()),
    }
}

/// E9: a complete object tree of the given (even) height.
pub fn e9_doc(height: usize, branch: usize) -> Json {
    gen::balanced_tree(height, branch)
}

/// Formats a measurement table row.
pub fn row(cols: &[String]) -> String {
    cols.iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_fits_known_exponents() {
        let linear: Vec<(f64, f64)> = (1..8).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 0.01);
        let quad: Vec<(f64, f64)> = (1..8).map(|i| (i as f64, 0.5 * (i * i) as f64)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 0.01);
    }

    #[test]
    fn e1_linear_agrees_with_naive() {
        let tree = jsondata::JsonTree::build(&scaling_doc(3000, 1));
        let phi = e1_formula();
        assert_eq!(
            jnl::eval::naive::eval(&tree, &phi),
            jnl::eval::linear::eval(&tree, &phi).unwrap()
        );
    }

    #[test]
    fn e7_pairwise_agrees_with_canonical() {
        use jsl::{EvalOptions, UniqueStrategy};
        let tree = jsondata::JsonTree::build(&e7_doc(512, 100));
        let with = |unique| jsl::eval::evaluate_with(&tree, &e7_formula(), EvalOptions { unique });
        assert_eq!(
            with(UniqueStrategy::NaivePairwise),
            with(UniqueStrategy::Canonical)
        );
    }

    /// The `harness s3` gates at a size `cargo test` runs in milliseconds:
    /// the engines against oracles that share no matcher code with them.
    #[test]
    fn s3_engines_agree_with_independent_oracles() {
        let tree = jsondata::JsonTree::build(&s3_jnl_doc(64, 8));
        let phi = s3_jnl_workload();
        let oracle = jnl::eval::naive::eval(&tree, &phi);
        assert_eq!(oracle, jnl::eval::pdl::eval(&tree, &phi).unwrap(), "pdl");
        assert_eq!(oracle, jnl::eval::cubic::eval(&tree, &phi), "cubic");
        assert_eq!(oracle.iter().filter(|&&b| b).count(), 51, "hits");

        let tree = jsondata::JsonTree::build(&s3_doc(300));
        let psi = s3_jsl_formula();
        assert_eq!(
            jsl::streaming::node_set(&psi, &tree).unwrap(),
            jsl::eval::evaluate(&tree, &psi)
        );
    }

    #[test]
    fn workloads_are_well_formed() {
        assert!(e1_formula().fragment().is_deterministic());
        assert!(!e3_formula_eqfree().fragment().eq_pair);
        assert!(e3_formula_eqpair().fragment().eq_pair);
        assert_eq!(e9_even_depth().well_formed(), Ok(()));
        // scaling_doc overshoots by at most one chunk.
        let d = scaling_doc(1000, 1);
        let n = d.node_count();
        assert!((1000..1000 + 4200).contains(&n), "{n} nodes");
    }
}
