//! S1 (§4.1): the surveyed systems — MongoDB-style find and JSONPath —
//! both directly and through their JNL compilations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jsondata::JsonTree;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("s1_dialects");
    g.sample_size(10);
    for n in [1_000usize, 10_000] {
        let people = jsondata::gen::person_records(n, 7);
        let coll = mongofind::Collection::from_array(&people).unwrap();
        let filter = mongofind::Filter::parse_str(r#"{"name.first": {"$eq": "Sue"}}"#).unwrap();
        g.bench_with_input(BenchmarkId::new("mongo_find_direct", n), &coll, |b, c| {
            b.iter(|| c.find(&filter).len())
        });
        g.bench_with_input(BenchmarkId::new("mongo_find_via_jnl", n), &coll, |b, c| {
            b.iter(|| bench::jnl_docs(c, &filter).len())
        });
    }
    let store = bench::scaling_doc(5_000, 11);
    let tree = JsonTree::build(&store);
    for path in ["$..a", "$.*"] {
        let p = jsonpath::JsonPath::parse(path).unwrap();
        g.bench_with_input(BenchmarkId::new("jsonpath_direct", path), &p, |b, p| {
            b.iter(|| p.select_nodes(&tree).len())
        });
        g.bench_with_input(BenchmarkId::new("jsonpath_via_jnl", path), &p, |b, p| {
            b.iter(|| p.select_nodes_via_jnl(&tree).len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
