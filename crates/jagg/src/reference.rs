//! The naive, value-based reference executor.
//!
//! Every stage operates on owned [`Json`] documents: `$match` clones the
//! survivors, `$unwind` clones one whole document per element, `$group`
//! keys are found by linear scan with [`Json`] equality. This is the
//! semantics oracle the tree-backed executor ([`crate::exec`]) is
//! differentially tested and benchmarked against: slow on purpose, simple
//! enough to audit by eye, and sharing **no** evaluation machinery with
//! the tree path (only the parsed [`Pipeline`] IR and the pure
//! output-assembly helpers `insert_path`/`set_at`).

use std::cmp::Ordering;

use jsondata::Json;
use mongofind::{insert_path, Path};

use crate::exec::{clamp_len, cmp_opt_json, saturate, set_at};
use crate::pipeline::{
    Accumulator, GroupSpec, IdExpr, Pipeline, ProjectField, SortOrder, Stage, ValueExpr,
};

/// Runs the pipeline over owned documents. The defined output of every
/// pipeline — [`crate::aggregate`] must agree with this exactly.
pub fn aggregate(docs: &[Json], pipeline: &Pipeline) -> Vec<Json> {
    let mut rows: Vec<Json> = docs.to_vec();
    for stage in &pipeline.stages {
        rows = step(rows, stage);
    }
    rows
}

/// The cardinality of the row stream *leaving* each stage — `out[i]` is
/// the number of rows after `pipeline.stages[i]`. This is the oracle the
/// `EXPLAIN ANALYZE` agreement gate compares the tree executor's
/// per-stage trace against: the traced executor must report the same
/// counts even through its top-k fusion (whose interior `$project`/
/// `$sort`/`$skip` cardinalities it derives arithmetically).
pub fn stage_cardinalities(docs: &[Json], pipeline: &Pipeline) -> Vec<usize> {
    let mut rows: Vec<Json> = docs.to_vec();
    let mut out = Vec::with_capacity(pipeline.stages.len());
    for stage in &pipeline.stages {
        rows = step(rows, stage);
        out.push(rows.len());
    }
    out
}

fn eval_expr(doc: &Json, e: &ValueExpr) -> Option<Json> {
    match e {
        ValueExpr::Const(c) => Some(c.clone()),
        ValueExpr::Field(p) => p.resolve(doc).cloned(),
    }
}

fn step(mut rows: Vec<Json>, stage: &Stage) -> Vec<Json> {
    match stage {
        Stage::Match(f) => {
            rows.retain(|d| f.matches(d));
            rows
        }
        Stage::Project(spec) => rows.iter().map(|d| project(d, spec)).collect(),
        Stage::Unwind(path) => rows.into_iter().flat_map(|d| unwind(d, path)).collect(),
        Stage::Group(spec) => group(&rows, spec),
        Stage::Sort(spec) => sort(rows, spec),
        Stage::Skip(n) => {
            let n = clamp_len(*n).min(rows.len());
            rows.drain(..n);
            rows
        }
        Stage::Limit(n) => {
            rows.truncate(clamp_len(*n));
            rows
        }
        Stage::Count(label) => {
            if rows.is_empty() {
                Vec::new()
            } else {
                vec![
                    Json::object(vec![(label.clone(), Json::Num(rows.len() as u64))])
                        .expect("single key"),
                ]
            }
        }
    }
}

fn project(doc: &Json, spec: &[(Path, ProjectField)]) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    for (path, field) in spec {
        let value = match field {
            ProjectField::Include => path.resolve(doc).cloned(),
            ProjectField::Expr(e) => eval_expr(doc, e),
        };
        if let Some(v) = value {
            insert_path(&mut pairs, &path.0, v);
        }
    }
    Json::object(pairs).expect("insert_path keeps keys distinct")
}

fn unwind(doc: Json, path: &Path) -> Vec<Json> {
    match path.resolve(&doc) {
        None => Vec::new(),
        Some(Json::Array(items)) => {
            let items = items.clone();
            items
                .into_iter()
                .map(|elem| {
                    let mut out = doc.clone();
                    set_at(&mut out, &path.0, elem);
                    out
                })
                .collect()
        }
        // Non-array values pass through as their own single element.
        Some(_) => vec![doc],
    }
}

fn group_key(doc: &Json, id: &IdExpr) -> Option<Json> {
    match id {
        IdExpr::Const(c) => Some(c.clone()),
        IdExpr::Field(p) => p.resolve(doc).cloned(),
        IdExpr::Doc(fields) => {
            let mut pairs: Vec<(String, Json)> = Vec::new();
            for (name, e) in fields {
                if let Some(v) = eval_expr(doc, e) {
                    pairs.push((name.clone(), v));
                }
            }
            Some(Json::object(pairs).expect("parser validated distinct names"))
        }
    }
}

fn group(rows: &[Json], spec: &GroupSpec) -> Vec<Json> {
    // Linear-scan key table: Json equality, no hashing, no classes.
    let mut keys: Vec<Option<Json>> = Vec::new();
    let mut members: Vec<Vec<&Json>> = Vec::new();
    for doc in rows {
        let key = group_key(doc, &spec.id);
        match keys.iter().position(|k| *k == key) {
            Some(i) => members[i].push(doc),
            None => {
                keys.push(key);
                members.push(vec![doc]);
            }
        }
    }
    let mut groups: Vec<(Option<Json>, Vec<&Json>)> = keys.into_iter().zip(members).collect();
    groups.sort_by(|(a, _), (b, _)| cmp_opt_json(a, b));
    groups
        .into_iter()
        .map(|(key, docs)| {
            let mut pairs: Vec<(String, Json)> = Vec::new();
            if let Some(k) = key {
                pairs.push(("_id".into(), k));
            }
            for (name, acc) in &spec.accs {
                if let Some(v) = accumulate(&docs, acc) {
                    pairs.push((name.clone(), v));
                }
            }
            Json::object(pairs).expect("parser validated distinct names")
        })
        .collect()
}

fn accumulate(docs: &[&Json], acc: &Accumulator) -> Option<Json> {
    let observed =
        |e: &ValueExpr| -> Vec<Json> { docs.iter().filter_map(|d| eval_expr(d, e)).collect() };
    let numbers = |e: &ValueExpr| -> Vec<u64> {
        docs.iter()
            .filter_map(|d| eval_expr(d, e).and_then(|v| v.as_num()))
            .collect()
    };
    match acc {
        Accumulator::Sum(e) => Some(Json::Num(saturate(
            numbers(e).into_iter().map(u128::from).sum(),
        ))),
        Accumulator::Avg(e) => {
            let ns = numbers(e);
            if ns.is_empty() {
                None
            } else {
                let total: u128 = ns.iter().copied().map(u128::from).sum();
                Some(Json::Num(saturate(total / ns.len() as u128)))
            }
        }
        Accumulator::Min(e) => observed(e).into_iter().min_by(|a, b| a.total_cmp(b)),
        Accumulator::Max(e) => observed(e).into_iter().max_by(|a, b| a.total_cmp(b)),
        Accumulator::Count => Some(Json::Num(docs.len() as u64)),
        Accumulator::Push(e) => Some(Json::Array(observed(e))),
        Accumulator::First(e) => observed(e).into_iter().next(),
        Accumulator::Last(e) => observed(e).into_iter().last(),
    }
}

fn sort(rows: Vec<Json>, spec: &[(Path, SortOrder)]) -> Vec<Json> {
    let mut keyed: Vec<(Vec<Option<Json>>, Json)> = rows
        .into_iter()
        .map(|doc| {
            let keys = spec.iter().map(|(p, _)| p.resolve(&doc).cloned()).collect();
            (keys, doc)
        })
        .collect();
    keyed.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(spec, ka, kb));
    keyed.into_iter().map(|(_, doc)| doc).collect()
}

/// The `$sort` comparator over per-row key vectors: the first inequality
/// under [`cmp_opt_json`] decides, honouring each key's direction.
fn cmp_sort_keys(spec: &[(Path, SortOrder)], ka: &[Option<Json>], kb: &[Option<Json>]) -> Ordering {
    for (i, (_, order)) in spec.iter().enumerate() {
        let ord = cmp_opt_json(&ka[i], &kb[i]);
        let ord = match order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}
