//! The naive, value-based reference executor.
//!
//! Every stage operates on owned [`Json`] documents: `$match` clones the
//! survivors, `$unwind` clones one whole document per element, `$group`
//! keys are found by linear scan with [`Json`] equality. This is the
//! semantics oracle the tree-backed executor ([`crate::exec`]) is
//! differentially tested and benchmarked against: slow on purpose, simple
//! enough to audit by eye, and sharing **no** code with the tree path
//! beyond the parsed [`Pipeline`] IR, [`Path::resolve`] and the data
//! model's own `Json` order. Its output assembly (projection nesting,
//! `$unwind` rebinding), its missing-first sort order and its numeric
//! clamps are its own transcriptions of the aggregation semantics of
//! Botoeva et al. (arXiv 2509.12189), so a bug in the executor's versions
//! shows up as a disagreement.

use std::cmp::Ordering;

use jsondata::{JStr, Json};
use mongofind::Path;

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
            let n = length(*n).min(rows.len());
            rows.drain(..n);
            rows
        }
        Stage::Limit(n) => {
            rows.truncate(length(*n));
            rows
        }
        Stage::Count(label) => {
            if rows.is_empty() {
                Vec::new()
            } else {
                vec![
                    Json::object(vec![(label.as_str().into(), Json::Num(rows.len() as u64))])
                        .expect("single key"),
                ]
            }
        }
    }
}

fn project(doc: &Json, spec: &[(Path, ProjectField)]) -> Json {
    spec.iter()
        .fold(Json::empty_object(), |out, (path, field)| {
            let value = match field {
                ProjectField::Include => path.resolve(doc).cloned(),
                ProjectField::Expr(e) => eval_expr(doc, e),
            };
            match value {
                Some(v) => put(out, &path.0, v),
                None => out,
            }
        })
}

/// `$project`'s output tree: `obj` with `v` placed at the dotted `path`.
/// Fields come out in the order the projection names them, a path's
/// missing prefix becomes nested objects, the first value placed at a
/// path wins, and a prefix that already holds a non-object leaves `obj`
/// as it is.
fn put(obj: Json, path: &[JStr], v: Json) -> Json {
    let Json::Object(o) = obj else {
        return obj;
    };
    let (head, rest) = path.split_first().expect("projection paths are nonempty");
    let mut fields: Vec<(JStr, Json)> = o.pairs().to_vec();
    match fields.iter().position(|(k, _)| k == head) {
        Some(_) if rest.is_empty() => {}
        Some(i) => {
            let inner = std::mem::replace(&mut fields[i].1, Json::Num(0));
            fields[i].1 = put(inner, rest, v);
        }
        None if rest.is_empty() => fields.push((head.clone(), v)),
        None => fields.push((head.clone(), put(Json::empty_object(), rest, v))),
    }
    Json::object(fields).expect("a field is added only under a fresh key")
}

fn unwind(doc: Json, path: &Path) -> Vec<Json> {
    match path.resolve(&doc) {
        None => Vec::new(),
        Some(Json::Array(items)) => items
            .iter()
            .map(|elem| replace(doc.clone(), &path.0, elem.clone()))
            .collect(),
        // Non-array values pass through as their own single element.
        Some(_) => vec![doc],
    }
}

/// `doc` with the value at the dotted `path` replaced by `v`, stepping as
/// [`Path::resolve`] does (a numeric segment indexes an array, any
/// segment names an object key); a path that does not resolve leaves
/// `doc` as it is.
fn replace(doc: Json, path: &[JStr], v: Json) -> Json {
    let Some((head, rest)) = path.split_first() else {
        return v;
    };
    match doc {
        Json::Array(mut items) => {
            if let Some(slot) = head.parse::<usize>().ok().and_then(|i| items.get_mut(i)) {
                let old = std::mem::replace(slot, Json::Num(0));
                *slot = replace(old, rest, v);
            }
            Json::Array(items)
        }
        Json::Object(o) if o.get(head).is_some() => Json::object(
            o.pairs()
                .iter()
                .map(|(k, c)| {
                    let c = if k == head {
                        replace(c.clone(), rest, v.clone())
                    } else {
                        c.clone()
                    };
                    (k.clone(), c)
                })
                .collect(),
        )
        .expect("keys are unchanged"),
        other => other,
    }
}

fn group_key(doc: &Json, id: &IdExpr) -> Option<Json> {
    match id {
        IdExpr::Const(c) => Some(c.clone()),
        IdExpr::Field(p) => p.resolve(doc).cloned(),
        IdExpr::Doc(fields) => {
            let mut pairs: Vec<(JStr, Json)> = Vec::new();
            for (name, e) in fields {
                if let Some(v) = eval_expr(doc, e) {
                    pairs.push((name.as_str().into(), v));
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
    groups.sort_by(|(a, _), (b, _)| missing_first(a, b));
    groups
        .into_iter()
        .map(|(key, docs)| {
            let mut pairs: Vec<(JStr, Json)> = Vec::new();
            if let Some(k) = key {
                pairs.push(("_id".into(), k));
            }
            for (name, acc) in &spec.accs {
                if let Some(v) = accumulate(&docs, acc) {
                    pairs.push((name.as_str().into(), v));
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
        Accumulator::Sum(e) => Some(Json::Num(clamp(
            numbers(e).into_iter().map(u128::from).sum(),
        ))),
        Accumulator::Avg(e) => {
            let ns = numbers(e);
            if ns.is_empty() {
                None
            } else {
                let total: u128 = ns.iter().copied().map(u128::from).sum();
                Some(Json::Num(clamp(total / ns.len() as u128)))
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
/// under [`missing_first`] decides, honouring each key's direction.
fn cmp_sort_keys(spec: &[(Path, SortOrder)], ka: &[Option<Json>], kb: &[Option<Json>]) -> Ordering {
    for (i, (_, order)) in spec.iter().enumerate() {
        let ord = missing_first(&ka[i], &kb[i]);
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

/// The sort and group order on possibly missing values: a missing value
/// precedes every present one, and present values compare under
/// [`Json::total_cmp`].
fn missing_first(a: &Option<Json>, b: &Option<Json>) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.total_cmp(y),
        _ => a.is_some().cmp(&b.is_some()),
    }
}

/// A `$sum`/`$avg` total in the fragment's numbers: past `u64::MAX` it
/// stays at `u64::MAX`.
fn clamp(total: u128) -> u64 {
    total.min(u128::from(u64::MAX)) as u64
}

/// A `$skip`/`$limit` operand as a row count: one the platform cannot
/// count to means "every row".
fn length(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}
