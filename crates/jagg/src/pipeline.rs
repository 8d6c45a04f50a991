//! Pipeline surface syntax → typed stage IR.
//!
//! A pipeline is a JSON array of single-operator stage documents, exactly
//! the MongoDB shape the Botoeva–Corman–Townsend report ("Towards a
//! Standard for JSON Document Databases") formalises:
//!
//! ```json
//! [
//!   {"$match":  {"age": {"$gte": 30}}},
//!   {"$unwind": "$hobbies"},
//!   {"$group":  {"_id": "$hobbies", "n": {"$count": {}}}},
//!   {"$sort":   {"n": 0, "_id": 1}}
//! ]
//! ```
//!
//! Parsing lowers each stage to a typed [`Stage`] once, up front — the
//! executors ([`crate::exec`] on trees, [`crate::reference`] on values)
//! never re-inspect surface JSON. Deviations from MongoDB forced by the
//! paper's §2 fragment (numbers are ℕ; there is no `null`) are documented
//! on the relevant constructs: sort directions are `1` (ascending) and `0`
//! (descending, since `-1` is unrepresentable), and accumulators over an
//! empty observation set omit their field instead of producing `null`.

use std::fmt;

use jsondata::Json;
use mongofind::{Filter, Path, Projection};

/// Pipeline-parsing and execution errors.
#[derive(Debug, Clone, PartialEq)]
pub struct AggError(pub String);

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pipeline: {}", self.0)
    }
}

impl std::error::Error for AggError {}

fn err<T>(msg: impl Into<String>) -> Result<T, AggError> {
    Err(AggError(msg.into()))
}

/// A parsed aggregation pipeline: the stage sequence applied left to right.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The stages, in application order.
    pub stages: Vec<Stage>,
}

/// One typed pipeline stage (the IR the executors run).
#[derive(Debug, Clone)]
pub enum Stage {
    /// `{"$match": filter}` — the report's selection operator; the filter
    /// language is exactly [`mongofind::Filter`].
    Match(Filter),
    /// `{"$project": {path: 1 | "$path" | {"$literal": v}, …}}` —
    /// projection; output fields are assembled in spec order.
    Project(Vec<(Path, ProjectField)>),
    /// `{"$unwind": "$path"}` — the unnest operator.
    Unwind(Path),
    /// `{"$group": {"_id": expr, name: {accumulator}, …}}`.
    Group(GroupSpec),
    /// `{"$sort": {path: 1 (asc) | 0 (desc), …}}` — stable, missing keys
    /// first.
    Sort(Vec<(Path, SortOrder)>),
    /// `{"$skip": n}`.
    Skip(u64),
    /// `{"$limit": n}`.
    Limit(u64),
    /// `{"$count": "label"}` — one `{label: n}` document (none on empty
    /// input, following MongoDB).
    Count(String),
}

/// One `$project` output field.
#[derive(Debug, Clone)]
pub enum ProjectField {
    /// `path: 1` — keep the input value at `path`.
    Include,
    /// `path: "$src"` or `path: {"$literal": v}` — computed value.
    Expr(ValueExpr),
}

/// A value expression: a field reference (`"$a.b"`) or a constant
/// (any other literal; `{"$literal": v}` escapes `$`-strings).
#[derive(Debug, Clone)]
pub enum ValueExpr {
    /// `"$a.b"` — resolve the dotted path against the current document.
    Field(Path),
    /// A constant value.
    Const(Json),
}

/// Ascending (`1`) or descending (`0` — the fragment has no `-1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first.
    Asc,
    /// Largest first.
    Desc,
}

/// A parsed `$group` stage.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// The grouping key expression (`"_id"`).
    pub id: IdExpr,
    /// Named accumulators, in output order. Names are plain (no `$`, no
    /// dots) and pairwise distinct (JSON object keys).
    pub accs: Vec<(String, Accumulator)>,
}

/// The `_id` expression of a `$group` stage.
#[derive(Debug, Clone)]
pub enum IdExpr {
    /// A constant key: every document lands in one group.
    Const(Json),
    /// `"$a.b"` — group by the value at the path. Documents where the path
    /// is **missing** form their own group whose output omits `_id` (the
    /// fragment has no `null`).
    Field(Path),
    /// `{"k1": expr, "k2": expr, …}` — a compound key document; missing
    /// subfields are omitted from the synthesized key.
    Doc(Vec<(String, ValueExpr)>),
}

/// An accumulator operator. Observation rules (shared by both executors and
/// pinned by the differential suite): a [`ValueExpr::Field`] whose path is
/// missing contributes nothing; `$sum`/`$avg` additionally skip non-numeric
/// values. Sums saturate at `u64::MAX`; `$avg` is the floor average (ℕ has
/// no fractions).
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// Saturating sum of observed numbers (`0` when none).
    Sum(ValueExpr),
    /// Floor average of observed numbers; field omitted when none.
    Avg(ValueExpr),
    /// Least observed value under [`Json::total_cmp`]; omitted when none.
    Min(ValueExpr),
    /// Greatest observed value under [`Json::total_cmp`]; omitted when none.
    Max(ValueExpr),
    /// `{"$count": {}}` — number of documents in the group.
    Count,
    /// Array of observed values in input order (`[]` when none).
    Push(ValueExpr),
    /// First observed value; omitted when none.
    First(ValueExpr),
    /// Last observed value; omitted when none.
    Last(ValueExpr),
}

impl Pipeline {
    /// Parses a pipeline from its JSON document.
    pub fn parse(doc: &Json) -> Result<Pipeline, AggError> {
        let Some(stages) = doc.as_array() else {
            return err("pipeline must be a JSON array of stages");
        };
        Ok(Pipeline {
            stages: stages.iter().map(parse_stage).collect::<Result<_, _>>()?,
        })
    }

    /// Parses a pipeline from text.
    pub fn parse_str(src: &str) -> Result<Pipeline, AggError> {
        let doc = jsondata::parse(src).map_err(|e| AggError(e.to_string()))?;
        Pipeline::parse(&doc)
    }

    /// `find(filter, projection)` as the pipeline it is:
    /// `[{"$match": filter}, {"$project": projection}]`, with no
    /// `$project` when the projection keeps whole documents.
    pub fn find(filter: Filter, projection: Projection) -> Pipeline {
        let include = projection.include;
        let mut stages = Vec::with_capacity(1 + usize::from(!include.is_empty()));
        stages.push(Stage::Match(filter));
        if !include.is_empty() {
            let spec = include.into_iter().map(|p| (p, ProjectField::Include));
            stages.push(Stage::Project(spec.collect()));
        }
        Pipeline { stages }
    }
}

fn parse_stage(v: &Json) -> Result<Stage, AggError> {
    let Some(obj) = v.as_object() else {
        return err("each stage must be a single-operator object");
    };
    if obj.len() != 1 {
        return err(format!(
            "each stage must hold exactly one operator, got {}",
            obj.len()
        ));
    }
    let (op, operand) = obj.iter().next().expect("len checked");
    match op {
        "$match" => Ok(Stage::Match(
            Filter::parse(operand).map_err(|e| AggError(format!("$match: {e}")))?,
        )),
        "$project" => parse_project(operand),
        "$unwind" => Ok(Stage::Unwind(parse_field_ref(operand).ok_or_else(
            || AggError("$unwind expects a \"$path\" field reference".into()),
        )?)),
        "$group" => parse_group(operand),
        "$sort" => parse_sort(operand),
        "$skip" | "$limit" => {
            let Some(n) = operand.as_num() else {
                return err(format!("{op} expects a number"));
            };
            Ok(if op == "$skip" {
                Stage::Skip(n)
            } else {
                Stage::Limit(n)
            })
        }
        "$count" => match operand.as_str() {
            Some(label) if !label.is_empty() && !label.starts_with('$') && !label.contains('.') => {
                Ok(Stage::Count(label.to_owned()))
            }
            _ => err("$count expects a plain, nonempty field name"),
        },
        other => err(format!("unknown stage operator {other}")),
    }
}

/// `"$a.b"` → the path `a.b`; anything else → `None`.
fn parse_field_ref(v: &Json) -> Option<Path> {
    match v.as_str() {
        Some(s) if s.len() > 1 && s.starts_with('$') => Some(Path::parse(&s[1..])),
        _ => None,
    }
}

fn parse_value_expr(v: &Json) -> Result<ValueExpr, AggError> {
    if let Some(p) = parse_field_ref(v) {
        return Ok(ValueExpr::Field(p));
    }
    if let Some(s) = v.as_str() {
        if s.starts_with('$') {
            return err(format!("malformed field reference {s:?}"));
        }
    }
    if let Some(obj) = v.as_object() {
        if obj.len() == 1 {
            if let Some(lit) = obj.get("$literal") {
                return Ok(ValueExpr::Const(lit.clone()));
            }
        }
        if obj.iter().any(|(k, _)| k.starts_with('$')) {
            return err("operator expressions other than $literal are not supported");
        }
    }
    Ok(ValueExpr::Const(v.clone()))
}

fn parse_project(v: &Json) -> Result<Stage, AggError> {
    let Some(obj) = v.as_object() else {
        return err("$project expects an object");
    };
    if obj.is_empty() {
        return err("$project expects at least one field");
    }
    let mut fields = Vec::new();
    for (k, spec) in obj.iter() {
        let path = Projection::output_path(k).map_err(|e| AggError(e.0))?;
        let field = match spec {
            Json::Num(1) => ProjectField::Include,
            Json::Num(_) => return err("$project supports 1 (include) only; exclusion ($project: 0) is not part of the fragment"),
            other => ProjectField::Expr(parse_value_expr(other).map_err(|e| AggError(format!("$project {k:?}: {}", e.0)))?),
        };
        fields.push((path, field));
    }
    Ok(Stage::Project(fields))
}

fn parse_group(v: &Json) -> Result<Stage, AggError> {
    let Some(obj) = v.as_object() else {
        return err("$group expects an object");
    };
    let Some(id_spec) = obj.get("_id") else {
        return err("$group requires an _id expression");
    };
    let id = parse_id_expr(id_spec)?;
    let mut accs = Vec::new();
    for (k, spec) in obj.iter() {
        if k == "_id" {
            continue;
        }
        if k.starts_with('$') || k.contains('.') {
            return err(format!(
                "accumulator name {k:?} must be plain (no $, no dots)"
            ));
        }
        accs.push((k.to_owned(), parse_accumulator(k, spec)?));
    }
    Ok(Stage::Group(GroupSpec { id, accs }))
}

fn parse_id_expr(v: &Json) -> Result<IdExpr, AggError> {
    if let Some(p) = parse_field_ref(v) {
        return Ok(IdExpr::Field(p));
    }
    if let Some(obj) = v.as_object() {
        if obj.len() == 1 {
            if let Some(lit) = obj.get("$literal") {
                return Ok(IdExpr::Const(lit.clone()));
            }
        }
        if obj.iter().any(|(k, _)| k.starts_with('$')) {
            return err("unsupported operator expression in $group _id");
        }
        if !obj.is_empty() {
            let mut fields = Vec::new();
            for (k, spec) in obj.iter() {
                if k.contains('.') {
                    return err(format!("compound _id field {k:?} must not contain dots"));
                }
                fields.push((
                    k.to_owned(),
                    parse_value_expr(spec).map_err(|e| AggError(format!("_id {k:?}: {}", e.0)))?,
                ));
            }
            return Ok(IdExpr::Doc(fields));
        }
    }
    Ok(IdExpr::Const(v.clone()))
}

fn parse_accumulator(name: &str, v: &Json) -> Result<Accumulator, AggError> {
    let Some(obj) = v.as_object() else {
        return err(format!("accumulator {name:?} expects {{$op: expr}}"));
    };
    if obj.len() != 1 {
        return err(format!("accumulator {name:?} expects exactly one $op"));
    }
    let (op, operand) = obj.iter().next().expect("len checked");
    let expr =
        || parse_value_expr(operand).map_err(|e| AggError(format!("{op} {name:?}: {}", e.0)));
    Ok(match op {
        "$sum" => Accumulator::Sum(expr()?),
        "$avg" => Accumulator::Avg(expr()?),
        "$min" => Accumulator::Min(expr()?),
        "$max" => Accumulator::Max(expr()?),
        "$push" => Accumulator::Push(expr()?),
        "$first" => Accumulator::First(expr()?),
        "$last" => Accumulator::Last(expr()?),
        "$count" => {
            if !operand.as_object().is_some_and(|o| o.is_empty()) {
                return err(format!("accumulator {name:?}: $count expects {{}}"));
            }
            Accumulator::Count
        }
        other => return err(format!("unknown accumulator {other}")),
    })
}

fn parse_sort(v: &Json) -> Result<Stage, AggError> {
    let Some(obj) = v.as_object() else {
        return err("$sort expects an object");
    };
    if obj.is_empty() {
        return err("$sort expects at least one key");
    }
    let mut keys = Vec::new();
    for (k, dir) in obj.iter() {
        let order = match dir.as_num() {
            Some(1) => SortOrder::Asc,
            // The fragment's numbers are ℕ, so MongoDB's -1 is
            // unrepresentable; 0 takes its place.
            Some(0) => SortOrder::Desc,
            _ => {
                return err(format!(
                    "$sort {k:?}: direction must be 1 (asc) or 0 (desc)"
                ))
            }
        };
        keys.push((Path::parse(k), order));
    }
    Ok(Stage::Sort(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mongofind::insert_path;

    #[test]
    fn parses_every_stage() {
        let p = Pipeline::parse_str(
            r#"[
                {"$match": {"age": {"$gte": 30}}},
                {"$unwind": "$hobbies"},
                {"$project": {"h": "$hobbies", "age": 1, "tag": {"$literal": "x"}}},
                {"$group": {"_id": "$h",
                            "n": {"$count": {}},
                            "total": {"$sum": "$age"},
                            "avg": {"$avg": "$age"},
                            "lo": {"$min": "$age"},
                            "hi": {"$max": "$age"},
                            "all": {"$push": "$age"},
                            "head": {"$first": "$age"},
                            "tail": {"$last": "$age"}}},
                {"$sort": {"n": 0, "_id": 1}},
                {"$skip": 1},
                {"$limit": 10},
                {"$count": "kinds"}
            ]"#,
        )
        .unwrap();
        assert_eq!(p.stages.len(), 8);
        assert!(matches!(p.stages[0], Stage::Match(_)));
        assert!(matches!(p.stages[1], Stage::Unwind(_)));
        let Stage::Group(g) = &p.stages[3] else {
            panic!("expected $group")
        };
        assert!(matches!(g.id, IdExpr::Field(_)));
        assert_eq!(g.accs.len(), 8);
        assert!(matches!(p.stages[7], Stage::Count(_)));
    }

    #[test]
    fn id_expression_forms() {
        let parse_id = |src: &str| {
            let Stage::Group(g) = parse_stage(&jsondata::parse(src).unwrap()).unwrap() else {
                panic!("expected $group")
            };
            g.id
        };
        assert!(matches!(
            parse_id(r#"{"$group": {"_id": "$a.b"}}"#),
            IdExpr::Field(_)
        ));
        assert!(matches!(
            parse_id(r#"{"$group": {"_id": 7}}"#),
            IdExpr::Const(Json::Num(7))
        ));
        assert!(matches!(
            parse_id(r#"{"$group": {"_id": "plain"}}"#),
            IdExpr::Const(Json::Str(_))
        ));
        assert!(matches!(
            parse_id(r#"{"$group": {"_id": {}}}"#),
            IdExpr::Const(_)
        ));
        assert!(matches!(
            parse_id(r#"{"$group": {"_id": {"$literal": "$raw"}}}"#),
            IdExpr::Const(Json::Str(_))
        ));
        let IdExpr::Doc(fields) = parse_id(r#"{"$group": {"_id": {"a": "$x", "b": 3}}}"#) else {
            panic!("expected compound _id")
        };
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn rejects_malformed_stages() {
        for src in [
            r#"{"$match": 1}"#,
            r#"{"$bogus": {}}"#,
            r#"{"$unwind": "hobbies"}"#,
            r#"{"$unwind": "$"}"#,
            r#"{"$project": {}}"#,
            r#"{"$project": {"a": 0}}"#,
            r#"{"$project": {"a": 2}}"#,
            r#"{"$project": {"$a": 1}}"#,
            r#"{"$project": {"a": "$"}}"#,
            r#"{"$group": {}}"#,
            r#"{"$group": {"_id": {"$add": [1, 2]}}}"#,
            r#"{"$group": {"_id": 1, "x.y": {"$count": {}}}}"#,
            r#"{"$group": {"_id": 1, "n": {"$count": 1}}}"#,
            r#"{"$group": {"_id": 1, "n": {"$frob": "$a"}}}"#,
            r#"{"$group": {"_id": 1, "n": {"$sum": "$a", "$min": "$a"}}}"#,
            r#"{"$sort": {}}"#,
            r#"{"$sort": {"a": 2}}"#,
            r#"{"$skip": "x"}"#,
            r#"{"$count": ""}"#,
            r#"{"$count": "$n"}"#,
            r#"{"$match": {"a": 1}, "$limit": 2}"#,
        ] {
            let doc = jsondata::parse(src).unwrap();
            assert!(parse_stage(&doc).is_err(), "should reject {src}");
        }
        assert!(Pipeline::parse_str(r#"{"$match": {}}"#).is_err());
        assert!(Pipeline::parse_str("[1]").is_err());
    }

    #[test]
    fn insert_path_nests_and_first_wins() {
        let mut pairs = Vec::new();
        insert_path(&mut pairs, &["a".into(), "b".into()], Json::Num(1));
        insert_path(&mut pairs, &["a".into(), "c".into()], Json::Num(2));
        insert_path(&mut pairs, &["a".into(), "b".into()], Json::Num(9));
        insert_path(&mut pairs, &["d".into()], Json::Num(3));
        let out = Json::object(pairs).unwrap();
        assert_eq!(
            out,
            jsondata::parse(r#"{"a": {"b": 1, "c": 2}, "d": 3}"#).unwrap()
        );
    }
}
