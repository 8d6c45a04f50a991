//! # mongofind — a MongoDB-style `find` dialect over JNL
//!
//! §4.1 of the paper isolates MongoDB's `find(filter, projection)` as the
//! archetype of deterministic JSON querying and shows the filter language is
//! captured by JNL navigation conditions `P ~ J`. This crate implements
//! that dialect end-to-end:
//!
//! * [`Filter`] — parsed filter documents: implicit equality
//!   (`{name: {first: "Sue"}}`), comparison operators (`$eq`, `$ne`, `$gt`,
//!   `$gte`, `$lt`, `$lte`), membership (`$in`, `$nin`), `$exists`,
//!   `$size`, `$type`, and the boolean forms `$and`, `$or`, `$not`, with
//!   dotted paths (`"name.first"`, `"hobbies.0"`).
//! * [`Filter::to_jnl`] — the compilation into a deterministic JNL unary
//!   formula (the paper's Example 1 becomes
//!   `eqdoc(@"name", "Sue")`-style conditions).
//! * [`Collection::find`] — evaluation over a collection (index probe or
//!   document scan, chosen by [`Collection::route_of`]), plus
//!   [`Projection`] (the §6 future-work feature) as a basic
//!   include/exclude JSON→JSON transformation. The compiled JNL formula
//!   evaluated by the Prop 1 engine stays available as an oracle
//!   ([`Collection::find_refs_via_jnl_with_ctx`]).
//!
//! ```
//! use jsondata::parse;
//! use mongofind::{Collection, Filter};
//!
//! let people = parse(r#"[
//!     {"name": {"first": "Sue"}, "age": 28},
//!     {"name": {"first": "John"}, "age": 32}
//! ]"#).unwrap();
//! let coll = Collection::from_array(&people).unwrap();
//!
//! // db.collection.find({"name.first": {"$eq": "Sue"}})
//! let filter = Filter::parse_str(r#"{"name.first": {"$eq": "Sue"}}"#).unwrap();
//! let hits = coll.find(&filter);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].get("age"), Some(&jsondata::Json::Num(28)));
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use jguard::{QueryCtx, QueryError};
use jnl::ast::{Binary, Unary};
use jpar::Pool;
use jsondata::{Interner, Json, JsonTree, NodeId, NodeKind, ParseLimits};
use jtrace::{Counter, SpanKind};

mod explain;
mod index;

pub use explain::{FindAnalyze, FindExplain, ProbeDesc, Route, ANALYZE_SPAN_CAPACITY};
pub use index::IndexSet;

/// Unwraps a governed result obtained under [`QueryCtx::unlimited`] —
/// the delegation path of the legacy (ctx-free) APIs. An unlimited
/// context never raises deadline/budget/cancel errors, so the only
/// reachable failure is a contained worker panic, which is re-raised
/// here to preserve the legacy APIs' panic semantics.
fn expect_ungoverned<T>(r: Result<T, QueryError>) -> T {
    match r {
        Ok(v) => v,
        Err(QueryError::WorkerPanicked { chunk, payload }) => {
            panic!(
                "worker panicked on chunk {}..{}: {payload}",
                chunk.start, chunk.end
            )
        }
        Err(e) => unreachable!("unlimited ctx cannot fail: {e}"),
    }
}

/// Minimum per-chunk document count for the parallel scan paths: ranges
/// below this collapse into one chunk and run inline on the calling
/// thread (see [`Pool::chunk_for`]), so small collections never pay a
/// thread spawn.
const DOC_CHUNK_MIN: usize = 256;

/// A comparison operator of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `$eq`
    Eq,
    /// `$ne`
    Ne,
    /// `$gt`
    Gt,
    /// `$gte`
    Gte,
    /// `$lt`
    Lt,
    /// `$lte`
    Lte,
}

/// A parsed filter (the first argument of `find`).
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// All conditions hold (the top-level document form).
    And(Vec<Filter>),
    /// `$or`.
    Or(Vec<Filter>),
    /// `$not` applied to a path condition set.
    Not(Box<Filter>),
    /// `path op value`.
    Compare(Path, Cmp, Json),
    /// `path $in [v…]` / `$nin`.
    In(Path, Vec<Json>, bool),
    /// `path $exists true/false`.
    Exists(Path, bool),
    /// `path $size n`.
    Size(Path, u64),
    /// `path $type "string"|"number"|"object"|"array"`.
    Type(Path, &'static str),
}

/// A dotted path: `"name.first"` → `["name", "first"]`; numeric segments
/// address array positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path(pub Vec<String>);

impl Path {
    /// Parses a dotted path (`"name.first"`, `"hobbies.0"`).
    pub fn parse(s: &str) -> Path {
        Path(s.split('.').map(str::to_owned).collect())
    }

    /// Resolves this path against a [`Json`] value: numeric segments index
    /// arrays, every segment is a key lookup on objects.
    pub fn resolve<'a>(&self, doc: &'a Json) -> Option<&'a Json> {
        resolve(doc, self)
    }

    /// [`Path::resolve`] on a [`JsonTree`], anchored at `at` — no string is
    /// ever cloned (an `O(1)` interner probe + `u32` binary search per
    /// segment).
    pub fn resolve_node(&self, tree: &JsonTree, at: NodeId) -> Option<NodeId> {
        resolve_node(tree, at, self)
    }

    /// Compiles the path to its JNL navigation axis: numeric segments
    /// become array-position steps, everything else a key step. Public for
    /// the static analyzer (`jstat`), which builds path-existence probes
    /// (`[α]`) against declared schemas from the same compilation the JNL
    /// oracle evaluates.
    pub fn to_binary(&self) -> Binary {
        Binary::compose(
            self.0
                .iter()
                .map(|seg| match seg.parse::<u64>() {
                    Ok(i) => Binary::Index(i as i64),
                    Err(_) => Binary::Key(seg.clone()),
                })
                .collect(),
        )
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("."))
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Eq => "=",
            Cmp::Ne => "!=",
            Cmp::Gt => ">",
            Cmp::Gte => ">=",
            Cmp::Lt => "<",
            Cmp::Lte => "<=",
        })
    }
}

/// Compact single-line rendering used by `EXPLAIN` plans: `path op value`
/// conditions joined with `&&`/`||`, values in JSON text. The rendering is
/// deterministic (it follows the parsed structure) and is pinned by the
/// explain snapshot tests.
impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, fs: &[Filter], sep: &str) -> fmt::Result {
            f.write_str("(")?;
            for (i, sub) in fs.iter().enumerate() {
                if i > 0 {
                    f.write_str(sep)?;
                }
                write!(f, "{sub}")?;
            }
            f.write_str(")")
        }
        match self {
            Filter::And(fs) if fs.is_empty() => f.write_str("true"),
            Filter::And(fs) if fs.len() == 1 => write!(f, "{}", fs[0]),
            Filter::And(fs) => join(f, fs, " && "),
            Filter::Or(fs) if fs.is_empty() => f.write_str("false"),
            Filter::Or(fs) => join(f, fs, " || "),
            Filter::Not(sub) => write!(f, "!({sub})"),
            Filter::Compare(p, cmp, v) => write!(f, "{p} {cmp} {v}"),
            Filter::In(p, items, positive) => {
                write!(f, "{p} {} [", if *positive { "in" } else { "nin" })?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Filter::Exists(p, flag) => {
                write!(f, "{}exists({p})", if *flag { "" } else { "!" })
            }
            Filter::Size(p, n) => write!(f, "size({p}) = {n}"),
            Filter::Type(p, ty) => write!(f, "type({p}) = \"{ty}\""),
        }
    }
}

/// Filter-parsing errors.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterError(pub String);

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter: {}", self.0)
    }
}

impl std::error::Error for FilterError {}

impl Filter {
    /// Parses a filter document.
    pub fn parse(doc: &Json) -> Result<Filter, FilterError> {
        let Some(obj) = doc.as_object() else {
            return Err(FilterError("filter must be an object".into()));
        };
        let mut parts = Vec::new();
        for (k, v) in obj.iter() {
            match k {
                "$and" | "$or" => {
                    let Some(items) = v.as_array() else {
                        return Err(FilterError(format!("{k} expects an array")));
                    };
                    let subs: Vec<Filter> =
                        items.iter().map(Filter::parse).collect::<Result<_, _>>()?;
                    parts.push(if k == "$and" {
                        Filter::And(subs)
                    } else {
                        Filter::Or(subs)
                    });
                }
                "$not" => parts.push(Filter::Not(Box::new(Filter::parse(v)?))),
                _ if k.starts_with('$') => {
                    return Err(FilterError(format!("unknown top-level operator {k}")))
                }
                path => parts.extend(Self::parse_condition(Path::parse(path), v)?),
            }
        }
        Ok(Filter::And(parts))
    }

    /// Parses from filter text.
    pub fn parse_str(src: &str) -> Result<Filter, FilterError> {
        let doc = jsondata::parse(src).map_err(|e| FilterError(e.to_string()))?;
        Filter::parse(&doc)
    }

    fn parse_condition(path: Path, v: &Json) -> Result<Vec<Filter>, FilterError> {
        // An object whose keys are all operators is a condition set;
        // anything else is implicit equality.
        let is_ops = v
            .as_object()
            .is_some_and(|o| !o.is_empty() && o.iter().all(|(k, _)| k.starts_with('$')));
        if !is_ops {
            return Ok(vec![Filter::Compare(path, Cmp::Eq, v.clone())]);
        }
        let obj = v.as_object().expect("checked");
        let mut out = Vec::new();
        for (op, operand) in obj.iter() {
            out.push(match op {
                "$eq" => Filter::Compare(path.clone(), Cmp::Eq, operand.clone()),
                "$ne" => Filter::Compare(path.clone(), Cmp::Ne, operand.clone()),
                "$gt" => Filter::Compare(path.clone(), Cmp::Gt, operand.clone()),
                "$gte" => Filter::Compare(path.clone(), Cmp::Gte, operand.clone()),
                "$lt" => Filter::Compare(path.clone(), Cmp::Lt, operand.clone()),
                "$lte" => Filter::Compare(path.clone(), Cmp::Lte, operand.clone()),
                "$in" | "$nin" => {
                    let Some(items) = operand.as_array() else {
                        return Err(FilterError(format!("{op} expects an array")));
                    };
                    Filter::In(path.clone(), items.to_vec(), op == "$in")
                }
                "$exists" => {
                    let flag = match operand {
                        Json::Num(1) | Json::Str(_) if operand.as_str() == Some("true") => true,
                        Json::Num(1) => true,
                        Json::Num(0) => false,
                        Json::Str(s) if s == "true" => true,
                        Json::Str(s) if s == "false" => false,
                        _ => return Err(FilterError("$exists expects \"true\"/\"false\"".into())),
                    };
                    Filter::Exists(path.clone(), flag)
                }
                "$size" => {
                    let Some(n) = operand.as_num() else {
                        return Err(FilterError("$size expects a number".into()));
                    };
                    Filter::Size(path.clone(), n)
                }
                "$type" => {
                    let ty = match operand.as_str() {
                        Some("string") => "string",
                        Some("number") => "number",
                        Some("object") => "object",
                        Some("array") => "array",
                        _ => return Err(FilterError("$type expects a type name".into())),
                    };
                    Filter::Type(path.clone(), ty)
                }
                "$not" => Filter::Not(Box::new(Filter::And(Self::parse_condition(
                    path.clone(),
                    operand,
                )?))),
                other => return Err(FilterError(format!("unknown operator {other}"))),
            });
        }
        Ok(out)
    }

    /// Compiles to a deterministic JNL unary formula — the paper's claim
    /// that `find` filters are navigation conditions.
    ///
    /// Order comparisons expand to a JNL-expressible form only for number
    /// operands (the dialect's common case); for those the formula uses an
    /// `EQ`-free encoding through value enumeration-free tests: we keep the
    /// comparison as a direct evaluation below but still express
    /// equality/containment/existence structurally in JNL.
    pub fn to_jnl(&self) -> Unary {
        match self {
            Filter::And(fs) => Unary::and(fs.iter().map(Filter::to_jnl).collect()),
            Filter::Or(fs) => Unary::or(fs.iter().map(Filter::to_jnl).collect()),
            Filter::Not(f) => Unary::not(f.to_jnl()),
            Filter::Compare(p, Cmp::Eq, v) => Unary::eq_doc(p.to_binary(), v.clone()),
            Filter::Compare(p, Cmp::Ne, v) => Unary::and(vec![
                Unary::exists(p.to_binary()),
                Unary::not(Unary::eq_doc(p.to_binary(), v.clone())),
            ]),
            Filter::Compare(p, cmp, v) => {
                // Order comparisons have no JNL counterpart (JNL equality is
                // structural); the compilation over-approximates them with
                // path existence, and `matches` decides the order directly.
                // The equality fragment (everything the paper's navigation
                // conditions cover) compiles exactly — see the differential
                // test `jnl_compilation_agrees_on_equality_fragment`.
                let _ = (cmp, v);
                Unary::exists(p.to_binary())
            }
            Filter::In(p, items, pos) => {
                let any = Unary::or(
                    items
                        .iter()
                        .map(|v| Unary::eq_doc(p.to_binary(), v.clone()))
                        .collect(),
                );
                if *pos {
                    any
                } else {
                    Unary::and(vec![Unary::exists(p.to_binary()), Unary::not(any)])
                }
            }
            Filter::Exists(p, true) => Unary::exists(p.to_binary()),
            Filter::Exists(p, false) => Unary::not(Unary::exists(p.to_binary())),
            Filter::Size(p, n) => {
                // [path ∘ X_{n-1}] ∧ ¬[path ∘ X_n]: exactly n elements.
                let mut parts = Vec::new();
                if *n > 0 {
                    parts.push(Unary::exists(Binary::compose(vec![
                        p.to_binary(),
                        Binary::Index(*n as i64 - 1),
                    ])));
                } else {
                    parts.push(Unary::exists(p.to_binary()));
                }
                parts.push(Unary::not(Unary::exists(Binary::compose(vec![
                    p.to_binary(),
                    Binary::Index(*n as i64),
                ]))));
                Unary::and(parts)
            }
            Filter::Type(p, ty) => {
                // Type observations through structure: arrays have an index
                // child or are empty — not structurally observable in pure
                // JNL for empty containers, so `matches` refines this.
                let _ = ty;
                Unary::exists(p.to_binary())
            }
        }
    }

    /// Whether [`Filter::to_jnl`] compiles this filter **exactly**, i.e.
    /// evaluating the compiled formula agrees with [`Filter::matches`] on
    /// *every* document. The compilation over-approximates order
    /// comparisons and `$type` (both fall back to path existence), `$size`
    /// observes array length through index existence (an object with the
    /// right numeric keys would satisfy it), and numeric path segments
    /// compile to array positions while [`Filter::matches`] also accepts
    /// them as object keys — so all four are excluded from the exact
    /// fragment. On exact filters the JNL oracle
    /// ([`Collection::find_refs_via_jnl_with_ctx`]) must agree with the
    /// document scan; the differential suites and `jstat` key on this.
    pub fn jnl_exact(&self) -> bool {
        fn path_exact(p: &Path) -> bool {
            // A numeric segment is Binary::Index in JNL (arrays only) but a
            // key lookup on objects in `matches` — conservatively inexact.
            p.0.iter().all(|seg| seg.parse::<u64>().is_err())
        }
        match self {
            Filter::And(fs) | Filter::Or(fs) => fs.iter().all(Filter::jnl_exact),
            Filter::Not(f) => f.jnl_exact(),
            Filter::Compare(p, Cmp::Eq | Cmp::Ne, _) => path_exact(p),
            Filter::Compare(..) => false,
            Filter::In(p, _, _) | Filter::Exists(p, _) => path_exact(p),
            Filter::Size(..) | Filter::Type(..) => false,
        }
    }

    /// Exact filter semantics on one document (order comparisons and
    /// `$type` decided directly; everything else agrees with
    /// [`Filter::to_jnl`] evaluated by the JNL engine — differentially
    /// tested).
    pub fn matches(&self, doc: &Json) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
            Filter::Compare(p, cmp, v) => match resolve(doc, p) {
                Some(x) => {
                    let ord = x.total_cmp(v);
                    match cmp {
                        Cmp::Eq => ord.is_eq(),
                        Cmp::Ne => !ord.is_eq(),
                        Cmp::Gt => ord.is_gt(),
                        Cmp::Gte => ord.is_ge(),
                        Cmp::Lt => ord.is_lt(),
                        Cmp::Lte => ord.is_le(),
                    }
                }
                None => false,
            },
            Filter::In(p, items, pos) => match resolve(doc, p) {
                Some(x) => items.contains(x) == *pos,
                None => false,
            },
            Filter::Exists(p, flag) => resolve(doc, p).is_some() == *flag,
            Filter::Size(p, n) => resolve(doc, p)
                .and_then(Json::as_array)
                .is_some_and(|a| a.len() as u64 == *n),
            Filter::Type(p, ty) => {
                resolve(doc, p).is_some_and(|x| type_matches_kind(ty, json_kind(x)))
            }
        }
    }

    /// [`Filter::matches`] evaluated directly on a [`JsonTree`] — the
    /// tree-backed twin used by [`Collection`], so documents loaded through
    /// the fused parser (`jsondata::parse_to_tree`) are queried without ever
    /// re-materialising a [`Json`]. Semantics agree with `matches` on
    /// `tree.to_json()` exactly (differentially tested).
    pub fn matches_tree(&self, tree: &JsonTree) -> bool {
        self.matches_at(tree, tree.root())
    }

    /// [`Filter::matches_tree`] anchored at an arbitrary node — `doc` plays
    /// the document root, which is how the [`Collection`] scan evaluates
    /// one filter over every document of a segment tree.
    pub fn matches_at(&self, tree: &JsonTree, doc: NodeId) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches_at(tree, doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches_at(tree, doc)),
            Filter::Not(f) => !f.matches_at(tree, doc),
            Filter::Compare(p, cmp, v) => match resolve_node(tree, doc, p) {
                Some(n) => {
                    let ord = cmp_node_json(tree, n, v);
                    match cmp {
                        Cmp::Eq => ord.is_eq(),
                        Cmp::Ne => !ord.is_eq(),
                        Cmp::Gt => ord.is_gt(),
                        Cmp::Gte => ord.is_ge(),
                        Cmp::Lt => ord.is_lt(),
                        Cmp::Lte => ord.is_le(),
                    }
                }
                None => false,
            },
            Filter::In(p, items, pos) => match resolve_node(tree, doc, p) {
                Some(n) => items.iter().any(|v| cmp_node_json(tree, n, v).is_eq()) == *pos,
                None => false,
            },
            Filter::Exists(p, flag) => resolve_node(tree, doc, p).is_some() == *flag,
            Filter::Size(p, n) => resolve_node(tree, doc, p)
                .is_some_and(|m| tree.kind(m) == NodeKind::Arr && tree.child_count(m) as u64 == *n),
            Filter::Type(p, ty) => {
                resolve_node(tree, doc, p).is_some_and(|m| type_matches_kind(ty, tree.kind(m)))
            }
        }
    }
}

fn resolve<'a>(doc: &'a Json, path: &Path) -> Option<&'a Json> {
    let mut cur = doc;
    for seg in &path.0 {
        cur = match (cur, seg.parse::<usize>()) {
            (Json::Array(items), Ok(i)) => items.get(i)?,
            (Json::Object(_), _) => cur.get(seg)?,
            _ => return None,
        };
    }
    Some(cur)
}

/// One segment of [`Path::resolve_node`]: a numeric segment indexes an
/// array node, every segment is a key lookup on an object node (an `O(1)`
/// interner probe + `u32` binary search — no string is ever cloned). This
/// is THE single-step rule of the dialect's dotted paths; binding-aware
/// resolvers (the `jagg` overlay rows) step through it so their path
/// semantics cannot drift from the plain tree walk.
pub fn resolve_node_step(tree: &JsonTree, at: NodeId, seg: &str) -> Option<NodeId> {
    match (tree.kind(at), seg.parse::<usize>()) {
        (NodeKind::Arr, Ok(i)) => tree.child_by_index(at, i),
        (NodeKind::Obj, _) => tree.child_by_key(at, seg),
        _ => None,
    }
}

/// [`resolve`] on a tree: [`resolve_node_step`] per segment.
fn resolve_node(tree: &JsonTree, doc: NodeId, path: &Path) -> Option<NodeId> {
    let mut cur = doc;
    for seg in &path.0 {
        cur = resolve_node_step(tree, cur, seg)?;
    }
    Some(cur)
}

/// The kind partition a JSON value belongs to (the value-side counterpart
/// of [`JsonTree::kind`]).
pub fn json_kind(v: &Json) -> NodeKind {
    match v {
        Json::Num(_) => NodeKind::Int,
        Json::Str(_) => NodeKind::Str,
        Json::Array(_) => NodeKind::Arr,
        Json::Object(_) => NodeKind::Obj,
    }
}

/// The `$type` vocabulary: whether a node kind satisfies a type name. The
/// single source of truth for every `$type` test — [`Filter::matches`],
/// [`Filter::matches_at`] and the `jagg` overlay matcher all consult it.
pub fn type_matches_kind(ty: &str, kind: NodeKind) -> bool {
    matches!(
        (ty, kind),
        ("string", NodeKind::Str)
            | ("number", NodeKind::Int)
            | ("object", NodeKind::Obj)
            | ("array", NodeKind::Arr)
    )
}

/// [`Json::total_cmp`] between a tree node's subtree and an external value,
/// without materialising the subtree. Mirrors the value-side order exactly:
/// numbers < strings < arrays < objects; arrays element-wise; objects as
/// sorted key→value maps (the tree side sorts its keys *by string* here —
/// symbol order is interning order, not lexicographic).
pub fn cmp_node_json(tree: &JsonTree, n: NodeId, v: &Json) -> Ordering {
    fn rank_kind(k: NodeKind) -> u8 {
        match k {
            NodeKind::Int => 0,
            NodeKind::Str => 1,
            NodeKind::Arr => 2,
            NodeKind::Obj => 3,
        }
    }
    fn rank_json(v: &Json) -> u8 {
        match v {
            Json::Num(_) => 0,
            Json::Str(_) => 1,
            Json::Array(_) => 2,
            Json::Object(_) => 3,
        }
    }
    match (tree.kind(n), v) {
        (NodeKind::Int, Json::Num(b)) => tree.num_value(n).expect("Int payload").cmp(b),
        (NodeKind::Str, Json::Str(b)) => tree.str_value(n).expect("Str payload").cmp(b.as_str()),
        (NodeKind::Arr, Json::Array(b)) => {
            for (&c, y) in tree.arr_children(n).iter().zip(b.iter()) {
                let ord = cmp_node_json(tree, c, y);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            tree.child_count(n).cmp(&b.len())
        }
        (NodeKind::Obj, Json::Object(b)) => {
            let mut entries: Vec<(&str, NodeId)> = tree.obj_children(n).collect();
            entries.sort_unstable_by(|x, y| x.0.cmp(y.0));
            for ((ka, ca), (kb, vb)) in entries.iter().zip(b.iter_sorted()) {
                let ord = ka.cmp(&kb);
                if ord != Ordering::Equal {
                    return ord;
                }
                let ord = cmp_node_json(tree, *ca, vb);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            entries.len().cmp(&b.len())
        }
        (k, v) => rank_kind(k).cmp(&rank_json(v)),
    }
}

/// [`Json::total_cmp`] between two subtrees of **one** tree, without
/// materialising either. Implements the same total order as
/// [`cmp_node_json`] — numbers < strings < arrays < objects, arrays
/// element-wise then by length, objects as *string*-sorted key→value maps
/// (symbol order is interning order, not lexicographic, so keys resolve
/// before comparison). This is the comparator the sorted index column is
/// built with; its agreement with `Json::total_cmp` is pinned by the
/// order-property suite.
pub fn cmp_nodes(tree: &JsonTree, a: NodeId, b: NodeId) -> Ordering {
    fn rank(k: NodeKind) -> u8 {
        match k {
            NodeKind::Int => 0,
            NodeKind::Str => 1,
            NodeKind::Arr => 2,
            NodeKind::Obj => 3,
        }
    }
    match (tree.kind(a), tree.kind(b)) {
        (NodeKind::Int, NodeKind::Int) => tree
            .num_value(a)
            .expect("Int payload")
            .cmp(&tree.num_value(b).expect("Int payload")),
        (NodeKind::Str, NodeKind::Str) => tree
            .str_value(a)
            .expect("Str payload")
            .cmp(tree.str_value(b).expect("Str payload")),
        (NodeKind::Arr, NodeKind::Arr) => {
            for (&ca, &cb) in tree.arr_children(a).iter().zip(tree.arr_children(b)) {
                let ord = cmp_nodes(tree, ca, cb);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            tree.child_count(a).cmp(&tree.child_count(b))
        }
        (NodeKind::Obj, NodeKind::Obj) => {
            let mut ea: Vec<(&str, NodeId)> = tree.obj_children(a).collect();
            let mut eb: Vec<(&str, NodeId)> = tree.obj_children(b).collect();
            ea.sort_unstable_by(|x, y| x.0.cmp(y.0));
            eb.sort_unstable_by(|x, y| x.0.cmp(y.0));
            for ((ka, ca), (kb, cb)) in ea.iter().zip(eb.iter()) {
                let ord = ka.cmp(kb);
                if ord != Ordering::Equal {
                    return ord;
                }
                let ord = cmp_nodes(tree, *ca, *cb);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            ea.len().cmp(&eb.len())
        }
        (ka, kb) => rank(ka).cmp(&rank(kb)),
    }
}

/// A projection: the second argument of `find` (§6 future work, basic
/// include/exclude form).
#[derive(Debug, Clone, Default)]
pub struct Projection {
    /// Paths to keep; empty = keep everything.
    pub include: Vec<Path>,
}

impl Projection {
    /// Parses `{"name": 1, "age": 1}`-style projections.
    pub fn parse_str(src: &str) -> Result<Projection, FilterError> {
        let doc = jsondata::parse(src).map_err(|e| FilterError(e.to_string()))?;
        let Some(obj) = doc.as_object() else {
            return Err(FilterError("projection must be an object".into()));
        };
        let mut include = Vec::new();
        for (k, v) in obj.iter() {
            if v.as_num() == Some(1) {
                include.push(Path::parse(k));
            } else {
                return Err(FilterError("only inclusive projections ({path: 1})".into()));
            }
        }
        Ok(Projection { include })
    }

    /// Applies the projection to one document.
    pub fn apply(&self, doc: &Json) -> Json {
        if self.include.is_empty() {
            return doc.clone();
        }
        let mut pairs: Vec<(String, Json)> = Vec::new();
        for p in &self.include {
            if let Some(v) = resolve(doc, p) {
                insert_path(&mut pairs, &p.0, v.clone());
            }
        }
        Json::object(pairs).expect("projection paths produce distinct keys")
    }

    /// [`Projection::apply`] evaluated directly on a tree node: each include
    /// path resolves on the tree and only the *kept* subtrees are
    /// materialised (via [`JsonTree::json_at`]) — the full document is never
    /// synthesised just to be cut down. Agrees with
    /// `apply(&tree.json_at(doc))` exactly (differentially tested).
    pub fn apply_tree(&self, tree: &JsonTree, doc: NodeId) -> Json {
        if self.include.is_empty() {
            return tree.json_at(doc);
        }
        let mut pairs: Vec<(String, Json)> = Vec::new();
        for p in &self.include {
            if let Some(n) = resolve_node(tree, doc, p) {
                insert_path(&mut pairs, &p.0, tree.json_at(n));
            }
        }
        Json::object(pairs).expect("projection paths produce distinct keys")
    }
}

/// Inserts `value` at a dotted `path` into an under-construction object's
/// pair list, creating nested objects for intermediate segments; first-wins
/// on a leaf that is already occupied. This is the shared output-assembly
/// primitive of projections — [`Projection::apply`]/[`Projection::apply_tree`]
/// here and `$project` in the `jagg` aggregation executors all build their
/// output documents through it, so assembly semantics cannot drift apart.
pub fn insert_path(pairs: &mut Vec<(String, Json)>, path: &[String], value: Json) {
    let (head, rest) = path.split_first().expect("nonempty path");
    if rest.is_empty() {
        if !pairs.iter().any(|(k, _)| k == head) {
            pairs.push((head.clone(), value));
        }
        return;
    }
    // Find or create the nested object.
    if let Some((_, sub)) = pairs.iter_mut().find(|(k, _)| k == head) {
        if let Json::Object(o) = sub {
            let mut inner: Vec<(String, Json)> =
                o.iter().map(|(k, v)| (k.to_owned(), v.clone())).collect();
            insert_path(&mut inner, rest, value);
            *sub = Json::object(inner).expect("distinct");
        }
        return;
    }
    let mut inner = Vec::new();
    insert_path(&mut inner, rest, value);
    pairs.push((head.clone(), Json::object(inner).expect("distinct")));
}

/// Where a document lives inside a [`Collection`]'s tree column: the
/// segment tree holding it and its root node within that segment. Segment
/// `0` is the initial load; every [`Collection::insert`] appends one more.
/// All segments intern through one shared table, so a [`jsondata::Sym`] is
/// comparable across the segments of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocRef {
    /// Index into [`Collection::segments`].
    pub seg: u32,
    /// The document's root node within that segment tree.
    pub node: NodeId,
}

/// A queryable collection of documents, backed by a **persistent, segmented
/// tree column**: the initial load is kept as one [`JsonTree`] (the whole
/// collection array flattened through the fused parser), and every
/// [`Collection::insert`] appends a further segment tree built through the
/// collection's shared [`Interner`] — so one symbol table spans every
/// document ever loaded, and filters evaluate on the trees directly with no
/// per-query parsing, tree building, or value traversal.
///
/// Owned [`Json`] documents are **not** kept: the value-returning APIs
/// synthesize results from the tree ([`JsonTree::json_at`]), and
/// [`Collection::docs`] materialises every document afresh on each call.
///
/// A collection loaded from a non-array root has defined **single-document
/// semantics**: the root value is the collection's one document. `find` and
/// `aggregate` (the `jagg` crate) share this behavior.
///
/// ## Parallel execution
///
/// Query scans run on the collection's [`jpar::Pool`] (defaulting to
/// [`Pool::auto`]): documents are dispatched in contiguous index-range
/// chunks and results spliced back in `(segment, doc)` order, so output is
/// **identical for every thread count** — a 1-thread pool (set via
/// [`Collection::set_pool`] or the `JPAR_THREADS` environment variable) is
/// the byte-identical serial oracle, and collections smaller than a chunk
/// never leave the calling thread. Per-segment whole-tree JNL evaluations
/// ([`Collection::find_refs_via_jnl_with_ctx`]) fan out one segment per
/// task with fully worker-owned evaluation state.
///
/// ## Snapshots
///
/// Segment trees are held behind [`Arc`]s and never mutated after they
/// are built, so a clone never re-builds or copies a tree: the trees and
/// index postings are shared by reference bump. A clone does **copy**
/// the symbol table and the doc-ref vector, so it costs O(distinct
/// strings + documents) time and memory — about 40 µs at 20k documents
/// on a 2-vCPU x86-64 VM — and since string *values* are interned, the
/// symbol table holds document data. `jserve` builds its copy-on-write
/// snapshot isolation on this clone (one per insert), with
/// [`Collection::adopt_segment`] as the replay primitive that carries a
/// segment built against a newer interner back onto an older clone.
#[derive(Clone)]
pub struct Collection {
    /// The shared symbol table; every segment's interner is a snapshot of
    /// this one at its build time.
    interner: Interner,
    segments: Vec<Arc<JsonTree>>,
    doc_refs: Vec<DocRef>,
    /// The worker pool driving `find` scans and JNL evaluations (and the
    /// `jagg` executor over this collection).
    pool: Pool,
    /// The collection's declared JSL schema, if any — a **promise** that
    /// every document conforms (attachment does not validate documents;
    /// pair with the gatekeeper validation paths to enforce it). The
    /// `jstat` analyzer uses it for schema-aware dead-path detection
    /// (`J004`). The *expression itself* is validated at attachment:
    /// ill-formed schemas (dangling `$ref`, precedence cycle) are rejected.
    schema: Option<jsl::RecursiveJsl>,
    /// Secondary indexes declared via [`Collection::create_index`]:
    /// per-path hash + sorted-column structures, maintained incrementally
    /// per insert-segment and rebuilt on [`Collection::compact`].
    indexes: IndexSet,
}

impl Collection {
    /// Builds from a JSON array document (each element one document).
    pub fn from_array(doc: &Json) -> Result<Collection, FilterError> {
        if !doc.is_array() {
            return Err(FilterError("collection must be a JSON array".into()));
        }
        Ok(Collection::from_json(doc))
    }

    /// Builds from any JSON document: an array root contributes one
    /// document per element, any other root is a **single-document**
    /// collection (the shared non-array-root semantics of `find` and
    /// `aggregate`).
    pub fn from_json(doc: &Json) -> Collection {
        let mut interner = Interner::new();
        let tree = JsonTree::build_into(doc, &mut interner);
        Collection::from_first_segment(tree, interner)
    }

    /// Builds from collection text through the **fused parser**: the
    /// document is lexed, interned and flattened into the tree column in
    /// one pass — no intermediate value tree is ever built. Non-array roots
    /// get the [`Collection::from_json`] single-document semantics.
    pub fn parse_str(src: &str) -> Result<Collection, FilterError> {
        let mut interner = Interner::new();
        let tree = jsondata::parse_to_tree_into(src, ParseLimits::default(), &mut interner)
            .map_err(|e| FilterError(e.to_string()))?;
        Ok(Collection::from_first_segment(tree, interner))
    }

    /// [`Collection::parse_str`] with explicit [`ParseLimits`] — the
    /// serving edge's ingestion guard: an oversized or too-deep document
    /// is rejected with [`QueryError::ParseLimit`] *before* any tree is
    /// built (the size cap is checked against the raw text length).
    pub fn parse_str_with_limits(src: &str, limits: ParseLimits) -> Result<Collection, QueryError> {
        let mut interner = Interner::new();
        let tree = jsondata::parse_to_tree_into(src, limits, &mut interner)?;
        Ok(Collection::from_first_segment(tree, interner))
    }

    fn from_first_segment(tree: JsonTree, interner: Interner) -> Collection {
        let doc_refs = match tree.kind(tree.root()) {
            NodeKind::Arr => tree
                .arr_children(tree.root())
                .iter()
                .map(|&node| DocRef { seg: 0, node })
                .collect(),
            _ => vec![DocRef {
                seg: 0,
                node: tree.root(),
            }],
        };
        Collection {
            interner,
            segments: vec![Arc::new(tree)],
            doc_refs,
            pool: Pool::auto(),
            schema: None,
            indexes: IndexSet::default(),
        }
    }

    /// Declares the collection's JSL schema. Attachment is a contract, not
    /// a document check: callers validate inserts themselves (cf. the
    /// `stream_gatekeeper` example) and the static analyzer is entitled to
    /// treat `schema ∧ query` unsatisfiability as proof that a query path
    /// is dead on this collection.
    ///
    /// The schema *expression* is checked, fail-closed: an ill-formed one
    /// (a dangling `$ref`-style [`jsl::ast::Jsl::Var`], a precedence
    /// cycle) is rejected with a structured [`jsl::WellFormednessError`]
    /// here, so no later evaluation can panic across the governed
    /// boundary (docs/robustness.md).
    pub fn set_schema(
        &mut self,
        schema: jsl::RecursiveJsl,
    ) -> Result<(), jsl::WellFormednessError> {
        schema.well_formed()?;
        self.schema = Some(schema);
        Ok(())
    }

    /// [`Collection::set_schema`], chainable at construction time.
    pub fn with_schema(
        mut self,
        schema: jsl::RecursiveJsl,
    ) -> Result<Collection, jsl::WellFormednessError> {
        self.set_schema(schema)?;
        Ok(self)
    }

    /// Removes the declared schema.
    pub fn clear_schema(&mut self) {
        self.schema = None;
    }

    /// The declared JSL schema, if any.
    pub fn schema(&self) -> Option<&jsl::RecursiveJsl> {
        self.schema.as_ref()
    }

    /// Sets the worker pool driving this collection's query scans (and the
    /// `jagg` aggregation executor). [`Pool::serial`] restores strictly
    /// single-threaded execution — the semantic oracle the determinism
    /// suites compare every thread count against.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// [`Collection::set_pool`], chainable at construction time.
    pub fn with_pool(mut self, pool: Pool) -> Collection {
        self.pool = pool;
        self
    }

    /// The worker pool queries over this collection run on.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Appends **one** document (whatever its JSON type — an array value is
    /// one array-valued document, not a batch) as a new segment tree built
    /// through the collection's shared interner, so its symbols are
    /// comparable with every existing segment. Queries see the new document
    /// immediately; results agree exactly with a from-scratch rebuild of
    /// the extended collection (differentially tested).
    pub fn insert(&mut self, doc: &Json) {
        let tree = JsonTree::build_into(doc, &mut self.interner);
        self.push_segment(tree);
    }

    /// [`Collection::insert`] from document text through the fused parser
    /// ([`jsondata::parse_to_tree_into`] with the shared interner). On a
    /// parse error the collection is unchanged (the shared table may retain
    /// symbols from the document's well-formed prefix, which is harmless).
    pub fn insert_str(&mut self, src: &str) -> Result<(), FilterError> {
        let tree = jsondata::parse_to_tree_into(src, ParseLimits::default(), &mut self.interner)
            .map_err(|e| FilterError(e.to_string()))?;
        self.push_segment(tree);
        Ok(())
    }

    /// [`Collection::insert_str`] with explicit [`ParseLimits`]: the
    /// document is rejected with [`QueryError::ParseLimit`] — before any
    /// tree build for the size cap, at the offending depth for the depth
    /// cap — and the collection is left unchanged on failure.
    pub fn insert_str_with_limits(
        &mut self,
        src: &str,
        limits: ParseLimits,
    ) -> Result<(), QueryError> {
        let tree = jsondata::parse_to_tree_into(src, limits, &mut self.interner)?;
        self.push_segment(tree);
        Ok(())
    }

    fn push_segment(&mut self, tree: JsonTree) {
        self.push_segment_arc(Arc::new(tree));
    }

    fn push_segment_arc(&mut self, tree: Arc<JsonTree>) {
        let seg = self.segments.len() as u32;
        self.doc_refs.push(DocRef {
            seg,
            node: tree.root(),
        });
        self.segments.push(tree);
        // Incremental index maintenance: the new segment holds exactly one
        // document, appended at the end of the ordinal space.
        self.indexes
            .add_segment(&self.segments, self.doc_refs.len() - 1, &self.doc_refs);
    }

    /// Appends an **already-built** segment tree shared with another
    /// collection — the replay primitive of snapshot-isolated serving:
    /// a compacted clone catches up with segments its origin appended
    /// while the compaction ran, without re-parsing or copying them.
    ///
    /// The segment must come from the same interner lineage: its
    /// interner snapshot has this collection's symbol table as a prefix
    /// (or is a prefix of it). Interners grow append-only and interning
    /// is monotone, so catching up means replaying the missing suffix of
    /// the segment's table — symbol indices are preserved exactly, which
    /// `debug_assert`s verify per adopted symbol. Adopting a segment
    /// from an unrelated interner is a logic error and will scramble
    /// query results (it cannot, however, cause memory unsafety).
    pub fn adopt_segment(&mut self, tree: &Arc<JsonTree>) {
        let seg_interner = tree.interner();
        for (sym, s) in seg_interner.iter_from(self.interner.len()) {
            let assigned = self.interner.intern(s);
            debug_assert_eq!(
                assigned, sym,
                "adopted segment is not from this collection's interner lineage"
            );
        }
        self.push_segment_arc(Arc::clone(tree));
    }

    /// The documents, as owned values, materialised from the tree column
    /// on every call. For tests and set-up; query paths never call it.
    pub fn docs(&self) -> Vec<Json> {
        self.doc_refs.iter().map(|&d| self.json_of(d)).collect()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.doc_refs.len()
    }

    /// Whether the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.doc_refs.is_empty()
    }

    /// The segment trees of the collection's tree column (segment 0 is the
    /// initial load; one more per insert). All segments share one symbol
    /// assignment. Trees are behind [`Arc`]s so snapshots can share them;
    /// `&segments()[i]` deref-coerces to `&JsonTree` wherever a plain
    /// tree is expected.
    pub fn segments(&self) -> &[Arc<JsonTree>] {
        &self.segments
    }

    /// Every document's location in the tree column, in document order.
    pub fn doc_refs(&self) -> &[DocRef] {
        &self.doc_refs
    }

    /// The collection's shared symbol table (a superset of every segment's
    /// snapshot).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Materialises one document from the tree column.
    pub fn json_of(&self, d: DocRef) -> Json {
        self.segments[d.seg as usize].json_at(d.node)
    }

    /// `db.collection.find(filter)` — **the** governed read path: the
    /// tree-column locations of the matching documents, in `(segment,
    /// doc)` order, answered on the route [`Collection::route_of`]
    /// chooses (the index probe when the declared indexes answer part of
    /// the conjunction, the document scan otherwise). The route decision
    /// runs inside a `plan` span when the context carries a
    /// span-recording sink. `EXPLAIN`, the `jagg` leading `$match` and
    /// every `jserve` read verb reach execution through here, so a plan's
    /// claimed route is the route that runs. Both routes poll `ctx`,
    /// charge survivors against the row budget and return worker panics
    /// as [`QueryError::WorkerPanicked`].
    pub fn find_refs_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        ctx.span_open(SpanKind::Plan, 0);
        let route = self.route_of(filter);
        ctx.span_close(SpanKind::Plan, 0);
        match route {
            Route::Index => self.find_refs_by_index(filter, ctx),
            Route::Scan => self.find_refs_via_scan_with_ctx(filter, ctx),
        }
    }

    /// The document-scan oracle: every document is tested with
    /// [`Filter::matches_at`] in parallel chunks on the collection's pool,
    /// whatever indexes are declared. The index differential suites and
    /// the harness gates compare the routed path against this.
    pub fn find_refs_via_scan_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        self.scan_refs(ctx, |d| {
            filter.matches_at(&self.segments[d.seg as usize], d.node)
        })
    }

    /// The shared chunk-parallel document scan: keeps the refs satisfying
    /// `keep`, in document order. Polls `ctx` per document and charges
    /// surviving refs against the row budget.
    fn scan_refs(
        &self,
        ctx: &QueryCtx,
        keep: impl Fn(DocRef) -> bool + Sync,
    ) -> Result<Vec<DocRef>, QueryError> {
        let n = self.doc_refs.len();
        let chunk = self.pool.chunk_for(n, DOC_CHUNK_MIN);
        self.pool.try_flat_map_chunks(ctx, n, chunk, |r| {
            let mut poll = ctx.poller();
            let mut out = Vec::new();
            ctx.record(Counter::DocsScanned, r.len() as u64);
            for &d in &self.doc_refs[r] {
                poll.tick()?;
                if keep(d) {
                    out.push(d);
                }
            }
            ctx.charge_rows(out.len() as u64)?;
            Ok(out)
        })
    }

    /// Materialises each ref through `make`, in parallel chunks, preserving
    /// order (the output assembly of [`Collection::find_with_ctx`]). Polls
    /// `ctx` per document and charges each materialised value against the
    /// byte budget (a no-op traversal-free call when no budget is set).
    fn materialize_refs(
        &self,
        ctx: &QueryCtx,
        refs: Vec<DocRef>,
        make: impl Fn(DocRef) -> Json + Sync,
    ) -> Result<Vec<Json>, QueryError> {
        let chunk = self.pool.chunk_for(refs.len(), DOC_CHUNK_MIN);
        self.pool.try_flat_map_chunks(ctx, refs.len(), chunk, |r| {
            let mut poll = ctx.poller();
            let mut out = Vec::with_capacity(r.len());
            for &d in &refs[r] {
                poll.tick()?;
                let v = make(d);
                ctx.charge_json(&v)?;
                out.push(v);
            }
            Ok(out)
        })
    }

    /// `db.collection.find(filter)`: the matching documents, synthesized
    /// from the tree column — [`Collection::find_with_ctx`] without a
    /// projection or limits (a contained worker panic is re-raised).
    pub fn find(&self, filter: &Filter) -> Vec<Json> {
        expect_ungoverned(self.find_with_ctx(filter, None, &QueryCtx::unlimited()))
    }

    /// `find(filter, projection)` under a [`QueryCtx`]: the refs of
    /// [`Collection::find_refs_with_ctx`], materialised in order — whole
    /// documents, or only the kept subtrees of a [`Projection`]
    /// ([`Projection::apply_tree`]). Materialisation polls `ctx` per
    /// document and charges each value (projected, when projecting)
    /// against the byte budget.
    pub fn find_with_ctx(
        &self,
        filter: &Filter,
        projection: Option<&Projection>,
        ctx: &QueryCtx,
    ) -> Result<Vec<Json>, QueryError> {
        let refs = self.find_refs_with_ctx(filter, ctx)?;
        self.materialize_refs(ctx, refs, |d| {
            let tree = &self.segments[d.seg as usize];
            match projection {
                Some(p) => p.apply_tree(tree, d.node),
                None => tree.json_at(d.node),
            }
        })
    }

    /// The paper's engine as an oracle: compiles the filter to JNL and
    /// runs the Prop 1 evaluator, returning the tree-column locations of
    /// the satisfying documents. One evaluation per segment tree answers
    /// every document of that segment at once — JNL navigation is
    /// downward-only, so a formula's truth at a document node equals its
    /// truth at the root of that document parsed standalone. Agrees with
    /// [`Collection::find_refs_with_ctx`] on the [`Filter::jnl_exact`]
    /// fragment (differentially tested). Segments evaluate concurrently
    /// on the collection's pool ([`jnl::eval::evaluate_batch_ctx`]), each
    /// worker owning its whole evaluation context; the walk loops poll
    /// `ctx` every [`jguard::POLL_STRIDE`] nodes and the surviving refs
    /// charge the row budget.
    pub fn find_refs_via_jnl_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        let phi = filter.to_jnl();
        ctx.record(Counter::SegmentsVisited, self.segments.len() as u64);
        let sats = jnl::eval::evaluate_batch_ctx(&self.segments, &phi, &self.pool, ctx)?;
        let out: Vec<DocRef> = self
            .doc_refs
            .iter()
            .copied()
            .filter(|d| sats[d.seg as usize][d.node.index()])
            .collect();
        ctx.charge_rows(out.len() as u64)?;
        Ok(out)
    }

    /// Merges the tree column into **one segment**: every document's
    /// subtree replays — symbols copied as-is through the shared interner,
    /// no string is ever re-hashed, no [`Json`] is ever materialised —
    /// into a single array-rooted [`JsonTree`]
    /// ([`JsonTree::concat_subtrees`]). Document order, query results and
    /// the symbol assignment are all preserved exactly (property-tested);
    /// only the layout changes.
    ///
    /// Compaction is what keeps insert-heavy collections fast: every
    /// [`Collection::insert`] adds a single-document segment, and
    /// per-segment work — one JNL evaluation, one canonical-label table,
    /// one parallel task *per segment* — eventually drowns the queries.
    /// After `compact()` the collection is indistinguishable from one
    /// loaded in a single parse.
    pub fn compact(&mut self) {
        if self.segments.len() <= 1 {
            return;
        }
        let mut interner = std::mem::take(&mut self.interner);
        let parts: Vec<(&JsonTree, NodeId)> = self
            .doc_refs
            .iter()
            .map(|d| (self.segments[d.seg as usize].as_ref(), d.node))
            .collect();
        let merged = JsonTree::concat_subtrees(&parts, &mut interner);
        self.interner = interner;
        self.doc_refs = merged
            .arr_children(merged.root())
            .iter()
            .map(|&node| DocRef { seg: 0, node })
            .collect();
        self.segments = vec![Arc::new(merged)];
        // Node ids and canonical classes all changed: indexes are rebuilt
        // from the merged segment (correctness pinned by the post-compact
        // differential sweeps).
        self.indexes.rebuild(&self.segments, &self.doc_refs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::parse;

    /// The JNL oracle's answer, materialised.
    fn find_via_jnl(coll: &Collection, f: &Filter) -> Vec<Json> {
        let refs = coll
            .find_refs_via_jnl_with_ctx(f, &QueryCtx::unlimited())
            .unwrap();
        refs.into_iter().map(|d| coll.json_of(d)).collect()
    }

    fn find_project(coll: &Collection, f: &Filter, p: &Projection) -> Vec<Json> {
        coll.find_with_ctx(f, Some(p), &QueryCtx::unlimited())
            .unwrap()
    }

    fn people() -> Collection {
        Collection::from_array(
            &parse(
                r#"[
                {"name": {"first": "Sue", "last": "Kim"}, "age": 28, "hobbies": ["yoga", "chess"]},
                {"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["fishing"]},
                {"name": {"first": "Ana"}, "age": 45, "hobbies": []}
            ]"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn paper_example1() {
        // db.collection.find({name: {$eq: "Sue"}}, {}) — adapted to the
        // nested name shape: {"name.first": {"$eq": "Sue"}}.
        let coll = people();
        let f = Filter::parse_str(r#"{"name.first": {"$eq": "Sue"}}"#).unwrap();
        let hits = coll.find(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("age"), Some(&Json::Num(28)));
    }

    #[test]
    fn implicit_equality_and_dotted_paths() {
        let coll = people();
        let f = Filter::parse_str(r#"{"hobbies.0": "fishing"}"#).unwrap();
        assert_eq!(coll.find(&f).len(), 1);
        let f = Filter::parse_str(r#"{"name": {"first": "Ana"}}"#).unwrap();
        // whole-subtree equality: {"first": "Ana"} (no last key!)
        assert_eq!(coll.find(&f).len(), 1);
    }

    #[test]
    fn comparison_operators() {
        let coll = people();
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$gt": 28}}"#).unwrap())
                .len(),
            2
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$gte": 28}}"#).unwrap())
                .len(),
            3
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$lt": 30}}"#).unwrap())
                .len(),
            1
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$ne": 32}}"#).unwrap())
                .len(),
            2
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$gte": 28, "$lte": 32}}"#).unwrap())
                .len(),
            2
        );
    }

    #[test]
    fn logical_operators() {
        let coll = people();
        let f =
            Filter::parse_str(r#"{"$or": [{"age": 28}, {"name.first": {"$eq": "Ana"}}]}"#).unwrap();
        assert_eq!(coll.find(&f).len(), 2);
        let f = Filter::parse_str(r#"{"$not": {"age": {"$gte": 30}}}"#).unwrap();
        assert_eq!(coll.find(&f).len(), 1);
        let f = Filter::parse_str(r#"{"$and": [{"age": {"$gt": 20}}, {"hobbies": {"$size": 1}}]}"#)
            .unwrap();
        assert_eq!(coll.find(&f).len(), 1);
    }

    #[test]
    fn in_exists_size_type() {
        let coll = people();
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$in": [28, 45]}}"#).unwrap())
                .len(),
            2
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$nin": [28, 45]}}"#).unwrap())
                .len(),
            1
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"name.last": {"$exists": "true"}}"#).unwrap())
                .len(),
            2
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"name.last": {"$exists": "false"}}"#).unwrap())
                .len(),
            1
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"hobbies": {"$size": 0}}"#).unwrap())
                .len(),
            1
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"hobbies": {"$type": "array"}}"#).unwrap())
                .len(),
            3
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"age": {"$type": "string"}}"#).unwrap())
                .len(),
            0
        );
    }

    #[test]
    fn jnl_compilation_agrees_on_equality_fragment() {
        // Every filter in the equality fragment (no order comparisons, no
        // $type) must agree with its JNL compilation evaluated by Prop 1.
        let coll = people();
        let filters = [
            r#"{"name.first": {"$eq": "Sue"}}"#,
            r#"{"name": {"first": "Ana"}}"#,
            r#"{"age": {"$in": [28, 45]}}"#,
            r#"{"age": {"$nin": [28, 45]}}"#,
            r#"{"name.last": {"$exists": "true"}}"#,
            r#"{"name.last": {"$exists": "false"}}"#,
            r#"{"hobbies": {"$size": 1}}"#,
            r#"{"$or": [{"age": 28}, {"age": 45}]}"#,
            r#"{"$not": {"hobbies.0": "yoga"}}"#,
            r#"{"age": {"$ne": 32}}"#,
        ];
        for src in filters {
            let f = Filter::parse_str(src).unwrap();
            let direct: Vec<Json> = coll.find(&f);
            let via_jnl = find_via_jnl(&coll, &f);
            assert_eq!(direct, via_jnl, "filter {src}");
            // And the compiled formula is deterministic JNL.
            assert!(f.to_jnl().fragment().is_deterministic(), "filter {src}");
        }
    }

    #[test]
    fn projection() {
        let coll = people();
        let f = Filter::parse_str(r#"{"age": {"$gte": 30}}"#).unwrap();
        let p = Projection::parse_str(r#"{"name.first": 1, "age": 1}"#).unwrap();
        let out = find_project(&coll, &f, &p);
        assert_eq!(out.len(), 2);
        for d in &out {
            assert!(d.get("name").unwrap().get("first").is_some());
            assert!(d.get("name").unwrap().get("last").is_none());
            assert!(d.get("age").is_some());
            assert!(d.get("hobbies").is_none());
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Filter::parse_str(r#"{"$bogus": 1}"#).is_err());
        assert!(Filter::parse_str(r#"{"a": {"$frob": 1}}"#).is_err());
        assert!(Filter::parse_str(r#"{"a": {"$size": "x"}}"#).is_err());
        assert!(Filter::parse_str("[1]").is_err());
        assert!(Projection::parse_str(r#"{"a": 0}"#).is_err());
    }

    /// The filter corpus used by the tree/value equivalence sweeps: every
    /// operator, nested paths, numeric segments, compound booleans, and
    /// whole-subtree (object/array) comparison constants.
    fn filter_corpus() -> Vec<Filter> {
        [
            r#"{"name.first": {"$eq": "Sue"}}"#,
            r#"{"name": {"first": "Ana"}}"#,
            r#"{"name": {"$eq": {"last": "Kim", "first": "Sue"}}}"#,
            r#"{"hobbies": ["yoga", "chess"]}"#,
            r#"{"hobbies.0": "fishing"}"#,
            r#"{"hobbies.2": {"$exists": "true"}}"#,
            r#"{"age": {"$gt": 28}}"#,
            r#"{"age": {"$gte": 28, "$lte": 32}}"#,
            r#"{"age": {"$lt": 30}}"#,
            r#"{"age": {"$ne": 32}}"#,
            r#"{"age": {"$in": [28, 45]}}"#,
            r#"{"age": {"$nin": [28, 45]}}"#,
            r#"{"name.last": {"$exists": "true"}}"#,
            r#"{"name.last": {"$exists": "false"}}"#,
            r#"{"hobbies": {"$size": 0}}"#,
            r#"{"hobbies": {"$size": 2}}"#,
            r#"{"hobbies": {"$type": "array"}}"#,
            r#"{"age": {"$type": "string"}}"#,
            r#"{"name": {"$type": "object"}}"#,
            r#"{"$or": [{"age": 28}, {"name.first": {"$eq": "Ana"}}]}"#,
            r#"{"$and": [{"age": {"$gt": 20}}, {"hobbies": {"$size": 1}}]}"#,
            r#"{"$not": {"age": {"$gte": 30}}}"#,
            r#"{"age": {"$not": {"$lt": 30}}}"#,
            r#"{"salary": {"$gt": 0}}"#,
            r#"{"name": {"$gt": {"first": "Bob"}}}"#,
            r#"{"hobbies": {"$lte": ["zzz"]}}"#,
        ]
        .iter()
        .map(|src| Filter::parse_str(src).expect("corpus filter parses"))
        .collect()
    }

    #[test]
    fn matches_tree_agrees_with_matches_on_the_corpus() {
        // Per-document equivalence: the tree-backed evaluation must decide
        // exactly like the value-backed one on every (filter, doc) pair.
        let coll = people();
        for f in filter_corpus() {
            for d in &coll.docs() {
                let tree = JsonTree::build(d);
                assert_eq!(f.matches(d), f.matches_tree(&tree), "filter {f:?} on {d}");
            }
            // And collection-level: find (tree column) == value filtering.
            let via_tree: Vec<Json> = coll.find(&f);
            let via_value: Vec<Json> = coll
                .docs()
                .iter()
                .filter(|d| f.matches(d))
                .cloned()
                .collect();
            assert_eq!(via_tree, via_value, "filter {f:?}");
        }
    }

    #[test]
    fn matches_tree_agrees_on_random_documents() {
        // Random-document sweep, including docs whose shapes the filters'
        // paths only partially fit (missing keys, type mismatches, numeric
        // segments over objects).
        let filters = filter_corpus();
        for seed in 0..80u64 {
            let doc = jsondata::gen::random_json(&jsondata::gen::GenConfig::sized(seed, 60));
            let tree = JsonTree::build(&doc);
            for f in &filters {
                assert_eq!(
                    f.matches(&doc),
                    f.matches_tree(&tree),
                    "seed {seed}, filter {f:?} on {doc}"
                );
            }
        }
    }

    #[test]
    fn parse_str_collection_equals_from_array() {
        // The fused constructor and the value constructor must answer every
        // query identically (and expose equal documents).
        let src = r#"[
            {"name": {"first": "Sue", "last": "Kim"}, "age": 28, "hobbies": ["yoga", "chess"]},
            {"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["fishing"]},
            {"name": {"first": "Ana"}, "age": 45, "hobbies": []}
        ]"#;
        let fused = Collection::parse_str(src).unwrap();
        let two_pass = Collection::from_array(&parse(src).unwrap()).unwrap();
        assert_eq!(fused.docs(), two_pass.docs());
        assert!(fused.segments()[0].identical(&two_pass.segments()[0]));
        for f in filter_corpus() {
            assert_eq!(fused.find(&f), two_pass.find(&f), "filter {f:?}");
            assert_eq!(
                find_via_jnl(&fused, &f),
                find_via_jnl(&two_pass, &f),
                "filter {f:?}"
            );
        }
        // Malformed text is rejected; `from_array` still insists on arrays.
        assert!(Collection::parse_str("[1, 2").is_err());
        assert!(Collection::from_array(&parse(r#"{"not": "an array"}"#).unwrap()).is_err());
    }

    #[test]
    fn non_array_roots_are_single_document_collections() {
        // The shared single-document semantics of `find` and `aggregate`:
        // a non-array root IS the collection's one document.
        let src = r#"{"name": {"first": "Sue"}, "age": 28, "hobbies": ["yoga"]}"#;
        let coll = Collection::parse_str(src).unwrap();
        assert_eq!(coll.len(), 1);
        assert_eq!(coll.docs(), &[parse(src).unwrap()]);
        let hit = Filter::parse_str(r#"{"name.first": "Sue"}"#).unwrap();
        let miss = Filter::parse_str(r#"{"age": {"$gt": 40}}"#).unwrap();
        assert_eq!(coll.find(&hit).len(), 1);
        assert_eq!(coll.find(&miss).len(), 0);
        assert_eq!(find_via_jnl(&coll, &hit).len(), 1);
        // The value constructor agrees, including on scalar roots.
        let scalar = Collection::from_json(&Json::Num(7));
        assert_eq!(scalar.docs(), &[Json::Num(7)]);
        assert_eq!(
            scalar
                .find(&Filter::parse_str(r#"{"x": 1}"#).unwrap())
                .len(),
            0
        );
    }

    #[test]
    fn insert_matches_from_scratch_rebuild() {
        let mut coll = people();
        coll.insert(&parse(r#"{"name": {"first": "Wei"}, "age": 45, "hobbies": ["go"]}"#).unwrap());
        coll.insert_str(r#"{"name": {"first": "Ivy", "last": "Kim"}, "age": 28, "hobbies": []}"#)
            .unwrap();
        assert!(coll.insert_str(r#"{"bad" 1}"#).is_err());
        assert_eq!(coll.len(), 5);
        assert_eq!(coll.segments().len(), 3);

        // From-scratch rebuild over the materialised documents.
        let rebuilt = Collection::from_array(&Json::Array(coll.docs())).unwrap();
        assert_eq!(coll.docs(), rebuilt.docs());
        for f in filter_corpus() {
            assert_eq!(coll.find(&f), rebuilt.find(&f), "filter {f:?}");
            assert_eq!(
                find_via_jnl(&coll, &f),
                find_via_jnl(&rebuilt, &f),
                "filter {f:?}"
            );
        }
        // Symbols are shared across segments: a key interned by the initial
        // load resolves to the same symbol in an inserted segment's table.
        let age = coll.interner().lookup("age").unwrap();
        assert_eq!(coll.segments()[1].sym("age"), Some(age));
        assert_eq!(coll.segments()[2].sym("age"), Some(age));
    }

    #[test]
    fn find_project_synthesizes_from_tree() {
        // apply_tree == apply on the materialised document, for every doc
        // and a non-trivial include set (incl. missing paths).
        let coll = people();
        let p = Projection::parse_str(r#"{"name.first": 1, "age": 1, "name.last": 1}"#).unwrap();
        let all = Filter::parse_str(r#"{"age": {"$exists": "true"}}"#).unwrap();
        let via_tree = find_project(&coll, &all, &p);
        let via_value: Vec<Json> = coll.docs().iter().map(|d| p.apply(d)).collect();
        assert_eq!(via_tree, via_value);
        // Empty include keeps whole documents.
        let keep_all = Projection::default();
        assert_eq!(find_project(&coll, &all, &keep_all), coll.docs());
    }

    #[test]
    fn jnl_exact_fragment_is_honest() {
        // Exact filters: the JNL oracle must agree
        // with direct matching — already covered by
        // `jnl_compilation_agrees_on_equality_fragment`; here we pin the
        // classifier itself on both sides of the boundary.
        for (src, exact) in [
            (r#"{"name.first": {"$eq": "Sue"}}"#, true),
            (r#"{"age": {"$ne": 32}}"#, true),
            (r#"{"age": {"$in": [28, 45]}}"#, true),
            (r#"{"name.last": {"$exists": "false"}}"#, true),
            (r#"{"$or": [{"age": 28}, {"name.first": "Ana"}]}"#, true),
            (r#"{"age": {"$gt": 28}}"#, false),
            (r#"{"hobbies": {"$size": 2}}"#, false),
            (r#"{"hobbies": {"$type": "array"}}"#, false),
            (r#"{"hobbies.0": "yoga"}"#, false),
            (r#"{"$or": [{"age": 28}, {"age": {"$lt": 3}}]}"#, false),
        ] {
            assert_eq!(
                Filter::parse_str(src).unwrap().jnl_exact(),
                exact,
                "filter {src}"
            );
        }
    }

    #[test]
    fn missing_paths_never_match_comparisons() {
        let coll = people();
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"salary": {"$gt": 0}}"#).unwrap())
                .len(),
            0
        );
        assert_eq!(
            coll.find(&Filter::parse_str(r#"{"salary": {"$ne": 1}}"#).unwrap())
                .len(),
            0,
            "$ne still requires the path to exist in this dialect"
        );
    }
}
