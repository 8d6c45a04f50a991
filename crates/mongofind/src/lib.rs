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
//! * [`Filter::bind`] / [`Path::bind`] — the tree-side evaluators. A
//!   query binds its paths and string constants to the collection's
//!   symbol table once; rows then step by symbol ([`step_node`], a `u32`
//!   binary search) and test string equality by symbol, so the paper's
//!   `O(1)` edge-label tests hold per row without hashing a string.
//!   [`Filter::matches`] on [`Json`] is the oracle the bound evaluators
//!   are differentially tested against.
//! * [`Collection::find`] — evaluation over a collection (index probe or
//!   document scan, chosen by [`Collection::route_of`]), plus
//!   [`Projection`] (the §6 future-work feature) as a basic JSON→JSON
//!   transformation, inclusions only (`{path: 1}`). The compiled JNL
//!   formula evaluated by the Prop 1 engine stays available as an oracle
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

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use jguard::{QueryCtx, QueryError};
use jnl::ast::{Binary, Unary};
use jpar::Pool;
use jsondata::{Interner, JStr, Json, JsonTree, NodeId, NodeKind, ParseLimits, Sym};
use jtrace::{Counter, SpanKind};

mod explain;
mod index;

pub use explain::{Actuals, FindAnalyze, FindExplain, ProbeDesc, Route};
pub use index::IndexSet;
use index::Postings;

/// Minimum per-chunk count of documents or rows for the parallel scan
/// paths here and `jagg`'s per-row stages: ranges below this collapse
/// into one chunk and run inline on the calling thread (see
/// [`Pool::chunk_for`]), so small inputs never pay a thread spawn.
pub const DOC_CHUNK_MIN: usize = 256;

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
///
/// A path is written in strings, but no tree-side evaluation walks it by
/// string: a query binds each path it reads **once** against its
/// collection's symbol table ([`Path::bind`]), and every row then steps
/// through the [`BoundPath`] with [`step_node`] — a `u32` binary search per
/// object step, never a string hash. [`Path::resolve`] walks owned
/// [`Json`] values (the oracle side) by string.
///
/// Segments are [`JStr`]s, like object keys, so a path of short segments
/// owns one heap buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path(pub Vec<JStr>);

impl Path {
    /// Parses a dotted path (`"name.first"`, `"hobbies.0"`).
    pub fn parse(s: &str) -> Path {
        Path(s.split('.').map(JStr::from).collect())
    }

    /// Resolves this path against a [`Json`] value: numeric segments index
    /// arrays, every segment is a key lookup on objects.
    pub fn resolve<'a>(&self, doc: &'a Json) -> Option<&'a Json> {
        resolve(doc, self)
    }

    /// Binds this path to a symbol table: each segment's symbol and array
    /// position are looked up once, here, so resolving the bound path on a
    /// tree does no string work. See [`BoundPath`] for which table to bind
    /// to.
    pub fn bind(&self, table: &Interner) -> BoundPath<'_> {
        BoundPath {
            path: self,
            steps: self.steps(table).collect(),
        }
    }

    /// The bound segments of [`Path::bind`], one [`Step`] per segment.
    pub(crate) fn steps<'a>(&'a self, table: &'a Interner) -> impl Iterator<Item = Step> + 'a {
        self.0.iter().map(|seg| Step {
            key: table.lookup(seg),
            index: seg.parse().ok(),
        })
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
                    Err(_) => Binary::Key(seg.as_str().to_owned()),
                })
                .collect(),
        )
    }
}

/// One segment of a [`BoundPath`], resolved against a symbol table.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The segment's symbol, or `None` when the table does not hold the
    /// string — then no object edge carries it.
    key: Option<Sym>,
    /// The segment as an array position, when it is numeric.
    index: Option<usize>,
}

/// A [`Path`] bound to a symbol table by [`Path::bind`]: one [`Step`] per
/// segment. It keeps a reference to its source path, which the owned-
/// [`Json`] side and output assembly still read.
///
/// ## Which table
///
/// A query over a [`Collection`] binds to [`Collection::interner`], the
/// last segment's table, and resolves the bound path in **every** segment.
/// This is sound because every segment's table is a prefix of the last
/// one: each segment is built on, and only ever extends, the table before
/// it, and compaction replays onto the last table. So a symbol found in
/// the last table names the same string in every segment, and a string
/// absent from it is absent from every segment — no edge and no string
/// leaf anywhere carries it, so a step without a symbol fails on every
/// object, and a string constant without one equals no node. A tree
/// outside any collection binds to its own table
/// ([`JsonTree::interner`]).
#[derive(Debug)]
pub struct BoundPath<'p> {
    path: &'p Path,
    steps: Box<[Step]>,
}

impl<'p> BoundPath<'p> {
    /// The path this was bound from.
    pub fn path(&self) -> &'p Path {
        self.path
    }

    /// The bound segments, in path order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// What a document must use for the path to resolve in it: the
    /// latest key symbol of its non-numeric segments (a numeric segment
    /// can step into an array instead).
    fn horizon(&self) -> Horizon {
        self.steps
            .iter()
            .filter(|s| s.index.is_none())
            .map(|s| Horizon::of(s.key))
            .max()
            .unwrap_or(Horizon::Any)
    }

    /// Resolves the path on a [`JsonTree`] anchored at `at`: [`step_node`]
    /// per step. Agrees with [`Path::resolve`] on `tree.json_at(at)` when
    /// bound to a table the tree's table is a prefix of.
    pub fn resolve_node(&self, tree: &JsonTree, at: NodeId) -> Option<NodeId> {
        self.steps
            .iter()
            .try_fold(at, |cur, step| step_node(tree, cur, step))
    }
}

/// THE single-step rule of the dialect's dotted paths on trees: an array
/// node takes the step's position, an object node the child under the
/// step's symbol (a `u32` binary search), anything else fails. Every
/// tree-side path walk steps through here — [`BoundPath::resolve_node`]
/// and the `jagg` overlay rows alike — so their semantics cannot drift
/// from one another or from [`Path::resolve`].
pub fn step_node(tree: &JsonTree, at: NodeId, step: &Step) -> Option<NodeId> {
    match tree.kind(at) {
        NodeKind::Arr => tree.child_by_index(at, step.index?),
        NodeKind::Obj => tree.child_by_sym(at, step.key?),
        _ => None,
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
                path => Self::parse_condition(Path::parse(path), v, &mut parts)?,
            }
        }
        Ok(Filter::And(parts))
    }

    /// Parses from filter text.
    pub fn parse_str(src: &str) -> Result<Filter, FilterError> {
        let doc = jsondata::parse(src).map_err(|e| FilterError(e.to_string()))?;
        Filter::parse(&doc)
    }

    /// Parses the condition on `path`, pushing its conjuncts onto `out`.
    fn parse_condition(path: Path, v: &Json, out: &mut Vec<Filter>) -> Result<(), FilterError> {
        // An object whose keys are all operators is a condition set;
        // anything else is implicit equality.
        let is_ops = v
            .as_object()
            .is_some_and(|o| !o.is_empty() && o.iter().all(|(k, _)| k.starts_with('$')));
        if !is_ops {
            out.push(Filter::Compare(path, Cmp::Eq, v.clone()));
            return Ok(());
        }
        let obj = v.as_object().expect("checked");
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
                "$not" => {
                    let mut inner = Vec::new();
                    Self::parse_condition(path.clone(), operand, &mut inner)?;
                    Filter::Not(Box::new(Filter::And(inner)))
                }
                other => return Err(FilterError(format!("unknown operator {other}"))),
            });
        }
        Ok(())
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

    /// Binds the filter's paths and string constants to a symbol table,
    /// once, for evaluation on trees ([`BoundFilter::matches_at`]). See
    /// [`BoundPath`] for which table to bind to.
    pub fn bind(&self, table: &Interner) -> BoundFilter<'_> {
        let konst = |value| BoundConst {
            value,
            sym: match value {
                Json::Str(s) => table.lookup(s),
                _ => None,
            },
        };
        BoundFilter(match self {
            Filter::And(fs) => Cond::And(fs.iter().map(|f| f.bind(table).0).collect()),
            Filter::Or(fs) => Cond::Or(fs.iter().map(|f| f.bind(table).0).collect()),
            Filter::Not(f) => Cond::Not(Box::new(f.bind(table).0)),
            Filter::Compare(p, cmp, v) => Cond::Compare(p.bind(table), *cmp, konst(v)),
            Filter::In(p, items, pos) => {
                Cond::In(p.bind(table), items.iter().map(konst).collect(), *pos)
            }
            Filter::Exists(p, flag) => Cond::Exists(p.bind(table), *flag),
            Filter::Size(p, n) => Cond::Size(p.bind(table), *n),
            Filter::Type(p, ty) => Cond::Type(p.bind(table), ty),
        })
    }
}

/// A filter constant bound to a symbol table.
#[derive(Debug)]
struct BoundConst<'f> {
    value: &'f Json,
    /// A string constant's symbol; `None` for other constants, and for a
    /// string the table lacks — which then equals no string node.
    sym: Option<Sym>,
}

impl BoundConst<'_> {
    /// What a node equal to this constant must use: a string constant's
    /// symbol, nothing for any other constant.
    fn horizon(&self) -> Horizon {
        match self.value {
            Json::Str(_) => Horizon::of(self.sym),
            _ => Horizon::Any,
        }
    }
}

/// A [`Filter`] bound to a symbol table by [`Filter::bind`]: its paths are
/// [`BoundPath`]s, and `$eq`/`$ne`/`$in`/`$nin` against a string constant
/// compare the node's symbol with the constant's. Order comparisons and
/// non-string constants compare values ([`cmp_node_json`]).
///
/// This is the tree side of the dialect: the [`Collection`] scan, the
/// index route's residual and the `jagg` `$match` stage all evaluate a
/// `BoundFilter`, and [`Filter::matches`] on [`Json`] stays the oracle it
/// is differentially tested against.
#[derive(Debug)]
pub struct BoundFilter<'f>(Cond<'f>);

/// The bound condition tree, one variant per [`Filter`] variant.
#[derive(Debug)]
enum Cond<'f> {
    And(Vec<Cond<'f>>),
    Or(Vec<Cond<'f>>),
    Not(Box<Cond<'f>>),
    Compare(BoundPath<'f>, Cmp, BoundConst<'f>),
    In(BoundPath<'f>, Vec<BoundConst<'f>>, bool),
    Exists(BoundPath<'f>, bool),
    Size(BoundPath<'f>, u64),
    Type(BoundPath<'f>, &'static str),
}

/// The value a bound condition tests at the end of its path.
#[derive(Debug)]
pub enum Operand<'a> {
    /// A node of a tree whose table is a prefix of the binding table.
    Node(&'a JsonTree, NodeId),
    /// A value that lives in no tree (the `jagg` executor's synthesized
    /// rows and merged views); compared by value, never by symbol.
    Value(Cow<'a, Json>),
}

impl Operand<'_> {
    /// Whether the operand equals `c`: by symbol for a tree string against
    /// a string constant, by value otherwise.
    fn eq_const(&self, c: &BoundConst<'_>) -> bool {
        match (self, c.value) {
            (Operand::Node(tree, n), Json::Str(_)) => c.sym.is_some() && tree.str_sym(*n) == c.sym,
            _ => self.cmp_const(c).is_eq(),
        }
    }

    /// [`Json::total_cmp`] of the operand against `c`.
    fn cmp_const(&self, c: &BoundConst<'_>) -> Ordering {
        match self {
            Operand::Node(tree, n) => cmp_node_json(tree, *n, c.value),
            Operand::Value(v) => v.total_cmp(c.value),
        }
    }

    fn kind(&self) -> NodeKind {
        match self {
            Operand::Node(tree, n) => tree.kind(*n),
            Operand::Value(v) => json_kind(v),
        }
    }

    fn arr_len(&self) -> Option<usize> {
        match self {
            Operand::Node(tree, n) => {
                (tree.kind(*n) == NodeKind::Arr).then(|| tree.child_count(*n))
            }
            Operand::Value(v) => v.as_array().map(<[Json]>::len),
        }
    }
}

/// The oldest document a [`BoundFilter`] can match, in symbol time
/// ([`BoundFilter::horizon`]). Symbols are numbered in first-use order,
/// so a document built before a symbol was interned cannot carry it.
/// Ordered `Any < From(s) < From(t) < Never` for `s < t`: a conjunction
/// takes the latest horizon of its parts, a disjunction the earliest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Horizon {
    /// Any document may match.
    Any,
    /// Only a document that uses this symbol, or one interned after it,
    /// as a key or string atom may match.
    From(Sym),
    /// No document matches: the filter needs a string the binding table
    /// lacks.
    Never,
}

impl Horizon {
    /// The horizon of needing `sym`, a symbol the table may lack.
    fn of(sym: Option<Sym>) -> Horizon {
        sym.map_or(Horizon::Never, Horizon::From)
    }
}

impl BoundFilter<'_> {
    /// The filter's horizon on the documents of trees whose tables are
    /// prefixes of the binding table: every document that satisfies the
    /// filter uses a symbol at or after it. It follows
    /// [`BoundFilter::matches_at`]: a `Compare` (any operator), an `$in`
    /// or `$nin`, `$exists: true`, `$size` and `$type` are false where
    /// the path does not resolve, so they need the path's key symbols
    /// (numeric segments may step into arrays, so they need nothing).
    /// `$eq` on a string also needs that string's symbol, and `$in` the
    /// oldest of its items' (any non-string item needs nothing). `$not`
    /// and `$exists: false` can hold on an empty document, so they give
    /// [`Horizon::Any`]. [`Collection::scan_start`] turns it into the
    /// first document a scan must test.
    pub fn horizon(&self) -> Horizon {
        self.0.horizon()
    }

    /// Whether the document rooted at `doc` of `tree` satisfies the
    /// filter. Agrees with [`Filter::matches`] on `tree.json_at(doc)`
    /// (differentially tested across segments and layouts).
    pub fn matches_at(&self, tree: &JsonTree, doc: NodeId) -> bool {
        self.matches_with(&|p| p.resolve_node(tree, doc).map(|n| Operand::Node(tree, n)))
    }

    /// The condition walk over any row representation: `resolve` finds
    /// the operand at a bound path (`None` when the path is missing).
    /// [`BoundFilter::matches_at`] resolves on one tree; the `jagg`
    /// executor resolves through its `$unwind` overlay bindings, so both
    /// walk this one code path.
    pub fn matches_with<'a>(
        &self,
        resolve: &impl Fn(&BoundPath<'_>) -> Option<Operand<'a>>,
    ) -> bool {
        self.0.matches_with(resolve)
    }
}

impl Cond<'_> {
    fn horizon(&self) -> Horizon {
        match self {
            Cond::And(cs) => cs.iter().map(Cond::horizon).max().unwrap_or(Horizon::Any),
            Cond::Or(cs) => cs.iter().map(Cond::horizon).min().unwrap_or(Horizon::Never),
            Cond::Not(_) | Cond::Exists(_, false) => Horizon::Any,
            Cond::Compare(p, Cmp::Eq, c) => p.horizon().max(c.horizon()),
            Cond::In(p, items, true) => {
                let oldest = items.iter().map(BoundConst::horizon).min();
                p.horizon().max(oldest.unwrap_or(Horizon::Never))
            }
            Cond::Compare(p, ..)
            | Cond::In(p, ..)
            | Cond::Exists(p, true)
            | Cond::Size(p, _)
            | Cond::Type(p, _) => p.horizon(),
        }
    }

    fn matches_with<'a>(&self, resolve: &impl Fn(&BoundPath<'_>) -> Option<Operand<'a>>) -> bool {
        match self {
            Cond::And(cs) => cs.iter().all(|c| c.matches_with(resolve)),
            Cond::Or(cs) => cs.iter().any(|c| c.matches_with(resolve)),
            Cond::Not(c) => !c.matches_with(resolve),
            Cond::Compare(p, cmp, c) => resolve(p).is_some_and(|x| match cmp {
                Cmp::Eq => x.eq_const(c),
                Cmp::Ne => !x.eq_const(c),
                Cmp::Gt => x.cmp_const(c).is_gt(),
                Cmp::Gte => x.cmp_const(c).is_ge(),
                Cmp::Lt => x.cmp_const(c).is_lt(),
                Cmp::Lte => x.cmp_const(c).is_le(),
            }),
            Cond::In(p, items, pos) => {
                resolve(p).is_some_and(|x| items.iter().any(|c| x.eq_const(c)) == *pos)
            }
            Cond::Exists(p, flag) => resolve(p).is_some() == *flag,
            Cond::Size(p, n) => resolve(p)
                .and_then(|x| x.arr_len())
                .is_some_and(|len| len as u64 == *n),
            Cond::Type(p, ty) => resolve(p).is_some_and(|x| type_matches_kind(ty, x.kind())),
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
/// single source of truth for every `$type` test — [`Filter::matches`]
/// and [`BoundFilter::matches_with`] (the tree side and the `jagg` overlay
/// rows) both consult it.
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

/// [`Json::total_cmp`] between a subtree of `ta` and a subtree of `tb`
/// (which may be the same tree), without materialising either.
/// Implements the same total order as [`cmp_node_json`] — numbers <
/// strings < arrays < objects, arrays element-wise then by length, objects
/// as *string*-sorted key→value maps (symbol order is interning order, not
/// lexicographic, so keys resolve before comparison). Strings and keys
/// compare by value, never by symbol, so the two trees need not share an
/// interner. This is the comparator the sorted index column is built with
/// and `$min`/`$max` compare their tree handles with; its agreement with
/// `Json::total_cmp` is pinned by the order-property suite.
pub fn cmp_nodes(ta: &JsonTree, a: NodeId, tb: &JsonTree, b: NodeId) -> Ordering {
    fn rank(k: NodeKind) -> u8 {
        match k {
            NodeKind::Int => 0,
            NodeKind::Str => 1,
            NodeKind::Arr => 2,
            NodeKind::Obj => 3,
        }
    }
    match (ta.kind(a), tb.kind(b)) {
        (NodeKind::Int, NodeKind::Int) => ta
            .num_value(a)
            .expect("Int payload")
            .cmp(&tb.num_value(b).expect("Int payload")),
        (NodeKind::Str, NodeKind::Str) => ta
            .str_value(a)
            .expect("Str payload")
            .cmp(tb.str_value(b).expect("Str payload")),
        (NodeKind::Arr, NodeKind::Arr) => {
            for (&ca, &cb) in ta.arr_children(a).iter().zip(tb.arr_children(b)) {
                let ord = cmp_nodes(ta, ca, tb, cb);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            ta.child_count(a).cmp(&tb.child_count(b))
        }
        (NodeKind::Obj, NodeKind::Obj) => {
            let mut ea: Vec<(&str, NodeId)> = ta.obj_children(a).collect();
            let mut eb: Vec<(&str, NodeId)> = tb.obj_children(b).collect();
            ea.sort_unstable_by(|x, y| x.0.cmp(y.0));
            eb.sort_unstable_by(|x, y| x.0.cmp(y.0));
            for ((ka, ca), (kb, cb)) in ea.iter().zip(eb.iter()) {
                let ord = ka.cmp(kb);
                if ord != Ordering::Equal {
                    return ord;
                }
                let ord = cmp_nodes(ta, *ca, tb, *cb);
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
/// form: inclusions only, `{path: 1}`; every exclusion is rejected).
#[derive(Debug, Clone, Default)]
pub struct Projection {
    /// Paths to keep; empty = keep everything.
    pub include: Vec<Path>,
}

impl Projection {
    /// Parses `{"name": 1, "age": 1}`-style projections; keys follow
    /// [`Projection::output_path`].
    pub fn parse_str(src: &str) -> Result<Projection, FilterError> {
        let doc = jsondata::parse(src).map_err(|e| FilterError(e.to_string()))?;
        let Some(obj) = doc.as_object() else {
            return Err(FilterError("projection must be an object".into()));
        };
        let mut include = Vec::new();
        for (k, v) in obj.iter() {
            if v.as_num() != Some(1) {
                return Err(FilterError("only inclusive projections ({path: 1})".into()));
            }
            include.push(Projection::output_path(k)?);
        }
        Ok(Projection { include })
    }

    /// The dotted path a projection key names. A `$`-prefixed key is
    /// rejected: the one key rule of this projection and `jagg`'s
    /// `$project`.
    pub fn output_path(key: &str) -> Result<Path, FilterError> {
        if key.starts_with('$') {
            return Err(FilterError(format!(
                "$project field {key:?} must not start with $"
            )));
        }
        Ok(Path::parse(key))
    }

    /// Applies the projection to one document.
    pub fn apply(&self, doc: &Json) -> Json {
        match self.include.is_empty() {
            true => doc.clone(),
            false => self.assemble(|p| resolve(doc, p).cloned()),
        }
    }

    /// [`Projection::apply`] evaluated directly on a tree node: each include
    /// path resolves on the tree and only the *kept* subtrees are
    /// materialised (via [`JsonTree::json_at`]) — the full document is never
    /// synthesised just to be cut down. Agrees with
    /// `apply(&tree.json_at(doc))` exactly (differentially tested). Binds
    /// the include paths to `tree`'s own table on every call. Serving
    /// projects through `jagg`'s `$project`; this stays for the serving
    /// benchmark's traced replay.
    pub fn apply_tree(&self, tree: &JsonTree, doc: NodeId) -> Json {
        let at = |p: &Path| p.bind(tree.interner()).resolve_node(tree, doc);
        match self.include.is_empty() {
            true => tree.json_at(doc),
            false => self.assemble(|p| at(p).map(|n| tree.json_at(n))),
        }
    }

    /// The projected document: each include path's value, where `value`
    /// finds one, in include order.
    fn assemble(&self, value: impl Fn(&Path) -> Option<Json>) -> Json {
        let mut pairs: Vec<(JStr, Json)> = Vec::new();
        for p in &self.include {
            if let Some(v) = value(p) {
                insert_path(&mut pairs, &p.0, v);
            }
        }
        Json::object(pairs).expect("projection paths produce distinct keys")
    }
}

/// Inserts `value` at a dotted `path` into an under-construction object's
/// pair list, creating nested objects for intermediate segments; first-wins
/// on a leaf that is already occupied. This is the shared output-assembly
/// primitive of projections — [`Projection::apply`]/[`Projection::apply_tree`]
/// here and `$project` in the `jagg` tree executor all build their output
/// documents through it, so assembly semantics cannot drift apart. The
/// `jagg` reference executor assembles with its own transcription, which
/// is what checks this one.
pub fn insert_path(pairs: &mut Vec<(JStr, Json)>, path: &[JStr], value: Json) {
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
            let mut inner = o.pairs().to_vec();
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
/// segment tree holding it and its root node within that segment. Refs
/// are derived from the segments, never stored: each segment records the
/// ordinal of its first document ([`Segment::first`]), a multi-document
/// segment holds its documents as its root's array children, and any
/// other segment holds one document at its root. Each segment's table
/// extends the one before it, so a [`jsondata::Sym`] is comparable
/// across the segments of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocRef {
    /// Index into [`Collection::segments`].
    pub seg: u32,
    /// The document's root node within that segment tree.
    pub node: NodeId,
}

/// A queryable collection of documents, backed by a **persistent, segmented
/// tree column**: the initial load is kept as one [`JsonTree`] (the whole
/// collection array flattened through the fused parser), every
/// [`Collection::insert`] appends a further segment tree built on the last
/// segment's [`Interner`], and [`Collection::compact_tail`] merges runs of
/// consecutive segments into multi-document ones — so one symbol
/// assignment spans every document ever loaded, and filters evaluate on
/// the trees directly with no per-query parsing, tree building, or value
/// traversal. The segments are the one source of truth: the collection's
/// symbol table is the last segment's, and its document list is derived
/// from the segments.
///
/// Owned [`Json`] documents are **not** kept: the value-returning APIs
/// synthesize results from the tree ([`JsonTree::json_at`]), and
/// [`Collection::docs`] materialises every document afresh on each call.
/// A governed find answers with refs; one that returns documents is a
/// `jagg` pipeline, materialised by `jagg`'s output step.
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
/// Segments are held behind [`Arc`]s and never mutated after they are
/// built, so a clone never re-builds or copies a tree or a posting: a
/// [`Segment`] carries its tree (with its symbol table) and the postings
/// of every declared index over its documents, the index declarations
/// sit behind one `Arc` ([`IndexSet`]), and the schema behind another. A
/// clone therefore copies one pointer per segment and makes one
/// allocation, the segment vector, sized with one spare slot so that the
/// insert that usually follows a snapshot clone does not reallocate it.
/// An insert whose document brings no new string shares the previous
/// segment's table. One that does clones that table's run list (O(log n)
/// `Arc`s, see [`Interner`]) and adds its strings in runs of its own, in
/// O(log n) amortised pointer copies per new string; the runs it shares
/// are never written, so an older snapshot's table stays untouched.
/// Since string *values* are interned, the table holds document data.
/// `jserve` builds its copy-on-write snapshot isolation on this clone
/// (one per insert), with [`Collection::adopt_segment`] as the append
/// that carries a segment built on a newer clone, postings included,
/// back onto an older one.
pub struct Collection {
    /// The tree column. Never empty; segment `s + 1`'s symbol table
    /// extends segment `s`'s, so the last table resolves every `Sym`, and
    /// its first ordinal is segment `s`'s plus segment `s`'s length.
    segments: Vec<Arc<Segment>>,
    /// The worker pool driving `find` scans and JNL evaluations (and the
    /// `jagg` executor over this collection).
    pool: Pool,
    /// The collection's declared JSL schema, if any — a **promise** that
    /// every document conforms (attachment does not validate documents;
    /// pair with the gatekeeper validation paths to enforce it). The
    /// `jstat` analyzer uses it for schema-aware dead-path detection
    /// (`J004`). The *expression itself* is validated at attachment:
    /// ill-formed schemas (dangling `$ref`, precedence cycle) are rejected.
    schema: Option<Arc<jsl::RecursiveJsl>>,
    /// The secondary indexes declared via [`Collection::create_index`].
    /// Their postings live in the segments: built with each insert
    /// segment, rebuilt for each merged one by [`Collection::compact`] and
    /// [`Collection::compact_tail`].
    indexes: IndexSet,
}

impl Clone for Collection {
    /// One pointer per segment, plus one spare slot for the insert that
    /// usually follows a snapshot clone (see "Snapshots" above).
    fn clone(&self) -> Collection {
        let mut segments = Vec::with_capacity(self.segments.len() + 1);
        segments.extend(self.segments.iter().cloned());
        Collection {
            segments,
            pool: self.pool,
            schema: self.schema.clone(),
            indexes: self.indexes.clone(),
        }
    }
}

/// One segment of a [`Collection`]'s tree column: a [`JsonTree`] holding
/// one or many consecutive documents of the collection, and the postings
/// of every declared index over them, built together and immutable
/// afterwards. It dereferences to its tree, so `&collection.segments()[i]`
/// is usable wherever a `&JsonTree` is.
#[derive(Clone)]
pub struct Segment {
    tree: JsonTree,
    /// The ordinal of the segment's first document in its column. A merge
    /// keeps document order and count, so it never changes once built.
    first: usize,
    /// Whether the tree's root is an array of documents (a load or a
    /// merge), rather than one document.
    many: bool,
    /// The index declarations `postings` were built for.
    indexes: IndexSet,
    postings: Postings,
}

impl Segment {
    /// A segment over `tree`, whose first document is ordinal `first`,
    /// with the postings of every index in `indexes` over its documents.
    fn new(tree: JsonTree, first: usize, many: bool, indexes: &IndexSet) -> Segment {
        let mut seg = Segment {
            tree,
            first,
            many,
            indexes: indexes.clone(),
            postings: Postings::default(),
        };
        seg.postings = indexes.postings(&seg);
        seg
    }

    /// The segments `range` merged into one many-document segment over
    /// the newest table of the range ([`JsonTree::concat_subtrees`]),
    /// with its horizon table and its postings built.
    fn merge(range: &[Arc<Segment>], indexes: &IndexSet) -> Segment {
        let parts: Vec<(&JsonTree, NodeId)> = range
            .iter()
            .flat_map(|s| (0..s.len()).map(move |o| (s.tree(), s.doc(o))))
            .collect();
        let merged = JsonTree::concat_subtrees(&parts, table_of(range));
        merged.ensure_horizon();
        Segment::new(merged, range[0].first, true, indexes)
    }

    /// The segment's tree.
    pub fn tree(&self) -> &JsonTree {
        &self.tree
    }

    /// The ordinal of the segment's first document in its collection.
    pub fn first(&self) -> usize {
        self.first
    }

    /// Number of documents in the segment.
    pub fn len(&self) -> usize {
        match self.many {
            true => self.tree.child_count(self.tree.root()),
            false => 1,
        }
    }

    /// Whether the segment holds no document (only a load of `[]` does).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the segment is a multi-document one: its root is an array
    /// of documents (a load or a merge), rather than one document.
    pub fn is_multi(&self) -> bool {
        self.many
    }

    /// The root node of the segment's document at ordinal `o` within the
    /// segment, which its postings record.
    pub(crate) fn doc(&self, o: usize) -> NodeId {
        match self.many {
            true => self.tree.arr_children(self.tree.root())[o],
            false => self.tree.root(),
        }
    }
}

impl std::ops::Deref for Segment {
    type Target = JsonTree;

    fn deref(&self) -> &JsonTree {
        &self.tree
    }
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
        Collection::from_first_segment(JsonTree::build(doc))
    }

    /// Builds from collection text through the **fused parser**: the
    /// document is lexed, interned and flattened into the tree column in
    /// one pass — no intermediate value tree is ever built. Non-array roots
    /// get the [`Collection::from_json`] single-document semantics.
    pub fn parse_str(src: &str) -> Result<Collection, FilterError> {
        let tree = jsondata::parse_to_tree(src).map_err(|e| FilterError(e.to_string()))?;
        Ok(Collection::from_first_segment(tree))
    }

    /// [`Collection::parse_str`] with explicit [`ParseLimits`] — the
    /// serving edge's ingestion guard: an oversized or too-deep document
    /// is rejected with [`QueryError::ParseLimit`] *before* any tree is
    /// built (the size cap is checked against the raw text length).
    pub fn parse_str_with_limits(src: &str, limits: ParseLimits) -> Result<Collection, QueryError> {
        let tree = jsondata::parse_to_tree_with_limits(src, limits)?;
        Ok(Collection::from_first_segment(tree))
    }

    /// A collection over one loaded tree: an array root's elements are
    /// its documents, any other root is its one document.
    fn from_first_segment(tree: JsonTree) -> Collection {
        let many = tree.kind(tree.root()) == NodeKind::Arr;
        if many {
            tree.ensure_horizon();
        }
        let indexes = IndexSet::default();
        Collection {
            segments: vec![Arc::new(Segment::new(tree, 0, many, &indexes))],
            pool: Pool::auto(),
            schema: None,
            indexes,
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
        self.schema = Some(Arc::new(schema));
        Ok(())
    }

    /// The declared JSL schema, if any.
    pub fn schema(&self) -> Option<&jsl::RecursiveJsl> {
        self.schema.as_deref()
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
    /// on the collection's symbol table, so its symbols are comparable
    /// with every existing segment. Queries see the new document
    /// immediately; results agree exactly with a from-scratch rebuild of
    /// the extended collection (differentially tested).
    pub fn insert(&mut self, doc: &Json) {
        let tree = JsonTree::build_into(doc, self.interner());
        self.push_segment(tree);
    }

    /// [`Collection::insert`] from document text through the fused parser
    /// ([`jsondata::parse_to_tree_into`] on the collection's symbol
    /// table). On a parse error the collection, its symbol table
    /// included, is unchanged.
    pub fn insert_str(&mut self, src: &str) -> Result<(), FilterError> {
        let tree = jsondata::parse_to_tree_into(src, ParseLimits::default(), self.interner())
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
        let tree = jsondata::parse_to_tree_into(src, limits, self.interner())?;
        self.push_segment(tree);
        Ok(())
    }

    /// Appends one single-document segment with its postings: one
    /// record for every declared index, built from the new document
    /// alone.
    fn push_segment(&mut self, tree: JsonTree) {
        let seg = Segment::new(tree, self.len(), false, &self.indexes);
        self.segments.push(Arc::new(seg));
    }

    /// Appends an **already-built** segment shared with another
    /// collection — how a compacted clone catches up with segments its
    /// origin appended while the compaction ran, without re-parsing or
    /// copying them. Postings record ordinals within their segment, so
    /// the segment's postings are adopted with it, by pointer, whenever
    /// they were built for this collection's index declarations (a clone
    /// shares them); otherwise its tree is copied and its postings are
    /// built afresh.
    ///
    /// The segment must continue this collection: its first document is
    /// ordinal [`Collection::len`] (a compaction keeps every ordinal),
    /// and its symbol table extends this collection's — it was inserted
    /// into a clone of this collection's lineage after this collection's
    /// last segment was built — since the adopted table becomes the
    /// collection's table. Adopting a segment from an unrelated lineage
    /// is a logic error and will scramble query results (it cannot,
    /// however, cause memory unsafety).
    pub fn adopt_segment(&mut self, seg: &Arc<Segment>) {
        debug_assert_eq!(
            seg.first,
            self.len(),
            "an adopted segment continues the column"
        );
        if seg.indexes.same(&self.indexes) {
            self.segments.push(Arc::clone(seg));
        } else {
            let copy = Segment::new(seg.tree.clone(), seg.first, seg.many, &self.indexes);
            self.segments.push(Arc::new(copy));
        }
    }

    /// The documents, as owned values, materialised from the tree column
    /// on every call. For tests and set-up; query paths never call it.
    pub fn docs(&self) -> Vec<Json> {
        self.doc_refs()
            .into_iter()
            .map(|d| self.json_of(d))
            .collect()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        doc_count(&self.segments)
    }

    /// Whether the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segments of the collection's tree column, in document order:
    /// multi-document segments (the initial load and the merges of
    /// [`Collection::compact_tail`]) and one single-document segment per
    /// insert since the last merge. All segments share one symbol
    /// assignment. Segments are behind [`Arc`]s so snapshots can share
    /// them; `&segments()[i]` deref-coerces to `&JsonTree` wherever a
    /// plain tree is expected.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Every document's location in the tree column, in document order
    /// (derived from the segments on each call).
    pub fn doc_refs(&self) -> Vec<DocRef> {
        let mut out = Vec::with_capacity(self.len());
        for (s, seg) in (0u32..).zip(&self.segments) {
            match seg.many {
                true => {
                    let docs = seg.arr_children(seg.root());
                    out.extend(docs.iter().map(|&node| DocRef { seg: s, node }));
                }
                false => out.push(DocRef {
                    seg: s,
                    node: seg.root(),
                }),
            }
        }
        out
    }

    /// The collection's symbol table: the last segment's, which extends
    /// every earlier segment's table. Queries bind their paths and string
    /// constants to it once ([`Filter::bind`], [`Path::bind`]; see
    /// [`BoundPath`] for why that is sound in every segment).
    pub fn interner(&self) -> &Arc<Interner> {
        table_of(&self.segments)
    }

    /// Materialises one document from the tree column.
    pub fn json_of(&self, d: DocRef) -> Json {
        self.segments[d.seg as usize].json_at(d.node)
    }

    /// `db.collection.find(filter)` — **the** governed read path: the
    /// tree-column locations of the matching documents, in `(segment,
    /// doc)` order. The query is planned once, inside a `plan` span when
    /// the context carries a span-recording sink: when the declared
    /// indexes answer part of the conjunction, that index plan is
    /// executed (a lone `$eq` reads its posting lists directly; other
    /// plans intersect bitmaps), otherwise the document scan runs.
    /// [`Collection::route_of`] and `EXPLAIN` ask the same planner, and
    /// the `jagg` leading `$match` and every `jserve` read verb reach
    /// execution through here, so a plan's claimed route is the route
    /// that runs. Both routes poll `ctx` and charge survivors against
    /// the row budget. The call runs under
    /// [`jpar::contain`]: a panic anywhere in it — in a scan chunk, or on
    /// the calling thread, such as the index route's residual loop —
    /// returns [`QueryError::WorkerPanicked`] with one audit event on
    /// `ctx`'s metrics sink.
    pub fn find_refs_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        jpar::contain(ctx, || {
            ctx.span_open(SpanKind::Plan, 0);
            let plan = self.indexes.plan(filter);
            ctx.span_close(SpanKind::Plan, 0);
            match plan {
                Some(plan) => self.indexes.execute(&plan, &self.segments, ctx),
                None => self.find_refs_via_scan_with_ctx(filter, ctx),
            }
        })
    }

    /// The document scan: the filter is bound to the collection's table
    /// once ([`Filter::bind`]), then every document from
    /// [`Collection::scan_start`] on is tested with
    /// [`BoundFilter::matches_at`] in parallel chunks on the collection's
    /// pool, whatever indexes are declared. The documents before that
    /// start cannot match. The index differential suites and the harness
    /// gates compare the routed path against this, and this against
    /// [`Filter::matches`].
    pub fn find_refs_via_scan_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        let bound = filter.bind(self.interner());
        let start = self.scan_start(&bound);
        let n = self.len() - start;
        if n == 0 {
            // No document is left to test, and so no chunk polls: the
            // scan still answers to `ctx` once, contained as a chunk is.
            return jpar::contain(ctx, || ctx.check()).map(|()| Vec::new());
        }
        let chunk = self.pool.chunk_for(n, DOC_CHUNK_MIN);
        self.pool.try_flat_map_chunks(ctx, n, chunk, |r| {
            let mut poll = ctx.poller();
            let mut out = Vec::new();
            ctx.record(Counter::DocsScanned, r.len() as u64);
            try_for_each_doc(&self.segments, start + r.start..start + r.end, |seg, d| {
                poll.tick()?;
                if bound.matches_at(seg, d.node) {
                    out.push(d);
                }
                Ok::<_, QueryError>(())
            })?;
            ctx.charge_rows(out.len() as u64)?;
            Ok(out)
        })
    }

    /// The ordinal of the first document that can satisfy `bound` (bound
    /// to [`Collection::interner`]): the first one that uses a symbol at
    /// or after [`BoundFilter::horizon`], `len()` for [`Horizon::Never`].
    /// The tables only grow from segment to segment, so the first segment
    /// whose table reaches the horizon is found by binary search, and no
    /// earlier segment holds a document that can match. A multi-document
    /// segment then answers from its horizon table
    /// ([`JsonTree::first_child_using`]); a single-document one holds one
    /// document, which uses only symbols its own table holds.
    pub fn scan_start(&self, bound: &BoundFilter<'_>) -> usize {
        let sym = match bound.horizon() {
            Horizon::Any => return 0,
            Horizon::Never => return self.len(),
            Horizon::From(sym) => sym,
        };
        let at = self
            .segments
            .partition_point(|t| t.interner().len() <= sym.index());
        match self.segments.get(at) {
            Some(seg) if seg.many => seg.first + seg.first_child_using(sym),
            Some(seg) => seg.first,
            None => self.len(),
        }
    }

    /// `db.collection.find(filter)`, ungoverned ([`jpar::ungoverned`]: a
    /// contained panic is re-raised): the refs of
    /// [`Collection::find_refs_with_ctx`], each [`Collection::json_of`].
    pub fn find(&self, filter: &Filter) -> Vec<Json> {
        jpar::ungoverned(|ctx| self.find_refs_with_ctx(filter, ctx))
            .into_iter()
            .map(|d| self.json_of(d))
            .collect()
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
        let trees: Vec<&JsonTree> = self.segments.iter().map(|s| s.tree()).collect();
        let sats = jnl::eval::evaluate_batch_ctx(&trees, &phi, &self.pool, ctx)?;
        let mut out = self.doc_refs();
        out.retain(|d| sats[d.seg as usize][d.node.index()]);
        ctx.charge_rows(out.len() as u64)?;
        Ok(out)
    }

    /// Merges the tree column into **one segment**: every document's
    /// subtree replays — symbols copied as-is onto the last segment's table,
    /// no string is ever re-hashed, no [`Json`] is ever materialised —
    /// into a single array-rooted [`JsonTree`]
    /// ([`JsonTree::concat_subtrees`]). Document order, query results and
    /// the symbol assignment are all preserved exactly (property-tested);
    /// only the layout changes. Every document is rewritten and every
    /// posting rebuilt, so this costs what a load of the whole column
    /// costs; [`Collection::compact_tail`] is the merge that rewrites
    /// only what changed.
    ///
    /// After `compact()` the collection is indistinguishable from one
    /// loaded in a single parse.
    pub fn compact(&mut self) {
        if self.segments.len() <= 1 {
            return;
        }
        self.segments = vec![Arc::new(Segment::merge(&self.segments, &self.indexes))];
    }

    /// Merges the tail of the tree column, tiered like the runs of an
    /// LSM tree: the segments after the newest multi-document segment —
    /// one per insert since the last merge — become one multi-document
    /// segment, which then absorbs the segment before it while that one
    /// holds fewer than twice its documents. The reach of that carry is
    /// worked out from the segment lengths first, and the whole run is
    /// merged in one replay onto the newest table of its range
    /// ([`JsonTree::concat_subtrees`]), so no document is rewritten twice
    /// in one call and the tables still grow from segment to segment. The
    /// merged segment builds its horizon table and postings. Document
    /// order, ordinals, query results and the symbol assignment are all
    /// preserved exactly.
    ///
    /// Compaction is what keeps insert-heavy collections fast: every
    /// [`Collection::insert`] adds a single-document segment, and
    /// per-segment work — one JNL evaluation, one canonical-label table,
    /// one posting lookup *per segment* — eventually drowns the queries.
    /// After `compact_tail()` segment sizes at least double from newest
    /// to oldest, so a column of `n` documents keeps at most
    /// `log2 n + 1` segments, and a document is rewritten `O(log n)`
    /// times over any sequence of inserts and merges. A merge that
    /// reaches the load still rewrites all of it; one that does not
    /// leaves it, and its postings, untouched.
    pub fn compact_tail(&mut self) {
        let segs = &self.segments;
        let tail = segs.iter().rposition(|s| s.many).map_or(0, |i| i + 1);
        // With no insert since the last merge, the newest segment is the
        // run that may carry.
        let mut at = tail.min(segs.len() - 1);
        let mut merged: usize = segs[at..].iter().map(|s| s.len()).sum();
        while at > 0 && segs[at - 1].len() < 2 * merged {
            at -= 1;
            merged += segs[at].len();
        }
        if at + 1 < segs.len() || !segs[at].many {
            let merged = Segment::merge(&segs[at..], &self.indexes);
            self.segments.truncate(at);
            self.segments.push(Arc::new(merged));
        }
    }
}

/// The symbol table of the tree column `segments`: the last segment's,
/// which every earlier segment's table is a prefix of.
pub(crate) fn table_of(segments: &[Arc<Segment>]) -> &Arc<Interner> {
    segments
        .last()
        .expect("a collection has at least one segment")
        .interner()
}

/// Number of documents in the tree column `segments`.
pub(crate) fn doc_count(segments: &[Arc<Segment>]) -> usize {
    let last = segments
        .last()
        .expect("a collection has at least one segment");
    last.first + last.len()
}

/// The document column, derived from the segments — the one mapping from
/// document ordinals to tree-column locations: ordinal `i` is document
/// `i - first` of the segment whose ordinals hold it. Yields the
/// [`DocRef`] of each of `ordinals` (ascending, each
/// `< doc_count(segments)`, such as a probe bitmap's members), in order,
/// moving forward through the segments as the ordinals pass their ends.
pub(crate) fn doc_refs_at<'a>(
    segments: &'a [Arc<Segment>],
    ordinals: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = DocRef> + 'a {
    let mut at = 0;
    ordinals.map(move |i| {
        while segments[at].first + segments[at].len() <= i {
            at += 1;
        }
        let seg = &segments[at];
        DocRef {
            seg: at as u32,
            node: seg.doc(i - seg.first),
        }
    })
}

/// Calls `f` with the segment and [`DocRef`] of each ordinal in `range`,
/// in order, stopping at its first error: the range form of
/// [`doc_refs_at`] that a scan walks, each segment's share as one run.
pub(crate) fn try_for_each_doc<E>(
    segments: &[Arc<Segment>],
    range: Range<usize>,
    mut f: impl FnMut(&Segment, DocRef) -> Result<(), E>,
) -> Result<(), E> {
    let from = segments.partition_point(|s| s.first <= range.start).max(1) - 1;
    for (s, seg) in (from as u32..).zip(&segments[from..]) {
        if seg.first >= range.end {
            break;
        }
        let local = range.start.saturating_sub(seg.first)..(range.end - seg.first).min(seg.len());
        if seg.many {
            for &node in &seg.arr_children(seg.root())[local] {
                f(seg, DocRef { seg: s, node })?;
            }
        } else if !local.is_empty() {
            f(
                seg,
                DocRef {
                    seg: s,
                    node: seg.root(),
                },
            )?;
        }
    }
    Ok(())
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
        let refs = coll.find_refs_with_ctx(f, &QueryCtx::unlimited()).unwrap();
        refs.into_iter()
            .map(|d| p.apply_tree(&coll.segments()[d.seg as usize], d.node))
            .collect()
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
        // `$project`'s key rule: an operator is not an output path.
        let e = Projection::parse_str(r#"{"$x": 1}"#).unwrap_err();
        assert_eq!(e.0, r#"$project field "$x" must not start with $"#);
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
                let bound = f.bind(tree.interner());
                assert_eq!(
                    f.matches(d),
                    bound.matches_at(&tree, tree.root()),
                    "filter {f:?} on {d}"
                );
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
                    f.bind(tree.interner()).matches_at(&tree, tree.root()),
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
    fn failed_insert_leaves_the_symbol_table_unchanged() {
        let mut coll = people();
        let (len, table) = (coll.interner().len(), Arc::clone(coll.interner()));
        assert!(coll.insert_str(r#"{"brand-new": 1, "x" 2}"#).is_err());
        assert_eq!(coll.interner().len(), len);
        assert_eq!(coll.interner().lookup("brand-new"), None);
        assert!(Arc::ptr_eq(coll.interner(), &table));
        let limits = ParseLimits::depth(1);
        assert!(coll
            .insert_str_with_limits(r#"{"brand-new": [[1]]}"#, limits)
            .is_err());
        assert_eq!(coll.interner().lookup("brand-new"), None);
        assert_eq!(coll.len(), 3);
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
