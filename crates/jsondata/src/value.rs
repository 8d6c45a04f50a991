//! The JSON value type of the paper's §2 fragment.
//!
//! The full JSON specification defines seven kinds of values (objects,
//! arrays, strings, numbers, `true`, `false`, `null`). Following §2 of the
//! paper, this crate abstracts from encoding details and works with the
//! four-kind fragment: **objects**, **arrays**, **strings** and **natural
//! numbers**. The parser reports the excluded literals with targeted errors
//! so that real-world inputs fail loudly rather than silently.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::JsonError;
use crate::jstr::JStr;

/// A JSON value in the paper's fragment.
///
/// Invariants:
/// * Object keys are pairwise distinct ([`Json::object`] and
///   [`ObjectBuilder`] enforce this; the `Object` payload is not publicly
///   constructible in a way that violates it).
/// * Object key order is preserved for serialization, but **equality and
///   hashing are unordered**: `{"a":1,"b":2} == {"b":2,"a":1}`. This mirrors
///   the paper's "each JSON dictionary is unordered".
///
/// Strings and keys are [`JStr`]s, held inline up to [`JStr::INLINE`]
/// (22) bytes, so a value owns one heap buffer per non-empty container
/// plus one per longer string.
#[derive(Clone)]
pub enum Json {
    /// An object: a set of key–value pairs with pairwise distinct keys.
    Object(ObjectRepr),
    /// An array: an ordered sequence of JSON values with positional access.
    Array(Vec<Json>),
    /// A string value over the unicode alphabet Σ.
    Str(JStr),
    /// A natural number (the paper restricts numbers to ℕ).
    Num(u64),
}

const _: () = assert!(std::mem::size_of::<Json>() == 40);
const _: () = assert!(std::mem::size_of::<JStr>() <= 24);

/// Objects of at most this many keys keep no key index: lookups scan the
/// pairs, and the parser checks their keys for duplicates by scanning.
pub(crate) const SMALL_OBJECT: usize = 8;

/// Internal object representation: insertion-ordered pairs with a uniqueness
/// invariant maintained by construction.
///
/// An object of more than 8 keys (`SMALL_OBJECT`) also keeps a key-sorted
/// index, giving `O(log n)` lookups (`get` sits on the `jschema`
/// required-key loop and the `mongofind` path-traversal hot paths). A
/// smaller object keeps none, so it costs its pairs' one buffer: `get`
/// and `get_mut` scan at most 8 keys, and [`ObjectRepr::iter_sorted`]
/// sorts their positions in a stack array. Either way `iter_sorted`
/// yields pairs in key order.
#[derive(Clone, Default)]
pub struct ObjectRepr {
    pairs: Vec<(JStr, Json)>,
    /// Indices into `pairs`, sorted by key; empty for a small object.
    by_key: Box<[u32]>,
}

impl ObjectRepr {
    /// Builds the representation, rejecting duplicate keys.
    fn new(pairs: Vec<(JStr, Json)>) -> Result<ObjectRepr, JsonError> {
        let o = Self::indexed(pairs);
        match o.duplicate() {
            Some(k) => Err(JsonError::DuplicateKey(k.to_owned())),
            None => Ok(o),
        }
    }

    /// The trusted constructor, for pairs whose keys are distinct by
    /// construction (a tree's object edges, §3.1 determinism, or a parse
    /// that already rejected duplicates): skips the duplicate check,
    /// except in debug builds.
    pub(crate) fn from_distinct(pairs: Vec<(JStr, Json)>) -> ObjectRepr {
        let o = Self::indexed(pairs);
        debug_assert!(o.duplicate().is_none(), "keys must be distinct");
        o
    }

    /// `pairs`, with a key-sorted index past [`SMALL_OBJECT`] keys.
    fn indexed(pairs: Vec<(JStr, Json)>) -> ObjectRepr {
        let by_key = if pairs.len() <= SMALL_OBJECT {
            Box::default()
        } else {
            let mut by_key: Box<[u32]> = (0..pairs.len() as u32).collect();
            by_key.sort_unstable_by(|&a, &b| pairs[a as usize].0.cmp(&pairs[b as usize].0));
            by_key
        };
        ObjectRepr { pairs, by_key }
    }

    /// A key that occurs twice, if any.
    fn duplicate(&self) -> Option<&str> {
        if self.by_key.is_empty() {
            let keys = || self.pairs.iter().map(|(k, _)| k);
            keys()
                .enumerate()
                .find(|&(i, k)| keys().skip(i + 1).any(|other| other == k))
                .map(|(_, k)| k.as_str())
        } else {
            // Equal keys are adjacent in the sorted index.
            self.by_key
                .windows(2)
                .map(|w| (&self.pairs[w[0] as usize].0, &self.pairs[w[1] as usize].0))
                .find(|(a, b)| a == b)
                .map(|(_, b)| b.as_str())
        }
    }

    /// The position in `pairs` of the key spelled by `key`, if present.
    #[inline]
    fn position(&self, key: &[u8]) -> Option<usize> {
        if self.by_key.is_empty() {
            self.pairs.iter().position(|(k, _)| k.as_bytes() == key)
        } else {
            self.by_key
                .binary_search_by(|&i| self.pairs[i as usize].0.as_bytes().cmp(key))
                .ok()
                .map(|pos| self.by_key[pos] as usize)
        }
    }

    /// The key–value pairs in insertion order.
    pub fn pairs(&self) -> &[(JStr, Json)] {
        &self.pairs
    }

    /// Looks up the value under `key`, if present (a scan of at most
    /// 8 keys, or `O(log n)` via the sorted key index).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.position(key.as_bytes()).map(|i| &self.pairs[i].1)
    }

    /// Mutable [`ObjectRepr::get`]. Only the *value* is exposed — keys stay
    /// immutable, so the distinctness invariant and the sorted index cannot
    /// be broken through this accessor.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        self.position(key.as_bytes()).map(|i| &mut self.pairs[i].1)
    }

    /// Number of key–value pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the object is empty (`{}`).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates `(key, value)` pairs in **key order** — the canonical order
    /// [`Json::total_cmp`] compares objects in, exposed so tree-backed
    /// evaluators can mirror that comparison without materialising a
    /// [`Json`]. A small object sorts its positions on the stack; a larger
    /// one reuses its index.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&str, &Json)> {
        let mut small = [0u32; SMALL_OBJECT];
        let n = if self.by_key.is_empty() {
            self.pairs.len()
        } else {
            0
        };
        for (i, slot) in small[..n].iter_mut().enumerate() {
            *slot = i as u32;
        }
        small[..n]
            .sort_unstable_by(|&a, &b| self.pairs[a as usize].0.cmp(&self.pairs[b as usize].0));
        small
            .into_iter()
            .take(n)
            .chain(self.by_key.iter().copied())
            .map(|i| {
                let (k, v) = &self.pairs[i as usize];
                (k.as_str(), v)
            })
    }
}

impl Json {
    /// Builds an object from key–value pairs, rejecting duplicate keys.
    ///
    /// ```
    /// use jsondata::Json;
    /// let ok = Json::object(vec![("a".into(), Json::Num(1))]).unwrap();
    /// assert!(ok.is_object());
    /// let dup = Json::object(vec![
    ///     ("a".into(), Json::Num(1)),
    ///     ("a".into(), Json::Num(2)),
    /// ]);
    /// assert!(dup.is_err());
    /// ```
    pub fn object(pairs: Vec<(JStr, Json)>) -> Result<Json, JsonError> {
        Ok(Json::Object(ObjectRepr::new(pairs)?))
    }

    /// The empty object `{}`.
    pub fn empty_object() -> Json {
        Json::Object(ObjectRepr::default())
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<JStr>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience array constructor.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Whether this value is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Json::Object(_))
    }

    /// Whether this value is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Json::Array(_))
    }

    /// Whether this value is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Json::Str(_))
    }

    /// Whether this value is a (natural) number.
    pub fn is_number(&self) -> bool {
        matches!(self, Json::Num(_))
    }

    /// Object accessor.
    pub fn as_object(&self) -> Option<&ObjectRepr> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object containing it.
    /// This is the navigation instruction `J[key]` of §2.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// The `i`-th array element, if this is an array of length > `i`.
    /// This is the navigation instruction `J[i]` of §2.
    pub fn index(&self, i: usize) -> Option<&Json> {
        self.as_array().and_then(|a| a.get(i))
    }

    /// Mutable [`Json::get`]: the value under `key` if this is an object
    /// containing it (keys themselves stay immutable, preserving the
    /// distinctness invariant). Used for in-place subvalue replacement,
    /// e.g. `$unwind` re-binding a path of an owned aggregation row.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(o) => o.get_mut(key),
            _ => None,
        }
    }

    /// Mutable [`Json::index`]: the `i`-th element if this is an array of
    /// length > `i`.
    pub fn index_mut(&mut self, i: usize) -> Option<&mut Json> {
        match self {
            Json::Array(a) => a.get_mut(i),
            _ => None,
        }
    }

    /// Total number of JSON values in this document (i.e. nodes of its tree),
    /// counting the document itself. Iterative: safe on very deep documents.
    pub fn node_count(&self) -> usize {
        let mut count = 0usize;
        let mut work: Vec<&Json> = vec![self];
        while let Some(v) = work.pop() {
            count += 1;
            match v {
                Json::Object(o) => work.extend(o.iter().map(|(_, c)| c)),
                Json::Array(a) => work.extend(a.iter()),
                _ => {}
            }
        }
        count
    }

    /// Height of the value's tree: leaves (strings, numbers, empty
    /// containers) have height 0. Iterative: safe on very deep documents.
    pub fn height(&self) -> usize {
        let mut best = 0usize;
        let mut work: Vec<(&Json, usize)> = vec![(self, 0)];
        while let Some((v, d)) = work.pop() {
            best = best.max(d);
            match v {
                Json::Object(o) => work.extend(o.iter().map(|(_, c)| (c, d + 1))),
                Json::Array(a) => work.extend(a.iter().map(|c| (c, d + 1))),
                _ => {}
            }
        }
        best
    }

    /// A total order on JSON values, used for normalisation (e.g. sorting
    /// `enum` members) and as the comparison MongoDB-style operators use.
    ///
    /// Order: numbers < strings < arrays < objects; numbers numerically,
    /// strings lexicographically, arrays lexicographically element-wise,
    /// objects as sorted key→value maps.
    pub fn total_cmp(&self, other: &Json) -> Ordering {
        fn rank(j: &Json) -> u8 {
            match j {
                Json::Num(_) => 0,
                Json::Str(_) => 1,
                Json::Array(_) => 2,
                Json::Object(_) => 3,
            }
        }
        match (self, other) {
            (Json::Num(a), Json::Num(b)) => a.cmp(b),
            (Json::Str(a), Json::Str(b)) => a.cmp(b),
            (Json::Array(a), Json::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Json::Object(a), Json::Object(b)) => {
                for ((ka, va), (kb, vb)) in a.iter_sorted().zip(b.iter_sorted()) {
                    let c = ka.cmp(kb);
                    if c != Ordering::Equal {
                        return c;
                    }
                    let c = va.total_cmp(vb);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for Json {
    /// Structural equality with **unordered** objects:
    /// `{"a":1,"b":2} == {"b":2,"a":1}`. Iterative, so equality of very deep
    /// documents does not overflow the stack. Scalar members compare in
    /// place and only pairs of nested containers go on the work stack, so
    /// a comparison that meets no such pair (scalars, flat arrays and
    /// objects) allocates nothing.
    fn eq(&self, other: &Json) -> bool {
        let mut work: Vec<(&Json, &Json)> = Vec::new();
        let mut pair = Some((self, other));
        while let Some((a, b)) = pair {
            let same = match (a, b) {
                (Json::Array(x), Json::Array(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(v, w)| member_eq(v, w, &mut work))
                }
                // Same cardinality and (keys distinct) every pair of `x`
                // present in `y`.
                (Json::Object(x), Json::Object(y)) => {
                    x.len() == y.len()
                        && x.pairs().iter().all(|(k, v)| {
                            y.position(k.as_bytes())
                                .is_some_and(|i| member_eq(v, &y.pairs[i].1, &mut work))
                        })
                }
                _ => member_eq(a, b, &mut work),
            };
            if !same {
                return false;
            }
            pair = work.pop();
        }
        true
    }
}

/// One member pair of [`Json::eq`]: scalars compare in place, a pair of
/// containers of one kind is deferred to `work`, anything else differs.
fn member_eq<'a>(a: &'a Json, b: &'a Json, work: &mut Vec<(&'a Json, &'a Json)>) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x == y,
        (Json::Str(x), Json::Str(y)) => x == y,
        (Json::Array(_), Json::Array(_)) | (Json::Object(_), Json::Object(_)) => {
            work.push((a, b));
            true
        }
        _ => false,
    }
}

impl Eq for Json {}

impl Hash for Json {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Json::Num(n) => {
                0u8.hash(state);
                n.hash(state);
            }
            Json::Str(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            Json::Array(a) => {
                2u8.hash(state);
                a.len().hash(state);
                for v in a {
                    v.hash(state);
                }
            }
            Json::Object(o) => {
                3u8.hash(state);
                o.len().hash(state);
                // Order-independent: hash sorted pairs.
                for (k, v) in o.iter_sorted() {
                    k.hash(state);
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Debug for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::serialize::to_string(self))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::serialize::to_string(self))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s.into())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Incremental object construction with duplicate-key detection.
///
/// ```
/// use jsondata::{Json, ObjectBuilder};
/// let person = ObjectBuilder::new()
///     .insert("name", Json::str("Sue"))
///     .insert("age", Json::Num(28))
///     .build()
///     .unwrap();
/// assert_eq!(person.get("age"), Some(&Json::Num(28)));
/// ```
#[derive(Default)]
pub struct ObjectBuilder {
    pairs: Vec<(JStr, Json)>,
}

impl ObjectBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a key–value pair. Duplicates are reported by [`build`].
    ///
    /// [`build`]: ObjectBuilder::build
    #[must_use]
    pub fn insert(mut self, key: impl Into<JStr>, value: impl Into<Json>) -> Self {
        self.pairs.push((key.into(), value.into()));
        self
    }

    /// Finishes construction, rejecting duplicate keys.
    pub fn build(self) -> Result<Json, JsonError> {
        Json::object(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(j: &Json) -> u64 {
        let mut s = DefaultHasher::new();
        j.hash(&mut s);
        s.finish()
    }

    #[test]
    fn object_equality_is_unordered() {
        let a = Json::object(vec![("x".into(), Json::Num(1)), ("y".into(), Json::Num(2))]).unwrap();
        let b = Json::object(vec![("y".into(), Json::Num(2)), ("x".into(), Json::Num(1))]).unwrap();
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn array_equality_is_ordered() {
        let a = Json::array([Json::Num(1), Json::Num(2)]);
        let b = Json::array([Json::Num(2), Json::Num(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn deep_equality_does_not_recurse() {
        // Deep enough that a frame per level overflows the comparing
        // thread's 32 KiB stack; built and dropped (recursively) on the
        // test thread.
        let depth = 2_000;
        let a = crate::gen::deep_chain(depth, "k", Json::Num(1));
        let b = crate::gen::deep_chain(depth, "k", Json::Num(1));
        let c = crate::gen::deep_chain(depth, "k", Json::Num(2));
        let (same, differ) = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(32 * 1024)
                .spawn_scoped(s, || (a == b, a == c))
                .expect("thread spawns")
                .join()
                .expect("comparison does not panic")
        });
        assert!(same);
        assert!(!differ);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err =
            Json::object(vec![("k".into(), Json::Num(1)), ("k".into(), Json::Num(1))]).unwrap_err();
        assert!(matches!(err, JsonError::DuplicateKey(k) if k == "k"));
    }

    #[test]
    fn nested_unordered_equality() {
        let a = Json::object(vec![(
            "o".into(),
            Json::object(vec![
                ("p".into(), Json::str("v")),
                ("q".into(), Json::Num(3)),
            ])
            .unwrap(),
        )])
        .unwrap();
        let b = Json::object(vec![(
            "o".into(),
            Json::object(vec![
                ("q".into(), Json::Num(3)),
                ("p".into(), Json::str("v")),
            ])
            .unwrap(),
        )])
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn node_count_counts_all_json_values() {
        // The paper's §3 example: 5 JSON values inside the document.
        let j = Json::object(vec![
            (
                "name".into(),
                Json::object(vec![
                    ("first".into(), Json::str("John")),
                    ("last".into(), Json::str("Doe")),
                ])
                .unwrap(),
            ),
            ("age".into(), Json::Num(32)),
        ])
        .unwrap();
        assert_eq!(j.node_count(), 5);
        assert_eq!(j.height(), 2);
    }

    #[test]
    fn total_order_ranks_types() {
        let n = Json::Num(0);
        let s = Json::str("");
        let a = Json::array([]);
        let o = Json::empty_object();
        assert!(n.total_cmp(&s).is_lt());
        assert!(s.total_cmp(&a).is_lt());
        assert!(a.total_cmp(&o).is_lt());
        assert!(o.total_cmp(&o).is_eq());
    }

    #[test]
    fn total_order_objects_sorted_by_key() {
        let a = Json::object(vec![("a".into(), Json::Num(1))]).unwrap();
        let b = Json::object(vec![("b".into(), Json::Num(0))]).unwrap();
        assert!(a.total_cmp(&b).is_lt());
    }

    #[test]
    fn accessors() {
        let j = Json::object(vec![("arr".into(), Json::array([Json::Num(7)]))]).unwrap();
        assert_eq!(j.get("arr").unwrap().index(0), Some(&Json::Num(7)));
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.get("arr").unwrap().index(3), None);
        assert!(j.get("arr").unwrap().is_array());
    }

    #[test]
    fn height_of_leaves_is_zero() {
        assert_eq!(Json::Num(1).height(), 0);
        assert_eq!(Json::str("x").height(), 0);
        assert_eq!(Json::empty_object().height(), 0);
        assert_eq!(Json::array([]).height(), 0);
    }
}
