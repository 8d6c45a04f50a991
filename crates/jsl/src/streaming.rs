//! Streaming JSL validation — the §6 "Streaming" future-work item.
//!
//! The paper suspects that the deterministic fragments of JNL/JSL "might
//! actually be shown to be evaluated in a streaming context with constant
//! memory requirements when tree equality is excluded". This module
//! implements the natural streaming evaluator for JSL over a SAX-style
//! event sequence and makes the memory profile precise:
//!
//! * the document is **never materialised** — one pass over events;
//! * working memory is `O(depth(J) · |φ|)`: one frame per open container,
//!   each holding a truth accumulator per subformula (constant per
//!   nesting level, which is the streaming-validation currency; truly
//!   depth-independent memory is impossible for formulas that look below
//!   more than one level);
//! * supported: the full logic — including non-deterministic key regexes
//!   and position ranges — **except** `Unique` and `∼(A)` for container
//!   documents, both of which need subtree buffering (exactly the "tree
//!   equality" the paper excludes).
//!
//! ```
//! use jsl::ast::{Jsl, NodeTest};
//! use jsl::streaming::{validate_stream, events_of};
//!
//! let doc = jsondata::parse(r#"{"age": 42}"#).unwrap();
//! let phi = Jsl::diamond_key("age", Jsl::Test(NodeTest::Min(18)));
//! assert!(validate_stream(&phi, events_of(&doc)).unwrap());
//! ```

use std::fmt;

use jsondata::{Json, JsonTree};
use relex::CompiledRegex;

use crate::ast::{Jsl, NodeTest};

/// A SAX-style document event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `{` — an object opens.
    BeginObject,
    /// The key of the next member (objects only).
    Key(String),
    /// `[` — an array opens.
    BeginArray,
    /// `}` / `]` — the innermost container closes.
    End,
    /// A string leaf.
    Str(String),
    /// A number leaf.
    Num(u64),
}

/// Serialises a document into its event sequence (iteratively; safe on
/// deep documents).
pub fn events_of(doc: &Json) -> Vec<Event> {
    enum W<'a> {
        Value(&'a Json),
        KeyThen(&'a str, &'a Json),
        End,
    }
    let mut out = Vec::new();
    let mut stack = vec![W::Value(doc)];
    while let Some(w) = stack.pop() {
        match w {
            W::End => out.push(Event::End),
            W::KeyThen(k, v) => {
                out.push(Event::Key(k.to_owned()));
                stack.push(W::Value(v));
            }
            W::Value(Json::Str(s)) => out.push(Event::Str(s.as_str().to_owned())),
            W::Value(Json::Num(n)) => out.push(Event::Num(*n)),
            W::Value(Json::Array(items)) => {
                out.push(Event::BeginArray);
                stack.push(W::End);
                for item in items.iter().rev() {
                    stack.push(W::Value(item));
                }
            }
            W::Value(Json::Object(o)) => {
                out.push(Event::BeginObject);
                stack.push(W::End);
                let pairs: Vec<(&str, &Json)> = o.iter().collect();
                for (k, v) in pairs.into_iter().rev() {
                    stack.push(W::KeyThen(k, v));
                }
            }
        }
    }
    out
}

/// Why a formula cannot be validated in streaming mode.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamingUnsupported {
    /// `Unique` compares whole sibling subtrees.
    Unique,
    /// `∼(A)` for a container `A` compares a whole subtree.
    ContainerEqDoc(Json),
    /// Free formula variable (recursive JSL is not streamed here).
    FreeVariable(String),
    /// Malformed event sequence.
    BadStream(String),
}

impl fmt::Display for StreamingUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamingUnsupported::Unique => {
                write!(
                    f,
                    "Unique requires subtree buffering (excluded tree equality)"
                )
            }
            StreamingUnsupported::ContainerEqDoc(d) => {
                write!(f, "~({d}) on containers requires subtree buffering")
            }
            StreamingUnsupported::FreeVariable(v) => write!(f, "free variable ${v}"),
            StreamingUnsupported::BadStream(m) => write!(f, "malformed event stream: {m}"),
        }
    }
}

impl std::error::Error for StreamingUnsupported {}

/// Validates a formula against an event stream; `Ok(true)` iff the
/// document satisfies `φ` at the root.
pub fn validate_stream(
    phi: &Jsl,
    events: impl IntoIterator<Item = Event>,
) -> Result<bool, StreamingUnsupported> {
    let mut v = StreamingValidator::new(phi)?;
    for e in events {
        v.feed(&e)?;
    }
    v.finish()
}

/// The node set of `φ` over `tree` computed by streaming: entry `n` says
/// whether the subtree at `n` validates. Each subtree is replayed as its
/// own event stream, so this costs `O(|J| · depth)` events. The validator
/// runs compiled NFAs on raw strings and shares no code with
/// [`crate::eval`], which makes this the per-node oracle for it.
pub fn node_set(phi: &Jsl, tree: &JsonTree) -> Result<Vec<bool>, StreamingUnsupported> {
    tree.node_ids()
        .map(|n| validate_stream(phi, events_of(&tree.json_at(n))))
        .collect()
}

/// The subformula table: children indices precede parents (post-order).
struct Table {
    subs: Vec<Jsl>,
    regexes: Vec<Option<CompiledRegex>>,
    /// Index of each direct subformula within `subs`.
    child_idx: Vec<Vec<usize>>,
}

/// One open container (or the virtual root) during the pass.
struct Frame {
    /// Kind: None = virtual root slot, Some(true) = object, Some(false) = array.
    is_object: Option<bool>,
    /// Children seen so far.
    child_count: u64,
    /// Pending key for the next object member.
    pending_key: Option<String>,
    /// Per modal subformula: the accumulated ∃/∀ verdicts over children.
    exists_acc: Vec<bool>,
    forall_acc: Vec<bool>,
    /// The truth vector of the completed value in this slot (filled when
    /// the child value closes; the root slot receives the final answer).
    completed: Option<Vec<bool>>,
}

impl Frame {
    fn new(is_object: Option<bool>, n_subs: usize) -> Frame {
        Frame {
            is_object,
            child_count: 0,
            pending_key: None,
            exists_acc: vec![false; n_subs],
            forall_acc: vec![true; n_subs],
            completed: None,
        }
    }
}

/// An incremental streaming validator.
pub struct StreamingValidator {
    table: Table,
    stack: Vec<Frame>,
}

impl StreamingValidator {
    /// Compiles the formula (rejecting constructs that need subtree
    /// buffering) and prepares the virtual root frame.
    pub fn new(phi: &Jsl) -> Result<StreamingValidator, StreamingUnsupported> {
        let mut table = Table {
            subs: Vec::new(),
            regexes: Vec::new(),
            child_idx: Vec::new(),
        };
        collect(phi, &mut table)?;
        let n = table.subs.len();
        Ok(StreamingValidator {
            table,
            stack: vec![Frame::new(None, n)],
        })
    }

    /// Feeds one event.
    pub fn feed(&mut self, event: &Event) -> Result<(), StreamingUnsupported> {
        let n = self.table.subs.len();
        match event {
            Event::BeginObject => self.stack.push(Frame::new(Some(true), n)),
            Event::BeginArray => self.stack.push(Frame::new(Some(false), n)),
            Event::Key(k) => {
                let top = self.top()?;
                if top.is_object != Some(true) {
                    return Err(StreamingUnsupported::BadStream(
                        "Key outside an object".into(),
                    ));
                }
                top.pending_key = Some(k.clone());
            }
            Event::Str(s) => {
                let truth = self.leaf_truth(LeafKind::Str(s));
                self.close_value(truth)?;
            }
            Event::Num(v) => {
                let truth = self.leaf_truth(LeafKind::Num(*v));
                self.close_value(truth)?;
            }
            Event::End => {
                let frame = self
                    .stack
                    .pop()
                    .ok_or_else(|| StreamingUnsupported::BadStream("unmatched End".into()))?;
                if frame.is_object.is_none() {
                    return Err(StreamingUnsupported::BadStream(
                        "End at the root slot".into(),
                    ));
                }
                let truth = self.container_truth(&frame);
                self.close_value(truth)?;
            }
        }
        Ok(())
    }

    /// Finishes the pass, returning the root verdict.
    pub fn finish(mut self) -> Result<bool, StreamingUnsupported> {
        if self.stack.len() != 1 {
            return Err(StreamingUnsupported::BadStream(
                "unclosed containers".into(),
            ));
        }
        let root = self.stack.pop().expect("root frame");
        let completed = root
            .completed
            .ok_or_else(|| StreamingUnsupported::BadStream("empty stream".into()))?;
        Ok(*completed.last().expect("nonempty formula"))
    }

    fn top(&mut self) -> Result<&mut Frame, StreamingUnsupported> {
        self.stack
            .last_mut()
            .ok_or_else(|| StreamingUnsupported::BadStream("event after the document".into()))
    }

    /// A completed value (truth vector) is attributed to the parent frame.
    fn close_value(&mut self, truth: Vec<bool>) -> Result<(), StreamingUnsupported> {
        let table = &self.table;
        let frame = self
            .stack
            .last_mut()
            .ok_or_else(|| StreamingUnsupported::BadStream("value after the document".into()))?;
        match frame.is_object {
            None => {
                if frame.completed.is_some() {
                    return Err(StreamingUnsupported::BadStream(
                        "two top-level values".into(),
                    ));
                }
                frame.completed = Some(truth);
            }
            Some(true) => {
                let key = frame.pending_key.take().ok_or_else(|| {
                    StreamingUnsupported::BadStream("object member without a key".into())
                })?;
                for (i, sub) in table.subs.iter().enumerate() {
                    match sub {
                        Jsl::DiamondKey(_, _) | Jsl::BoxKey(_, _) => {
                            let matches = table.regexes[i]
                                .as_ref()
                                .expect("key modality compiled")
                                .is_match(&key);
                            if matches {
                                let body = table.child_idx[i][0];
                                if truth[body] {
                                    frame.exists_acc[i] = true;
                                } else {
                                    frame.forall_acc[i] = false;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                frame.child_count += 1;
            }
            Some(false) => {
                let pos = frame.child_count;
                for (i, sub) in table.subs.iter().enumerate() {
                    if let Jsl::DiamondRange(lo, hi, _) | Jsl::BoxRange(lo, hi, _) = sub {
                        if pos >= *lo && hi.is_none_or(|h| pos <= h) {
                            let body = table.child_idx[i][0];
                            if truth[body] {
                                frame.exists_acc[i] = true;
                            } else {
                                frame.forall_acc[i] = false;
                            }
                        }
                    }
                }
                frame.child_count += 1;
            }
        }
        Ok(())
    }

    fn leaf_truth(&self, leaf: LeafKind<'_>) -> Vec<bool> {
        let table = &self.table;
        let mut out = vec![false; table.subs.len()];
        for i in 0..table.subs.len() {
            out[i] = match &table.subs[i] {
                Jsl::True => true,
                Jsl::Not(_) => !out[table.child_idx[i][0]],
                Jsl::And(_) => table.child_idx[i].iter().all(|&c| out[c]),
                Jsl::Or(_) => table.child_idx[i].iter().any(|&c| out[c]),
                // Leaves have no children: ◇ false, □ vacuous.
                Jsl::DiamondKey(_, _) | Jsl::DiamondRange(_, _, _) => false,
                Jsl::BoxKey(_, _) | Jsl::BoxRange(_, _, _) => true,
                Jsl::Var(_) => unreachable!("rejected at compile"),
                Jsl::Test(t) => match (&leaf, t) {
                    (LeafKind::Str(_), NodeTest::Str) => true,
                    (LeafKind::Str(s), NodeTest::Pattern(_)) => table.regexes[i]
                        .as_ref()
                        .expect("pattern compiled")
                        .is_match(s),
                    (LeafKind::Str(s), NodeTest::EqDoc(Json::Str(d))) => *s == d,
                    (LeafKind::Num(_), NodeTest::Int) => true,
                    (LeafKind::Num(v), NodeTest::Min(m)) => v >= m,
                    (LeafKind::Num(v), NodeTest::Max(m)) => v <= m,
                    (LeafKind::Num(v), NodeTest::MultOf(m)) => {
                        if *m == 0 {
                            *v == 0
                        } else {
                            v % m == 0
                        }
                    }
                    (LeafKind::Num(v), NodeTest::EqDoc(Json::Num(d))) => v == d,
                    (_, NodeTest::MinCh(m)) => *m == 0,
                    (_, NodeTest::MaxCh(_)) => true,
                    _ => false,
                },
            };
        }
        out
    }

    fn container_truth(&self, frame: &Frame) -> Vec<bool> {
        let table = &self.table;
        let is_object = frame.is_object == Some(true);
        let mut out = vec![false; table.subs.len()];
        for i in 0..table.subs.len() {
            out[i] = match &table.subs[i] {
                Jsl::True => true,
                Jsl::Not(_) => !out[table.child_idx[i][0]],
                Jsl::And(_) => table.child_idx[i].iter().all(|&c| out[c]),
                Jsl::Or(_) => table.child_idx[i].iter().any(|&c| out[c]),
                Jsl::DiamondKey(_, _) => is_object && frame.exists_acc[i],
                Jsl::BoxKey(_, _) => !is_object || frame.forall_acc[i],
                Jsl::DiamondRange(_, _, _) => !is_object && frame.exists_acc[i],
                Jsl::BoxRange(_, _, _) => is_object || frame.forall_acc[i],
                Jsl::Var(_) => unreachable!("rejected at compile"),
                Jsl::Test(t) => match t {
                    NodeTest::Obj => is_object,
                    NodeTest::Arr => !is_object,
                    NodeTest::MinCh(m) => frame.child_count >= *m,
                    NodeTest::MaxCh(m) => frame.child_count <= *m,
                    // Only the empty-container documents are streamable for
                    // ∼(A) on containers (rejected otherwise at compile,
                    // except {} and [] which need no buffering).
                    NodeTest::EqDoc(Json::Object(o)) => {
                        is_object && o.is_empty() && frame.child_count == 0
                    }
                    NodeTest::EqDoc(Json::Array(a)) => {
                        !is_object && a.is_empty() && frame.child_count == 0
                    }
                    _ => false,
                },
            };
        }
        out
    }
}

enum LeafKind<'a> {
    Str(&'a str),
    Num(u64),
}

/// Post-order subformula collection with streamability checks.
fn collect(phi: &Jsl, table: &mut Table) -> Result<usize, StreamingUnsupported> {
    let children: Vec<usize> = match phi {
        Jsl::True => Vec::new(),
        Jsl::Var(v) => return Err(StreamingUnsupported::FreeVariable(v.clone())),
        Jsl::Test(NodeTest::Unique) => return Err(StreamingUnsupported::Unique),
        Jsl::Test(NodeTest::EqDoc(d)) => {
            // Non-empty containers would require buffering.
            match d {
                Json::Object(o) if !o.is_empty() => {
                    return Err(StreamingUnsupported::ContainerEqDoc(d.clone()))
                }
                Json::Array(a) if !a.is_empty() => {
                    return Err(StreamingUnsupported::ContainerEqDoc(d.clone()))
                }
                _ => Vec::new(),
            }
        }
        Jsl::Test(_) => Vec::new(),
        Jsl::Not(p) => vec![collect(p, table)?],
        Jsl::And(ps) | Jsl::Or(ps) => ps
            .iter()
            .map(|p| collect(p, table))
            .collect::<Result<_, _>>()?,
        Jsl::DiamondKey(_, p)
        | Jsl::BoxKey(_, p)
        | Jsl::DiamondRange(_, _, p)
        | Jsl::BoxRange(_, _, p) => vec![collect(p, table)?],
    };
    let idx = table.subs.len();
    table.subs.push(phi.clone());
    table.regexes.push(match phi {
        Jsl::DiamondKey(e, _) | Jsl::BoxKey(e, _) => Some(e.compile()),
        Jsl::Test(NodeTest::Pattern(e)) => Some(e.compile()),
        _ => None,
    });
    table.child_idx.push(children);
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Jsl as J;
    use crate::ast::NodeTest as T;
    use jsondata::{parse, JsonTree};
    use relex::Regex;

    fn agree(phi: &J, src: &str) {
        let doc = parse(src).unwrap();
        let tree = JsonTree::build(&doc);
        let via_tree = crate::eval::check_root(&tree, phi);
        let via_stream = validate_stream(phi, events_of(&doc)).unwrap();
        assert_eq!(via_tree, via_stream, "formula {phi}, doc {src}");
    }

    #[test]
    fn streaming_matches_tree_evaluation() {
        let phis = vec![
            J::diamond_key("age", J::Test(T::Min(18))),
            J::box_any_key(J::Test(T::Int)),
            J::and(vec![
                J::Test(T::Obj),
                J::not(J::diamond_key("missing", J::True)),
                J::Test(T::MinCh(1)),
            ]),
            J::DiamondKey(
                Regex::parse("a(b|c)a").unwrap(),
                Box::new(J::Test(T::MultOf(2))),
            ),
            J::DiamondRange(1, Some(2), Box::new(J::Test(T::EqDoc(Json::Num(7))))),
            J::BoxRange(
                0,
                None,
                Box::new(J::or(vec![J::Test(T::Str), J::Test(T::Int)])),
            ),
            J::Test(T::EqDoc(Json::str("hello"))),
            J::Test(T::EqDoc(Json::empty_object())),
            J::diamond_key(
                "nested",
                J::diamond_key("deep", J::Test(T::Pattern(Regex::parse("x+").unwrap()))),
            ),
        ];
        let docs = [
            r#"{"age": 42}"#,
            r#"{"age": 12, "x": 1}"#,
            r#"{"aba": 4, "aca": 3}"#,
            r#"[5, 7, 9]"#,
            r#"[5, 6, 7]"#,
            r#"["a", 1, "b"]"#,
            r#""hello""#,
            r#"{}"#,
            r#"{"nested": {"deep": "xxx"}}"#,
            r#"{"nested": {"deep": "y"}}"#,
            r#"[]"#,
            "3",
        ];
        for phi in &phis {
            for doc in docs {
                agree(phi, doc);
            }
        }
    }

    #[test]
    fn streaming_matches_on_random_documents() {
        let phi = J::and(vec![
            J::or(vec![
                J::diamond_key("a", J::True),
                J::box_any_key(J::not(J::Test(T::EqDoc(Json::Num(3))))),
            ]),
            J::not(J::DiamondRange(0, Some(1), Box::new(J::Test(T::Str)))),
        ]);
        for seed in 0..40 {
            let doc = jsondata::gen::random_json(&jsondata::gen::GenConfig::sized(seed, 120));
            let tree = JsonTree::build(&doc);
            let via_tree = crate::eval::check_root(&tree, &phi);
            let via_stream = validate_stream(&phi, events_of(&doc)).unwrap();
            assert_eq!(via_tree, via_stream, "seed {seed}, doc {doc}");
        }
    }

    #[test]
    fn memory_is_depth_bounded_not_document_bounded() {
        // A wide flat array: frames never exceed depth 2.
        let doc = jsondata::gen::wide_array(50_000);
        let phi = J::BoxRange(0, None, Box::new(J::Test(T::Int)));
        let mut v = StreamingValidator::new(&phi).unwrap();
        let mut max_depth = 0usize;
        for e in events_of(&doc) {
            v.feed(&e).unwrap();
            max_depth = max_depth.max(v.stack.len());
        }
        assert!(v.finish().unwrap());
        assert!(max_depth <= 2, "stack depth {max_depth}");
    }

    #[test]
    fn unsupported_constructs_are_rejected() {
        assert_eq!(
            StreamingValidator::new(&J::Test(T::Unique)).err(),
            Some(StreamingUnsupported::Unique)
        );
        let container = parse(r#"{"k": 1}"#).unwrap();
        assert!(matches!(
            StreamingValidator::new(&J::Test(T::EqDoc(container))).err(),
            Some(StreamingUnsupported::ContainerEqDoc(_))
        ));
        assert!(matches!(
            StreamingValidator::new(&J::Var("g".into())).err(),
            Some(StreamingUnsupported::FreeVariable(_))
        ));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let phi = J::True;
        // Key outside an object.
        let mut v = StreamingValidator::new(&phi).unwrap();
        assert!(v.feed(&Event::Key("k".into())).is_err());
        // Unmatched End.
        let mut v = StreamingValidator::new(&phi).unwrap();
        assert!(v.feed(&Event::End).is_err());
        // Unclosed container.
        let mut v = StreamingValidator::new(&phi).unwrap();
        v.feed(&Event::BeginArray).unwrap();
        assert!(v.finish().is_err());
        // Two top-level values.
        let mut v = StreamingValidator::new(&phi).unwrap();
        v.feed(&Event::Num(1)).unwrap();
        assert!(v.feed(&Event::Num(2)).is_err());
    }

    #[test]
    fn event_serialisation_round_trips_structure() {
        let doc = parse(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let events = events_of(&doc);
        assert_eq!(events.iter().filter(|e| matches!(e, Event::End)).count(), 4);
        assert_eq!(
            events.iter().filter(|e| matches!(e, Event::Key(_))).count(),
            3
        );
    }
}
