//! The formal presentation of JSON trees (§3.1, Definition of JSON tree):
//! `J = (D, Obj, Arr, Str, Int, A, O, val)` over a tree domain `D ⊆ ℕ*`.
//!
//! [`FormalJson`] is a *relational* encoding that can represent arbitrary
//! candidate structures — including ill-formed ones — so that the five
//! well-formedness conditions of the definition become executable checks
//! ([`FormalJson::validate`]). [`FormalJson::from_tree`] and
//! [`FormalJson::to_json`] connect it to the efficient arena representation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::tree::JsonTree;
use crate::value::Json;

/// A word in ℕ* addressing a node of the tree domain; the root is `ε = []`.
pub type Word = Vec<usize>;

/// Atomic values carried by `val`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomValue {
    /// A string in Σ*.
    Str(String),
    /// A natural number.
    Num(u64),
}

/// The relational JSON-tree structure of §3.1.
#[derive(Debug, Clone, Default)]
pub struct FormalJson {
    /// The tree domain `D`.
    pub domain: BTreeSet<Word>,
    /// The `Obj` partition.
    pub obj: BTreeSet<Word>,
    /// The `Arr` partition.
    pub arr: BTreeSet<Word>,
    /// The `Str` partition.
    pub str_: BTreeSet<Word>,
    /// The `Int` partition.
    pub int: BTreeSet<Word>,
    /// The object-child relation `O ⊆ Obj × Σ* × D`.
    pub o_rel: BTreeSet<(Word, String, Word)>,
    /// The array-child relation `A ⊆ Arr × ℕ × D`.
    pub a_rel: BTreeSet<(Word, usize, Word)>,
    /// The value function `val : Str ∪ Int → Σ* ∪ ℕ`.
    pub val: BTreeMap<Word, AtomValue>,
}

/// A violation of one of the well-formedness conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelViolation {
    /// `D` is not prefix-closed at this word.
    NotPrefixClosed(Word),
    /// `n·i ∈ D` but some `n·j`, `j < i`, is missing.
    MissingSibling(Word, usize),
    /// A word is in none (or several) of the four partitions.
    BadPartition(Word),
    /// Condition 1: an object child without an `O` triple.
    ObjectChildUnlabelled(Word, Word),
    /// Condition 2: the same key labels two different children.
    DuplicateKeyEdge(Word, String),
    /// Condition 3: an array child whose `A` triple has the wrong index.
    ArrayChildMisindexed(Word, usize),
    /// Condition 4: a string/number node with children.
    LeafWithChildren(Word),
    /// Condition 5: a `Str`/`Int` node without a (type-correct) value.
    MissingOrWrongValue(Word),
    /// An `O`/`A` triple whose endpoints are not parent/child in `D`, or
    /// whose source has the wrong partition.
    DanglingRelation(Word, Word),
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn w(word: &Word) -> String {
            if word.is_empty() {
                "ε".to_owned()
            } else {
                word.iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(".")
            }
        }
        match self {
            ModelViolation::NotPrefixClosed(n) => {
                write!(f, "domain not prefix-closed at {}", w(n))
            }
            ModelViolation::MissingSibling(n, i) => {
                write!(f, "domain misses sibling {}·{i}", w(n))
            }
            ModelViolation::BadPartition(n) => {
                write!(f, "node {} is not in exactly one partition", w(n))
            }
            ModelViolation::ObjectChildUnlabelled(p, c) => {
                write!(f, "object child {} of {} has no O-label", w(c), w(p))
            }
            ModelViolation::DuplicateKeyEdge(p, k) => {
                write!(f, "object {} has two edges labelled {k:?}", w(p))
            }
            ModelViolation::ArrayChildMisindexed(p, i) => {
                write!(f, "array {} child {i} has a wrong A-index", w(p))
            }
            ModelViolation::LeafWithChildren(n) => {
                write!(f, "string/number node {} has children", w(n))
            }
            ModelViolation::MissingOrWrongValue(n) => {
                write!(f, "node {} lacks a type-correct value", w(n))
            }
            ModelViolation::DanglingRelation(p, c) => {
                write!(
                    f,
                    "relation edge {} → {} is not a parent/child pair",
                    w(p),
                    w(c)
                )
            }
        }
    }
}

impl FormalJson {
    /// Extracts the formal structure from an arena tree.
    pub fn from_tree(tree: &JsonTree) -> FormalJson {
        let mut out = FormalJson::default();
        for n in tree.node_ids() {
            let word = tree.domain_word(n);
            out.domain.insert(word.clone());
            match tree.kind(n) {
                crate::tree::NodeKind::Obj => {
                    out.obj.insert(word.clone());
                    for (i, (k, c)) in tree.obj_children(n).enumerate() {
                        let mut cw = word.clone();
                        cw.push(i);
                        debug_assert_eq!(cw, tree.domain_word(c));
                        out.o_rel.insert((word.clone(), k.to_owned(), cw));
                    }
                }
                crate::tree::NodeKind::Arr => {
                    out.arr.insert(word.clone());
                    for (i, c) in tree.arr_children(n).iter().enumerate() {
                        let mut cw = word.clone();
                        cw.push(i);
                        debug_assert_eq!(cw, tree.domain_word(*c));
                        out.a_rel.insert((word.clone(), i, cw));
                    }
                }
                crate::tree::NodeKind::Str => {
                    out.str_.insert(word.clone());
                    out.val.insert(
                        word.clone(),
                        AtomValue::Str(tree.str_value(n).expect("Str value").to_owned()),
                    );
                }
                crate::tree::NodeKind::Int => {
                    out.int.insert(word.clone());
                    out.val.insert(
                        word.clone(),
                        AtomValue::Num(tree.num_value(n).expect("Int value")),
                    );
                }
            }
        }
        out
    }

    /// Checks the tree-domain laws and the five conditions of §3.1,
    /// returning every violation found.
    pub fn validate(&self) -> Vec<ModelViolation> {
        let mut out = Vec::new();

        // Tree-domain laws: prefix closure + smaller-sibling closure.
        for wrd in &self.domain {
            if let Some((_, head)) = wrd.split_last() {
                if !self.domain.contains(head) {
                    out.push(ModelViolation::NotPrefixClosed(wrd.clone()));
                }
            }
            if let Some((&last, head)) = wrd.split_last() {
                for j in 0..last {
                    let mut sib = head.to_vec();
                    sib.push(j);
                    if !self.domain.contains(&sib) {
                        out.push(ModelViolation::MissingSibling(head.to_vec(), j));
                    }
                }
            }
        }

        // Partition: each node in exactly one of Obj/Arr/Str/Int.
        for wrd in &self.domain {
            let count = [&self.obj, &self.arr, &self.str_, &self.int]
                .iter()
                .filter(|s| s.contains(wrd))
                .count();
            if count != 1 {
                out.push(ModelViolation::BadPartition(wrd.clone()));
            }
        }
        // ... and nothing outside the domain is in a partition.
        for part in [&self.obj, &self.arr, &self.str_, &self.int] {
            for wrd in part {
                if !self.domain.contains(wrd) {
                    out.push(ModelViolation::BadPartition(wrd.clone()));
                }
            }
        }

        let children = |n: &Word| -> Vec<Word> {
            let mut v = Vec::new();
            let mut i = 0usize;
            loop {
                let mut c = n.clone();
                c.push(i);
                if self.domain.contains(&c) {
                    v.push(c);
                    i += 1;
                } else {
                    break;
                }
            }
            v
        };

        // Condition 1: every object child has exactly one O triple; and key
        // uniqueness (condition 2).
        for n in &self.obj {
            let mut keys_seen: BTreeMap<&str, &Word> = BTreeMap::new();
            for (p, k, c) in self.o_rel.iter().filter(|(p, _, _)| p == n) {
                let _ = p;
                if let Some(prev) = keys_seen.insert(k.as_str(), c) {
                    if prev != c {
                        out.push(ModelViolation::DuplicateKeyEdge(n.clone(), k.clone()));
                    }
                }
            }
            for c in children(n) {
                let labelled = self.o_rel.iter().any(|(p, _, cc)| p == n && *cc == c);
                if !labelled {
                    out.push(ModelViolation::ObjectChildUnlabelled(n.clone(), c));
                }
            }
        }

        // Condition 3: array children indexed by their position.
        for n in &self.arr {
            for (i, c) in children(n).iter().enumerate() {
                if !self.a_rel.contains(&(n.clone(), i, c.clone())) {
                    out.push(ModelViolation::ArrayChildMisindexed(n.clone(), i));
                }
            }
        }

        // Condition 4: strings and numbers are leaves.
        for n in self.str_.iter().chain(self.int.iter()) {
            if !children(n).is_empty() {
                out.push(ModelViolation::LeafWithChildren(n.clone()));
            }
        }

        // Condition 5: values present and type-correct.
        for n in &self.str_ {
            match self.val.get(n) {
                Some(AtomValue::Str(_)) => {}
                _ => out.push(ModelViolation::MissingOrWrongValue(n.clone())),
            }
        }
        for n in &self.int {
            match self.val.get(n) {
                Some(AtomValue::Num(_)) => {}
                _ => out.push(ModelViolation::MissingOrWrongValue(n.clone())),
            }
        }

        // Relations connect true parent/child pairs with correctly-typed
        // sources.
        for (p, _, c) in &self.o_rel {
            let ok = self.obj.contains(p)
                && self.domain.contains(c)
                && c.len() == p.len() + 1
                && c.starts_with(p);
            if !ok {
                out.push(ModelViolation::DanglingRelation(p.clone(), c.clone()));
            }
        }
        for (p, i, c) in &self.a_rel {
            let ok = self.arr.contains(p)
                && self.domain.contains(c)
                && c.len() == p.len() + 1
                && c.starts_with(p)
                && c.last() == Some(i);
            if !ok {
                out.push(ModelViolation::DanglingRelation(p.clone(), c.clone()));
            }
        }

        out
    }

    /// Rebuilds the JSON value, provided the structure validates.
    pub fn to_json(&self) -> Result<Json, Vec<ModelViolation>> {
        let violations = self.validate();
        if !violations.is_empty() {
            return Err(violations);
        }
        Ok(self.build_value(&Vec::new()))
    }

    fn build_value(&self, n: &Word) -> Json {
        if self.int.contains(n) {
            match &self.val[n] {
                AtomValue::Num(v) => Json::Num(*v),
                AtomValue::Str(_) => unreachable!("validated"),
            }
        } else if self.str_.contains(n) {
            match &self.val[n] {
                AtomValue::Str(s) => Json::str(s),
                AtomValue::Num(_) => unreachable!("validated"),
            }
        } else if self.arr.contains(n) {
            let mut items = Vec::new();
            let mut i = 0usize;
            loop {
                let mut c = n.clone();
                c.push(i);
                if self.domain.contains(&c) {
                    items.push(self.build_value(&c));
                    i += 1;
                } else {
                    break;
                }
            }
            Json::Array(items)
        } else {
            let mut pairs = Vec::new();
            for (p, k, c) in &self.o_rel {
                if p == n {
                    pairs.push((k.into(), self.build_value(c)));
                }
            }
            Json::object(pairs).expect("validated keys are distinct")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn formal(src: &str) -> FormalJson {
        FormalJson::from_tree(&JsonTree::build(&parse(src).unwrap()))
    }

    #[test]
    fn well_formed_documents_validate() {
        for src in [
            "0",
            "\"s\"",
            "{}",
            "[]",
            r#"{"a": [1, {"b": "c"}], "d": {}}"#,
            r#"{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}"#,
        ] {
            let f = formal(src);
            assert!(f.validate().is_empty(), "{src} should validate");
            assert_eq!(f.to_json().unwrap(), parse(src).unwrap());
        }
    }

    #[test]
    fn detects_duplicate_key_edges() {
        let mut f = formal(r#"{"a": 1, "b": 2}"#);
        // Relabel the edge to child 1 with the key of child 0.
        let edges: Vec<_> = f.o_rel.iter().cloned().collect();
        let (p, _, c) = edges
            .iter()
            .find(|(_, _, c)| c == &vec![1])
            .unwrap()
            .clone();
        f.o_rel.retain(|(_, _, cc)| cc != &c);
        f.o_rel.insert((p, "a".into(), c));
        assert!(f
            .validate()
            .iter()
            .any(|v| matches!(v, ModelViolation::DuplicateKeyEdge(_, k) if k == "a")));
    }

    #[test]
    fn detects_prefix_violation() {
        let mut f = formal(r#"[1, 2]"#);
        // [7,0] breaks prefix closure ([7] absent); [5] breaks sibling
        // completeness (siblings 2..5 absent).
        f.domain.insert(vec![7, 0]);
        f.int.insert(vec![7, 0]);
        f.val.insert(vec![7, 0], AtomValue::Num(9));
        f.domain.insert(vec![5]);
        f.int.insert(vec![5]);
        f.val.insert(vec![5], AtomValue::Num(9));
        let vs = f.validate();
        assert!(vs
            .iter()
            .any(|v| matches!(v, ModelViolation::NotPrefixClosed(_))));
        assert!(vs
            .iter()
            .any(|v| matches!(v, ModelViolation::MissingSibling(_, _))));
    }

    #[test]
    fn detects_leaf_with_children() {
        let mut f = formal(r#"{"a": 7}"#);
        // Reclassify the root object as a number.
        f.obj.remove(&vec![]);
        f.int.insert(vec![]);
        f.val.insert(vec![], AtomValue::Num(0));
        let vs = f.validate();
        assert!(vs
            .iter()
            .any(|v| matches!(v, ModelViolation::LeafWithChildren(_))));
    }

    #[test]
    fn detects_missing_value() {
        let mut f = formal("42");
        f.val.clear();
        assert!(f
            .validate()
            .iter()
            .any(|v| matches!(v, ModelViolation::MissingOrWrongValue(_))));
    }

    #[test]
    fn detects_wrongly_typed_value() {
        let mut f = formal("42");
        f.val.insert(vec![], AtomValue::Str("not a number".into()));
        assert!(f
            .validate()
            .iter()
            .any(|v| matches!(v, ModelViolation::MissingOrWrongValue(_))));
    }

    #[test]
    fn detects_bad_partition() {
        let mut f = formal("42");
        f.str_.insert(vec![]); // now in both Int and Str
        assert!(f
            .validate()
            .iter()
            .any(|v| matches!(v, ModelViolation::BadPartition(_))));
    }

    #[test]
    fn detects_misindexed_array_child() {
        let mut f = formal("[7, 8]");
        let edges: Vec<_> = f.a_rel.iter().cloned().collect();
        let (p, i, c) = edges[0].clone();
        f.a_rel.remove(&(p.clone(), i, c.clone()));
        f.a_rel.insert((p, i + 10, c));
        let vs = f.validate();
        assert!(vs.iter().any(|v| matches!(
            v,
            ModelViolation::ArrayChildMisindexed(_, _) | ModelViolation::DanglingRelation(_, _)
        )));
    }

    #[test]
    fn round_trip_preserves_value() {
        let src = r#"{"x":[{"y":[0,1,{}]},"s"],"z":3}"#;
        let f = formal(src);
        assert_eq!(f.to_json().unwrap(), parse(src).unwrap());
    }
}
