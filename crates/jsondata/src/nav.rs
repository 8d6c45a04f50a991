//! JSON navigation instructions (§2): the primitive `J[key]` / `J[i]`
//! accessors every JSON system builds on, plus paths (sequences of steps)
//! with the paper's negative-index extension (`-1` = last element).

use std::fmt;
use std::str::FromStr;

use crate::error::JsonError;
use crate::tree::{JsonTree, NodeId};
use crate::value::Json;

/// One navigation instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NavStep {
    /// `J[key]`: the value of the key–value pair with key `key`.
    Key(String),
    /// `J[i]`: the `i`-th array element; negative counts from the end
    /// (`-1` is the last element).
    Index(i64),
}

impl NavStep {
    /// Applies the step to a value.
    pub fn apply<'a>(&self, value: &'a Json) -> Result<&'a Json, JsonError> {
        match self {
            NavStep::Key(k) => match value {
                Json::Object(o) => o.get(k).ok_or_else(|| JsonError::NoSuchKey(k.clone())),
                _ => Err(JsonError::NotAnObject),
            },
            NavStep::Index(i) => match value {
                Json::Array(items) => {
                    let idx = if *i >= 0 {
                        *i as usize
                    } else {
                        items
                            .len()
                            .checked_sub(i.unsigned_abs() as usize)
                            .ok_or(JsonError::IndexOutOfBounds(*i, items.len()))?
                    };
                    items
                        .get(idx)
                        .ok_or(JsonError::IndexOutOfBounds(*i, items.len()))
                }
                _ => Err(JsonError::NotAnArray),
            },
        }
    }

    /// Applies the step on the tree representation.
    pub fn apply_tree(&self, tree: &JsonTree, n: NodeId) -> Result<NodeId, JsonError> {
        match self {
            NavStep::Key(k) => {
                if tree.kind(n) != crate::tree::NodeKind::Obj {
                    return Err(JsonError::NotAnObject);
                }
                tree.child_by_key(n, k)
                    .ok_or_else(|| JsonError::NoSuchKey(k.clone()))
            }
            NavStep::Index(i) => {
                if tree.kind(n) != crate::tree::NodeKind::Arr {
                    return Err(JsonError::NotAnArray);
                }
                tree.child_by_signed_index(n, *i)
                    .ok_or(JsonError::IndexOutOfBounds(*i, tree.child_count(n)))
            }
        }
    }
}

impl fmt::Display for NavStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavStep::Key(k) => write!(f, "[{}]", crate::serialize::quote(k)),
            NavStep::Index(i) => write!(f, "[{i}]"),
        }
    }
}

/// A sequence of navigation instructions, e.g. `["name"]["first"]` or
/// `["hobbies"][0]` in the paper's python-style notation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NavPath {
    steps: Vec<NavStep>,
}

impl NavPath {
    /// The empty path (identity).
    pub fn root() -> NavPath {
        NavPath::default()
    }

    /// Builds from steps.
    pub fn new(steps: Vec<NavStep>) -> NavPath {
        NavPath { steps }
    }

    /// Appends a key step.
    #[must_use]
    pub fn key(mut self, k: impl Into<String>) -> NavPath {
        self.steps.push(NavStep::Key(k.into()));
        self
    }

    /// Appends an index step.
    #[must_use]
    pub fn index(mut self, i: i64) -> NavPath {
        self.steps.push(NavStep::Index(i));
        self
    }

    /// The steps of the path.
    pub fn steps(&self) -> &[NavStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Resolves against a value, returning the selected subdocument.
    pub fn resolve<'a>(&self, value: &'a Json) -> Result<&'a Json, JsonError> {
        self.steps.iter().try_fold(value, |v, s| s.apply(v))
    }

    /// Resolves against a tree node.
    pub fn resolve_tree(&self, tree: &JsonTree, from: NodeId) -> Result<NodeId, JsonError> {
        self.steps
            .iter()
            .try_fold(from, |n, s| s.apply_tree(tree, n))
    }
}

impl fmt::Display for NavPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J")?;
        for s in &self.steps {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Parses paths in the bracket notation used by the paper:
/// `J["name"]["first"]`, `J["hobbies"][0]`, `J[-1]`. The leading `J` is
/// optional.
impl FromStr for NavPath {
    type Err = JsonError;

    fn from_str(s: &str) -> Result<NavPath, JsonError> {
        let mut rest = s.trim();
        if let Some(stripped) = rest.strip_prefix('J') {
            rest = stripped;
        }
        let mut steps = Vec::new();
        while !rest.is_empty() {
            let Some(after) = rest.strip_prefix('[') else {
                return Err(JsonError::PointerSyntax(s.to_owned()));
            };
            let Some(end) = find_step_end(after) else {
                return Err(JsonError::PointerSyntax(s.to_owned()));
            };
            let body = &after[..end];
            rest = &after[end + 1..];
            let body = body.trim();
            if let Some(q) = body.strip_prefix('"') {
                let Some(inner) = q.strip_suffix('"') else {
                    return Err(JsonError::PointerSyntax(s.to_owned()));
                };
                // Reuse the JSON string parser for escapes.
                let parsed = crate::parse::parse(&format!("\"{inner}\""))
                    .map_err(|_| JsonError::PointerSyntax(s.to_owned()))?;
                match parsed {
                    Json::Str(k) => steps.push(NavStep::Key(k.into())),
                    _ => unreachable!("quoted body parses to a string"),
                }
            } else {
                let i: i64 = body
                    .parse()
                    .map_err(|_| JsonError::PointerSyntax(s.to_owned()))?;
                steps.push(NavStep::Index(i));
            }
        }
        Ok(NavPath { steps })
    }
}

/// Finds the `]` that closes the current step, skipping over quoted strings.
fn find_step_end(s: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == ']' {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn doc() -> Json {
        parse(r#"{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}"#)
            .unwrap()
    }

    #[test]
    fn key_access() {
        let d = doc();
        let p = NavPath::root().key("name").key("first");
        assert_eq!(p.resolve(&d).unwrap(), &Json::str("John"));
    }

    #[test]
    fn index_access_and_negative() {
        let d = doc();
        assert_eq!(
            NavPath::root().key("hobbies").index(0).resolve(&d).unwrap(),
            &Json::str("fishing")
        );
        assert_eq!(
            NavPath::root()
                .key("hobbies")
                .index(-1)
                .resolve(&d)
                .unwrap(),
            &Json::str("yoga")
        );
        assert!(matches!(
            NavPath::root().key("hobbies").index(5).resolve(&d),
            Err(JsonError::IndexOutOfBounds(5, 2))
        ));
        assert!(matches!(
            NavPath::root().key("hobbies").index(-3).resolve(&d),
            Err(JsonError::IndexOutOfBounds(-3, 2))
        ));
    }

    #[test]
    fn kind_errors() {
        let d = doc();
        assert!(matches!(
            NavPath::root().key("age").key("x").resolve(&d),
            Err(JsonError::NotAnObject)
        ));
        assert!(matches!(
            NavPath::root().key("name").index(0).resolve(&d),
            Err(JsonError::NotAnArray)
        ));
        assert!(matches!(
            NavPath::root().key("zzz").resolve(&d),
            Err(JsonError::NoSuchKey(_))
        ));
    }

    #[test]
    fn tree_and_value_resolution_agree() {
        let d = doc();
        let t = JsonTree::build(&d);
        let paths = [
            NavPath::root().key("name").key("last"),
            NavPath::root().key("hobbies").index(1),
            NavPath::root().key("age"),
            NavPath::root().key("hobbies").index(-2),
        ];
        for p in paths {
            let via_value = p.resolve(&d).unwrap().clone();
            let via_tree = t.json_at(p.resolve_tree(&t, t.root()).unwrap());
            assert_eq!(via_value, via_tree, "path {p}");
        }
    }

    #[test]
    fn parse_bracket_syntax() {
        let p: NavPath = r#"J["name"]["first"]"#.parse().unwrap();
        assert_eq!(p, NavPath::root().key("name").key("first"));
        let p: NavPath = r#"["hobbies"][0]"#.parse().unwrap();
        assert_eq!(p, NavPath::root().key("hobbies").index(0));
        let p: NavPath = r#"[-1]"#.parse().unwrap();
        assert_eq!(p, NavPath::root().index(-1));
        // Keys containing `]` and escapes.
        let p: NavPath = r#"J["a]b"]["c\"d"]"#.parse().unwrap();
        assert_eq!(p, NavPath::root().key("a]b").key("c\"d"));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(r#"J["unclosed"#.parse::<NavPath>().is_err());
        assert!(r#"J[abc]"#.parse::<NavPath>().is_err());
        assert!(r#"Jx[0]"#.parse::<NavPath>().is_err());
    }

    #[test]
    fn display_round_trip() {
        let p = NavPath::root().key("a\"b").index(-2).key("c");
        let shown = p.to_string();
        let back: NavPath = shown.parse().unwrap();
        assert_eq!(p, back);
    }
}
