//! [`JStr`]: the string type of [`Json`](crate::Json) string values and
//! object keys.
//!
//! A `JStr` is the size of a `String` (24 bytes) and holds a string of up
//! to [`JStr::INLINE`] (22) bytes inline, with no heap allocation; a longer
//! string lives in one exact-size heap buffer. Building a document value
//! therefore costs one allocation per non-empty container and none per
//! short key or atom, which is what makes [`JsonTree::json_at`] and the
//! parser cheap on key-heavy records.
//!
//! Equality, ordering and hashing are those of the `str` it holds
//! (ordering is byte-wise, which for UTF-8 is code-point order), so a
//! `JStr` and a `String` of the same text agree on `Eq`, `Ord`, `Hash`
//! and `Display`, and a `JStr` can be looked up by `&str` through
//! [`Borrow`].
//!
//! [`JsonTree::json_at`]: crate::JsonTree::json_at

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A string stored inline up to [`JStr::INLINE`] bytes, on the heap past
/// that. Immutable once built.
#[derive(Clone)]
pub struct JStr(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string.
    Inline {
        len: u8,
        bytes: [u8; JStr::INLINE],
    },
    Heap(Box<str>),
}

impl JStr {
    /// The longest string, in UTF-8 bytes, held without a heap allocation.
    pub const INLINE: usize = 22;

    /// Whether the string is held inline (at most [`JStr::INLINE`] bytes).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The string's UTF-8 bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The inline bytes were copied from a `&str`, whole, so they
            // are valid UTF-8; the check costs one pass over ≤ 22 bytes.
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("inline bytes are UTF-8")
            }
            Repr::Heap(s) => s,
        }
    }

    /// Builds the inline form of `s`, or `None` when it is too long.
    #[inline]
    fn inline(s: &str) -> Option<JStr> {
        let len = s.len();
        (len <= JStr::INLINE).then(|| {
            let mut bytes = [0; JStr::INLINE];
            bytes[..len].copy_from_slice(s.as_bytes());
            JStr(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl Default for JStr {
    /// The empty string.
    fn default() -> JStr {
        JStr::from("")
    }
}

impl Deref for JStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for JStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for JStr {
    #[inline]
    fn from(s: &str) -> JStr {
        JStr::inline(s).unwrap_or_else(|| JStr(Repr::Heap(s.into())))
    }
}

impl From<&String> for JStr {
    fn from(s: &String) -> JStr {
        JStr::from(s.as_str())
    }
}

impl From<String> for JStr {
    /// Short strings move inline (the `String`'s buffer is freed); longer
    /// ones keep it, shrunk to fit.
    fn from(s: String) -> JStr {
        JStr::inline(&s).unwrap_or_else(|| JStr(Repr::Heap(s.into_boxed_str())))
    }
}

impl From<JStr> for String {
    fn from(s: JStr) -> String {
        match s.0 {
            Repr::Heap(b) => b.into_string(),
            Repr::Inline { .. } => s.as_str().to_owned(),
        }
    }
}

impl PartialEq for JStr {
    #[inline]
    fn eq(&self, other: &JStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for JStr {}

impl PartialEq<str> for JStr {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for JStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for JStr {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<JStr> for str {
    fn eq(&self, other: &JStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<JStr> for &str {
    fn eq(&self, other: &JStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<JStr> for String {
    fn eq(&self, other: &JStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for JStr {
    fn partial_cmp(&self, other: &JStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for JStr {
    /// Byte order, which for UTF-8 is `str`'s (code-point) order.
    #[inline]
    fn cmp(&self, other: &JStr) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for JStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for JStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for JStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}
