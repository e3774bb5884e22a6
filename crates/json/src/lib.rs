//! JSON document model and span-tracking parser.
//!
//! This crate is the *substrate* for the `rsq` reproduction of
//! *Supporting Descendants in SIMD-Accelerated JSONPath* (ASPLOS 2023):
//! it provides the DOM that the reference (oracle) JSONPath engine
//! evaluates over, the serializer used to round-trip documents in tests,
//! and streaming document statistics (size, depth, verbosity) matching
//! Table 3 of the paper.
//!
//! The streaming engines in `rsq-engine` and `rsq-baselines` never build a
//! DOM — that is the point of the paper. The DOM here exists so that
//! differential tests have an independent, obviously-correct semantics to
//! compare against.
//!
//! Strings and object keys are stored *raw* (the bytes between the quotes,
//! escapes undecoded). JSONPath label matching in the paper's engine
//! compares raw label bytes against raw query bytes, so the oracle must do
//! the same for differential testing to be exact. Use
//! [`unescape`] to decode a raw string when the actual text is needed.
//!
//! # Examples
//!
//! ```
//! use rsq_json::{parse, ValueKind};
//!
//! let doc = parse(br#"{"a": [1, true, "x"]}"#)?;
//! let ValueKind::Object(members) = &doc.kind else { panic!() };
//! assert_eq!(members[0].0.text, "a");
//! assert_eq!(doc.span.start, 0);
//! # Ok::<(), rsq_json::ParseError>(())
//! ```

#![warn(missing_docs)]

mod emit;
mod extract;
mod parser;
mod serialize;
mod stats;
mod strings;

pub use emit::Emitter;
pub use extract::{node_span, node_text};
pub use parser::{parse, parse_with_options, ParseError, ParseOptions};
pub use serialize::{to_string, to_string_pretty};
pub use stats::{document_stats, DocumentStats};
pub use strings::{escape_into, unescape, UnescapeError};

/// A byte range `[start, end)` in the source document.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// Offset of the first byte of the value.
    pub start: usize,
    /// Offset one past the last byte of the value.
    pub end: usize,
}

impl Span {
    /// Length of the span in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the span is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// An object key: raw text (escapes undecoded) plus the span of the quoted
/// key token in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// The raw bytes between the quotes, as they appear in the source.
    pub text: String,
    /// Span of the key *including* the surrounding quotes.
    pub span: Span,
}

/// A parsed JSON value together with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueNode {
    /// The value itself.
    pub kind: ValueKind,
    /// Byte range of the value's text in the source document.
    pub span: Span,
}

/// The kinds of JSON values.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueKind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number; the raw source text is kept for lossless round-trips.
    Number(Number),
    /// A string; raw content between the quotes, escapes undecoded.
    String(String),
    /// An array of values.
    Array(Vec<ValueNode>),
    /// An object: ordered members, duplicate keys preserved.
    Object(Vec<(Key, ValueNode)>),
}

/// A JSON number, stored as its raw source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Number {
    raw: String,
}

impl Number {
    /// Creates a number from raw JSON text.
    ///
    /// The caller is responsible for the text being a valid JSON number;
    /// the parser always upholds this.
    #[must_use]
    pub fn from_raw(raw: String) -> Self {
        Number { raw }
    }

    /// The raw source text of the number.
    #[must_use]
    pub fn as_raw(&self) -> &str {
        &self.raw
    }

    /// The number as an `f64` (lossy for very large integers).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        self.raw.parse().unwrap_or(f64::NAN)
    }

    /// The number as an `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        self.raw.parse().ok()
    }
}

impl std::fmt::Display for Number {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.raw)
    }
}

impl ValueNode {
    /// Iterates over the direct subdocuments (children) of this value:
    /// object member values and array entries.
    pub fn children(&self) -> impl Iterator<Item = &ValueNode> {
        let (arr, obj) = match &self.kind {
            ValueKind::Array(items) => (Some(items.iter()), None),
            ValueKind::Object(members) => (None, Some(members.iter().map(|(_, v)| v))),
            _ => (None, None),
        };
        arr.into_iter().flatten().chain(obj.into_iter().flatten())
    }

    /// Returns `true` for atomic values (strings, numbers, booleans, null).
    #[must_use]
    pub fn is_atom(&self) -> bool {
        !matches!(self.kind, ValueKind::Array(_) | ValueKind::Object(_))
    }

    /// Total number of nodes in the subtree rooted here (this node
    /// included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + match &self.kind {
            ValueKind::Array(items) => items.iter().map(ValueNode::node_count).sum(),
            ValueKind::Object(members) => members.iter().map(|(_, v)| v.node_count()).sum(),
            _ => 0,
        }
    }

    /// Maximum nesting depth of the subtree (an atom has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        1 + match &self.kind {
            ValueKind::Array(items) => items.iter().map(ValueNode::depth).max().unwrap_or(0),
            ValueKind::Object(members) => members.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_accessors() {
        let n = Number::from_raw("-12.5e2".to_owned());
        assert_eq!(n.as_raw(), "-12.5e2");
        assert_eq!(n.as_f64(), -1250.0);
        assert_eq!(n.as_i64(), None);
        assert_eq!(Number::from_raw("42".into()).as_i64(), Some(42));
        assert_eq!(n.to_string(), "-12.5e2");
    }

    #[test]
    fn children_of_each_kind() {
        let doc = parse(br#"{"a": 1, "b": [2, 3]}"#).unwrap();
        assert_eq!(doc.children().count(), 2);
        let arr = doc.children().nth(1).unwrap();
        assert_eq!(arr.children().count(), 2);
        assert!(arr.children().all(ValueNode::is_atom));
    }

    #[test]
    fn node_count_and_depth() {
        let doc = parse(br#"{"a": {"b": [1, 2]}}"#).unwrap();
        // object, object, array, 1, 2
        assert_eq!(doc.node_count(), 5);
        assert_eq!(doc.depth(), 4);
        let atom = parse(b"42").unwrap();
        assert_eq!(atom.node_count(), 1);
        assert_eq!(atom.depth(), 1);
    }

    #[test]
    fn span_len() {
        let s = Span { start: 3, end: 10 };
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
    }
}
