//! Span extraction without parsing: the byte range of a single node.
//!
//! The streaming engines report matches as byte offsets. Turning an
//! offset back into the matched node does not need a DOM — a
//! quote-aware bracket scan finds the end of the value — and the one
//! values emitter ([`Emitter`](crate::Emitter), used by the CLI, batch
//! and serve) renders through this routine.
//!
//! [`node_span`] is the raw-passthrough primitive (DESIGN.md §15): it
//! returns the matched byte range so the emitter can copy the
//! document's own bytes, with no per-match UTF-8 validation and no
//! intermediate `String`. [`node_text`] layers the UTF-8 check on top
//! for callers that need `&str`.

use std::ops::Range;

/// Finds the byte range of the JSON value starting at `pos`.
///
/// Objects and arrays are scanned to their matching close bracket
/// (quote- and escape-aware, so brackets inside strings don't confuse
/// the scan); strings to their closing quote; scalars to the next
/// delimiter. Returns `None` when `pos` is out of bounds or the value
/// is unterminated. The returned range is absolute: index `document`
/// with it directly.
///
/// Strings and scalars — nearly every match of a typical query — are
/// scanned eight bytes at a time in a general-purpose register;
/// containers keep a byte loop.
#[must_use]
pub fn node_span(document: &[u8], pos: usize) -> Option<Range<usize>> {
    let bytes = document.get(pos..)?;
    let len = match bytes.first()? {
        open @ (b'{' | b'[') => container_len(bytes, *open)?,
        b'"' => string_len(bytes)?,
        _ => scalar_len(bytes),
    };
    Some(pos..pos + len)
}

/// Length of the object or array opening `bytes`, through its matching
/// close bracket.
fn container_len(bytes: &[u8], open: u8) -> Option<usize> {
    let close = if open == b'{' { b'}' } else { b']' };
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        if b == b'"' {
            in_string = true;
        } else if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Eight copies of the byte `0x01`.
const LO: u64 = u64::from_le_bytes([0x01; 8]);
/// Eight copies of the byte `0x80`.
const HI: u64 = u64::from_le_bytes([0x80; 8]);

/// Loads the eight bytes at `i` as a little-endian word (byte `i` in the
/// low bits), or `None` when fewer than eight remain.
#[inline]
fn word_at(bytes: &[u8], i: usize) -> Option<u64> {
    let word: [u8; 8] = bytes.get(i..i.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(word))
}

/// Sets the high bit of each byte of `word` that equals `byte`. Bits
/// above the first hit may be spurious (borrows propagate upward), but
/// the *lowest* set bit is always exact — which is all the scans use.
#[inline]
fn eq_mask(word: u64, byte: u8) -> u64 {
    let x = word ^ (LO * u64::from(byte));
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the byte flagged by the lowest set bit of a non-zero mask.
#[inline]
fn first_flagged(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// Length of the string opening `bytes`, through its closing quote.
///
/// Each word is searched for the first `"` or `\`. A quote ends the
/// string; a backslash skips itself and the byte it escapes, and the
/// word scan resumes after them. The last fewer-than-eight bytes go
/// through the byte loop, entered at a position that is never escaped.
fn string_len(bytes: &[u8]) -> Option<usize> {
    let mut i = 1;
    while let Some(word) = word_at(bytes, i) {
        let hits = eq_mask(word, b'"') | eq_mask(word, b'\\');
        if hits == 0 {
            i += 8;
            continue;
        }
        let at = i + first_flagged(hits);
        if bytes.get(at) == Some(&b'"') {
            return Some(at + 1);
        }
        i = at + 2;
    }
    let mut escaped = false;
    for (k, &b) in bytes.iter().enumerate().skip(i) {
        if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            return Some(k + 1);
        }
    }
    None
}

/// Whether `b` ends a scalar: `,`, `}`, `]` or JSON whitespace.
#[inline]
fn is_scalar_end(b: u8) -> bool {
    matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
}

/// Length of the scalar (number, literal, or stray byte) opening
/// `bytes`: up to the first delimiter, or to the end of the input.
fn scalar_len(bytes: &[u8]) -> usize {
    let mut i = 0;
    while let Some(word) = word_at(bytes, i) {
        let hits = eq_mask(word, b',')
            | eq_mask(word, b'}')
            | eq_mask(word, b']')
            | eq_mask(word, b' ')
            | eq_mask(word, b'\t')
            | eq_mask(word, b'\n')
            | eq_mask(word, b'\r');
        if hits != 0 {
            return i + first_flagged(hits);
        }
        i += 8;
    }
    bytes
        .iter()
        .skip(i)
        .position(|&b| is_scalar_end(b))
        .map_or(bytes.len(), |k| i + k)
}

/// Extracts the text of the JSON value starting at `pos`.
///
/// [`node_span`] plus UTF-8 validation: returns `None` additionally
/// when the span is not valid UTF-8.
#[must_use]
pub fn node_text(document: &[u8], pos: usize) -> Option<&str> {
    let span = node_span(document, pos)?;
    // PANIC-OK: node_span ranges are in bounds of `document` by construction
    std::str::from_utf8(&document[span]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_each_value_shape() {
        let doc = br#"{"a": [1, {"b": "x]"}], "s": "q\"t", "n": 12.5}"#;
        assert_eq!(node_text(doc, 0), Some(std::str::from_utf8(doc).unwrap()));
        assert_eq!(node_text(doc, 6), Some(r#"[1, {"b": "x]"}]"#));
        assert_eq!(node_text(doc, 29), Some(r#""q\"t""#));
        assert_eq!(node_text(doc, 42), Some("12.5"));
    }

    #[test]
    fn spans_are_absolute_ranges() {
        let doc = br#"{"a": [1, {"b": "x]"}], "n": 12.5}"#;
        let span = node_span(doc, 6).unwrap();
        assert_eq!(span, 6..22);
        assert_eq!(&doc[span], br#"[1, {"b": "x]"}]"#);
        assert_eq!(node_span(doc, 0), Some(0..doc.len()));
    }

    #[test]
    fn span_ignores_invalid_utf8_that_text_rejects() {
        // A latin-1 byte inside a string: the span is found (raw
        // passthrough emits the document's own bytes), but `node_text`
        // refuses to call it a &str.
        let doc = b"{\"s\": \"caf\xe9\"}";
        assert_eq!(node_span(doc, 6), Some(6..12));
        assert_eq!(node_text(doc, 6), None);
    }

    #[test]
    fn unterminated_and_out_of_bounds_are_none() {
        assert_eq!(node_text(b"{\"a\": ", 0), None);
        assert_eq!(node_text(b"\"open", 0), None);
        assert_eq!(node_text(b"[1]", 99), None);
        assert_eq!(node_span(b"{\"a\": ", 0), None);
        assert_eq!(node_span(b"[1]", 99), None);
    }

    #[test]
    fn scalar_at_end_of_input() {
        assert_eq!(node_text(b"true", 0), Some("true"));
        assert_eq!(node_text(b"[1, 2]", 4), Some("2"));
        assert_eq!(node_span(b"[1, 2]", 4), Some(4..5));
    }

    /// The byte-at-a-time scan every span used before the word-at-a-time
    /// paths: the oracle the fast [`node_span`] must equal exactly.
    fn reference_span(document: &[u8], pos: usize) -> Option<Range<usize>> {
        let bytes = document.get(pos..)?;
        let len = match bytes.first()? {
            open @ (b'{' | b'[') => {
                let close = if *open == b'{' { b'}' } else { b']' };
                let open = *open;
                let mut depth = 0usize;
                let mut in_string = false;
                let mut escaped = false;
                let mut end = None;
                for (i, &b) in bytes.iter().enumerate() {
                    if in_string {
                        if escaped {
                            escaped = false;
                        } else if b == b'\\' {
                            escaped = true;
                        } else if b == b'"' {
                            in_string = false;
                        }
                        continue;
                    }
                    if b == b'"' {
                        in_string = true;
                    } else if b == open {
                        depth += 1;
                    } else if b == close {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i + 1);
                            break;
                        }
                    }
                }
                end?
            }
            b'"' => {
                let mut escaped = false;
                let mut end = None;
                for (i, &b) in bytes.iter().enumerate().skip(1) {
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                    } else if b == b'"' {
                        end = Some(i + 1);
                        break;
                    }
                }
                end?
            }
            _ => bytes
                .iter()
                .position(|&b| matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r'))
                .unwrap_or(bytes.len()),
        };
        Some(pos..pos + len)
    }

    /// Asserts fast == reference at every offset of `doc`, plus the two
    /// out-of-bounds offsets just past its end.
    fn assert_matches_reference(doc: &[u8]) {
        for pos in 0..doc.len() + 2 {
            assert_eq!(
                node_span(doc, pos),
                reference_span(doc, pos),
                "doc {doc:?} at offset {pos}"
            );
        }
    }

    /// Structural bytes: brackets, quote, backslash, separators and the
    /// four JSON whitespace bytes.
    const STRUCTURAL: &[u8] = b"{}[]\"\\,: \t\n\r";
    /// Filler: letters, digits, and bytes at and above 0x80.
    const FILLER: &[u8] = b"aetzAZ0159-.\x80\xa9\xc3\xff";

    #[test]
    fn fast_span_equals_reference_on_random_bytes() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut doc = Vec::new();
        for round in 0..20_000 {
            // Lengths 0..=47 cover documents shorter than one word, spans
            // ending in the final seven bytes, and spans running off the
            // end; the structural density varies so that both long
            // filler runs (multi-word strings and scalars) and dense
            // escape/delimiter clusters occur.
            let len = (next() % 48) as usize;
            let structural_per_16 = [1, 4, 16][round % 3];
            doc.clear();
            for _ in 0..len {
                let r = next();
                let set = if r % 16 < structural_per_16 {
                    STRUCTURAL
                } else {
                    FILLER
                };
                doc.push(set[(r >> 8) as usize % set.len()]);
            }
            assert_matches_reference(&doc);
        }
    }

    #[test]
    fn fast_span_equals_reference_on_every_short_document() {
        // Every document of up to three bytes over both alphabets.
        let alphabet: Vec<u8> = STRUCTURAL.iter().chain(FILLER).copied().collect();
        let mut doc = Vec::new();
        assert_matches_reference(&doc);
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    doc.clear();
                    doc.extend_from_slice(&[a, b, c]);
                    assert_matches_reference(&doc);
                    assert_matches_reference(&doc[..2]);
                    assert_matches_reference(&doc[..1]);
                }
            }
        }
    }

    #[test]
    fn word_boundaries_and_escapes_at_the_tail() {
        for n in 0..40 {
            let body = "x".repeat(n);
            for doc in [
                format!("\"{body}\""),
                format!("\"{body}"),
                format!("\"{body}\\"),
                format!("\"{body}\\\""),
                format!("\"{body}\\\"\""),
                format!("\"\\\\{body}\""),
                format!("[\"{body}\", 1{body}]"),
                format!("1{body}"),
                format!("1{body},"),
                format!("1{body}\r\n"),
            ] {
                assert_matches_reference(doc.as_bytes());
            }
        }
        assert_eq!(node_span(br#""abcdefgh\"ij""#, 0), Some(0..14));
        assert_eq!(node_span(b"\"abcdefgh\\", 0), None);
        assert_eq!(node_span(b"12345678901234567890", 0), Some(0..20));
        assert_eq!(node_span(b"12345678901234567\t", 0), Some(0..17));
    }
}
