//! The one result emitter: every line-per-result output mode renders
//! through an [`Emitter`].
//!
//! Values mode writes each match as its raw span plus `\n` (or
//! `<malformed>\n` for an unterminated span); positions mode writes each
//! offset in decimal; count mode writes one number per document. The
//! CLI's single-document and batch modes and the serve layer's responses
//! all use this type, so their bytes are identical by construction.
//!
//! Lines are staged in one reusable buffer and handed to the writer in
//! chunks of at least 64 KiB (only the final drain may be shorter), so
//! a run costs one `write` per chunk rather than two per match — and an
//! unbuffered writer such as `Stdout` sees one syscall per chunk. A span larger than the stage is not copied into it: the stage
//! is topped up from the span's head, drained, and the rest of the span
//! is written straight from the document, so the stage never grows.
//!
//! Most matches are short (numbers, ids, short strings), and for them a
//! variable-length copy costs more than finding the span. The stage
//! therefore carries `SLACK` bytes past its nominal size: a span
//! shorter than `SHORT` is copied as a fixed `SHORT`-byte window (one
//! register move), and a number's digits are written in place. Bytes of
//! the window past the span are overwritten by the newline and the next
//! line, or never drained.

use crate::node_span;
use std::io::{self, Write};

/// The staging buffer's size, and the smallest chunk the writer sees
/// before the final drain.
const STAGE_BYTES: usize = 64 * 1024;

/// Spans shorter than this are copied as one fixed-width window.
const SHORT: usize = 16;

/// Room past `STAGE_BYTES` for a fixed-width window or the 20 digits
/// of a `u64`, plus the newline, written while the staged length is
/// still below `STAGE_BYTES`.
const SLACK: usize = 32;

/// `"00" "01" … "99"`: two decimal digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The two ASCII digits of `pair`, which is below 100.
#[inline]
fn digit_pair(pair: u64) -> &'static [u8] {
    let at = pair as usize * 2;
    // PANIC-OK: pair < 100, so at + 2 <= 200 = DIGIT_PAIRS.len()
    &DIGIT_PAIRS[at..at + 2]
}

/// Renders result lines into a staging buffer and drains it to `out` in
/// chunks of at least 64 KiB.
///
/// Staged bytes reach the writer only when a chunk fills, on
/// [`drain`](Emitter::drain) or on [`flush`](Emitter::flush); dropping
/// an emitter discards what is still staged.
///
/// ```
/// use rsq_json::Emitter;
///
/// let doc = br#"{"a": "x", "b": [1, 2], "c": tru"#;
/// let mut out = Vec::new();
/// let mut emitter = Emitter::new(&mut out);
/// emitter.values(doc, &[6, 16, 29])?;
/// emitter.positions(&[6, 16])?;
/// emitter.number(3)?;
/// emitter.drain()?;
/// assert_eq!(out, b"\"x\"\n[1, 2]\ntru\n6\n16\n3\n");
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Emitter<W: Write> {
    out: W,
    /// `STAGE_BYTES + SLACK` bytes, of which `stage[..len]` are staged.
    stage: Box<[u8]>,
    /// Staged length; below `STAGE_BYTES` between calls.
    len: usize,
}

impl<W: Write> Emitter<W> {
    /// Wraps `out` with an empty stage.
    pub fn new(out: W) -> Self {
        Emitter {
            out,
            stage: vec![0; STAGE_BYTES + SLACK].into_boxed_slice(),
            len: 0,
        }
    }

    /// Stages one line per match: the value's raw span starting at each
    /// offset of `positions` in `doc`, or `<malformed>` when the value is
    /// unterminated or the offset is out of bounds.
    ///
    /// # Errors
    ///
    /// Returns the writer's error when a full chunk fails to drain.
    pub fn values(&mut self, doc: &[u8], positions: &[usize]) -> io::Result<()> {
        for &pos in positions {
            match node_span(doc, pos) {
                Some(span) => match doc.get(span.start..span.start + SHORT) {
                    Some(window) if span.len() < SHORT => {
                        // PANIC-OK: len < STAGE_BYTES and SLACK > SHORT, so the window fits
                        self.stage[self.len..self.len + SHORT].copy_from_slice(window);
                        self.len += span.len();
                    }
                    // PANIC-OK: node_span ranges are in bounds of `doc` by construction
                    _ => self.push(&doc[span])?,
                },
                None => self.push(b"<malformed>")?,
            }
            self.push_byte(b'\n')?;
        }
        Ok(())
    }

    /// Stages one decimal line per offset.
    ///
    /// # Errors
    ///
    /// Returns the writer's error when a full chunk fails to drain.
    pub fn positions(&mut self, positions: &[usize]) -> io::Result<()> {
        positions
            .iter()
            .try_for_each(|&pos| self.number(pos as u64))
    }

    /// Stages one line holding `n` in decimal.
    ///
    /// # Errors
    ///
    /// Returns the writer's error when a full chunk fails to drain.
    pub fn number(&mut self, n: u64) -> io::Result<()> {
        // Digits are written in place from the right, two at a time.
        let end = self.len + n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut at = end;
        let mut n = n;
        while n >= 100 {
            at -= 2;
            // PANIC-OK: len < STAGE_BYTES and a u64 has at most 20 < SLACK digits
            self.stage[at..at + 2].copy_from_slice(digit_pair(n % 100));
            n /= 100;
        }
        if n >= 10 {
            at -= 2;
            // PANIC-OK: len < STAGE_BYTES and a u64 has at most 20 < SLACK digits
            self.stage[at..at + 2].copy_from_slice(digit_pair(n));
        } else {
            at -= 1;
            // PANIC-OK: len < STAGE_BYTES and a u64 has at most 20 < SLACK digits
            self.stage[at] = b'0' + n as u8;
        }
        self.len = end;
        self.push_byte(b'\n')
    }

    /// Writes every staged byte to the writer, without flushing it.
    ///
    /// # Errors
    ///
    /// Returns the writer's error; the staged bytes are dropped either
    /// way.
    pub fn drain(&mut self) -> io::Result<()> {
        let staged = std::mem::take(&mut self.len);
        if staged == 0 {
            return Ok(());
        }
        // PANIC-OK: len never exceeds the stage's STAGE_BYTES + SLACK bytes
        self.out.write_all(&self.stage[..staged])
    }

    /// [`drain`](Emitter::drain)s the stage, then flushes the writer.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.drain()?;
        self.out.flush()
    }

    /// Appends one byte, draining the stage when it fills.
    #[inline]
    fn push_byte(&mut self, byte: u8) -> io::Result<()> {
        // PANIC-OK: callers leave len below STAGE_BYTES + SLACK - 1
        self.stage[self.len] = byte;
        self.len += 1;
        if self.len >= STAGE_BYTES {
            self.drain()?;
        }
        Ok(())
    }

    /// Appends `bytes`. When they would fill the stage, it is topped up
    /// to exactly `STAGE_BYTES` and drained; a remainder of at least
    /// a chunk goes straight to the writer, a shorter one is staged.
    fn push(&mut self, bytes: &[u8]) -> io::Result<()> {
        let room = STAGE_BYTES - self.len;
        let (head, rest) = bytes.split_at(room.min(bytes.len()));
        // PANIC-OK: head.len() <= room, so the copy ends at or before STAGE_BYTES
        self.stage[self.len..self.len + head.len()].copy_from_slice(head);
        self.len += head.len();
        if self.len < STAGE_BYTES {
            return Ok(());
        }
        self.drain()?;
        if rest.len() >= STAGE_BYTES {
            self.out.write_all(rest)
        } else {
            // PANIC-OK: rest.len() < STAGE_BYTES and the stage was just drained
            self.stage[..rest.len()].copy_from_slice(rest);
            self.len = rest.len();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects written bytes and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// The per-match rendering every caller used before the emitter:
    /// span (or `<malformed>`) then a newline, one write each.
    fn per_match(doc: &[u8], positions: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        for &pos in positions {
            match node_span(doc, pos) {
                Some(span) => out.extend_from_slice(&doc[span]),
                None => out.extend_from_slice(b"<malformed>"),
            }
            out.push(b'\n');
        }
        out
    }

    fn emit_values(doc: &[u8], positions: &[usize]) -> CountingWriter {
        let mut out = CountingWriter::default();
        let mut emitter = Emitter::new(&mut out);
        emitter.values(doc, positions).unwrap();
        emitter.drain().unwrap();
        out
    }

    /// A document with many short matches: `[0, 1, 2, ...]`.
    fn many_numbers(n: usize) -> (Vec<u8>, Vec<usize>) {
        let mut doc = b"[".to_vec();
        let mut positions = Vec::new();
        for i in 0..n {
            if i > 0 {
                doc.extend_from_slice(b", ");
            }
            positions.push(doc.len());
            doc.extend_from_slice(i.to_string().as_bytes());
        }
        doc.push(b']');
        (doc, positions)
    }

    #[test]
    fn n_matches_arrive_in_few_large_writes() {
        let (doc, positions) = many_numbers(200_000);
        let out = emit_values(&doc, &positions);
        assert_eq!(out.bytes, per_match(&doc, &positions));
        let bound = out.bytes.len().div_ceil(STAGE_BYTES) + 1;
        assert!(
            out.writes <= bound,
            "{} writes for {} bytes (bound {bound})",
            out.writes,
            out.bytes.len()
        );
        assert_eq!(out.flushes, 0, "drain never flushes the writer");
    }

    #[test]
    fn spans_larger_than_the_stage_bypass_it() {
        // Small values around two spans of 1.5 and 3 stages.
        let big = |n: usize| format!("\"{}\"", "y".repeat(n));
        let doc = format!(
            "[1, {}, 2, {}, 3]",
            big(STAGE_BYTES * 3 / 2),
            big(STAGE_BYTES * 3)
        );
        let doc = doc.as_bytes();
        let positions: Vec<usize> = (1..doc.len())
            .filter(|&i| matches!(doc[i - 1], b'[' | b' '))
            .collect();
        assert_eq!(positions.len(), 5);
        let out = emit_values(doc, &positions);
        assert_eq!(out.bytes, per_match(doc, &positions));
        assert!(out.writes <= out.bytes.len().div_ceil(STAGE_BYTES) + 1);
    }

    #[test]
    fn malformed_and_out_of_bounds_render_as_malformed() {
        let doc = br#"[1, "a\"b", {"k": [2"#;
        let positions = [1, 4, 12, 19, 99];
        let out = emit_values(doc, &positions);
        assert_eq!(out.bytes, per_match(doc, &positions));
        assert_eq!(out.bytes, b"1\n\"a\\\"b\"\n<malformed>\n2\n<malformed>\n");
    }

    #[test]
    fn positions_and_counts_match_decimal_formatting() {
        let mut values: Vec<usize> = (0..=100_100).collect();
        values.extend([1_000_001, 1 << 40, usize::MAX]);
        let mut out = Vec::new();
        let mut emitter = Emitter::new(&mut out);
        emitter.positions(&values).unwrap();
        emitter.number(42).unwrap();
        emitter.number(u64::MAX).unwrap();
        emitter.drain().unwrap();
        let mut expected = String::new();
        for v in values.iter() {
            expected.push_str(&format!("{v}\n"));
        }
        expected.push_str(&format!("42\n{}\n", u64::MAX));
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn flush_drains_then_flushes_and_drop_discards() {
        let mut out = CountingWriter::default();
        let mut emitter = Emitter::new(&mut out);
        emitter.number(5).unwrap();
        emitter.flush().unwrap();
        emitter.number(6).unwrap();
        drop(emitter);
        assert_eq!(out.bytes, b"5\n");
        assert_eq!((out.writes, out.flushes), (1, 1));
    }
}
