//! In-memory span recorder for the traced run.
//!
//! Each span is one timed call into a layer's public API, made from the
//! benchmark's own code: a name, start and end, the span that caused it,
//! and the query or document id it worked on. Spans stay in memory until
//! the run ends and are then written as Chrome trace-event JSON — the
//! format `rsq --trace-out` writes — so one viewer (Perfetto,
//! `chrome://tracing`) opens both.
//!
//! With tracing off, [`Tracer::time`] still measures the call (the
//! end-to-end metrics need the time) but records nothing.

use crate::stats::Samples;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Upper bound on the calls [`Tracer::repeat`] makes.
pub const MAX_REPS: usize = 10_000;

/// Handle of a recorded span, used as the parent of later spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    id: String,
    parent: Option<SpanId>,
    track: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span on `track` (one viewer row per track;
    /// track 0 is the benchmark's main thread). Returns `None` with
    /// tracing off.
    pub fn record(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id: id.to_owned(),
            parent,
            track,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Opens a span whose end is set later with [`Tracer::close`] — for
    /// grouping spans that enclose other spans.
    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, id, parent, 0, now, now)
    }

    pub fn close(&mut self, span: Option<SpanId>) {
        let end = self.ns(Instant::now());
        if let Some(SpanId(i)) = span {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` as one span and returns its result with its duration in
    /// seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, parent, 0, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Calls `f` at least `min_reps` times and for at least `min_secs`
    /// seconds (at most [`MAX_REPS`] times), one span per call, and
    /// returns each call's time in seconds.
    pub fn repeat<T>(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        min_reps: usize,
        min_secs: f64,
        mut f: impl FnMut() -> T,
    ) -> Samples {
        let mut samples = Samples::new();
        let started = Instant::now();
        while samples.len() < MAX_REPS
            && (samples.len() < min_reps || started.elapsed().as_secs_f64() < min_secs)
        {
            let (out, secs) = self.time(name, id, parent, &mut f);
            std::hint::black_box(out);
            samples.push(secs);
        }
        samples
    }

    /// Writes the spans to `path` as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph":"X"`)
    /// event per span, `args` carrying the span's index, its parent's
    /// index and its id.
    fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 64);
        out.push_str("{\"traceEvents\":[");
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for (i, track) in tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let label = if *track == 0 { "benchmark" } else { "receiver" };
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{label} {track}\"}}}}",
                track + 1
            );
        }
        for (i, span) in self.spans.iter().enumerate() {
            out.push(',');
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{},\"id\":\"",
                span.name,
                span.start_ns / 1_000,
                span.start_ns % 1_000,
                span.end_ns.saturating_sub(span.start_ns) / 1_000,
                span.end_ns.saturating_sub(span.start_ns) % 1_000,
                span.track + 1,
                span.parent.map_or(-1, |SpanId(p)| p as i64),
            );
            rsq_json::escape_into(&span.id, &mut out);
            out.push_str("\"}}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", "q", None, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn chrome_trace_parses_and_keeps_parents() {
        let mut t = Tracer::new(true);
        let root = t.open("layer", "all", None);
        let _ = t.time("call", "q\"1", root, || ());
        t.close(root);
        let doc = rsq_json::parse(t.chrome_json().as_bytes()).expect("trace is JSON");
        let rendered = rsq_json::to_string(&doc);
        assert!(rendered.contains("\"parent\":0"), "{rendered}");
    }
}
