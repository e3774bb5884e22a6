//! Chrome trace-event rendering of pipeline spans.
//!
//! [`chrome_trace_json`] turns a batch of finished [`SpanRecord`]s into
//! the Chrome trace-event JSON format (the `{"traceEvents":[...]}`
//! object form), which Perfetto and `chrome://tracing` open directly.
//! The mapping:
//!
//! * **One track per worker.** Every event carries `pid 1` and
//!   `tid = worker + 1` (tid 0 renders oddly in some viewers), plus a
//!   `thread_name` metadata event per track so the UI labels them
//!   `worker 0`, `worker 1`, ….
//! * **One complete (`"ph":"X"`) slice per document**, named by its
//!   admission sequence and route, spanning admit → emit.
//! * **Four nested phase slices** — `queue-wait`, `run`,
//!   `reorder-wait`, `emit` — laid end to end inside the document
//!   slice. Because [`DocSpan`](crate::DocSpan) laps telescope, the
//!   phase slices tile the document slice exactly: their durations sum
//!   to `total_ns()` with no gaps or overlaps. The `run` slice carries
//!   the engine stage breakdown in its `args` when one was sampled.
//!
//! Placement uses `SpanRecord::start_ns` (nanoseconds since the
//! pipeline epoch). Records stamped `0` — producers that predate the
//! epoch plumbing — fall back to end-to-end packing per worker, so the
//! trace stays readable (durations exact, absolute placement
//! approximate).
//!
//! Timestamps in the trace format are microseconds; we emit them with
//! three decimal places so nanosecond precision survives the unit
//! change.

use crate::profile::ProfileStage;
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Writes `ns` nanoseconds as fractional microseconds (`123.456`).
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Appends one complete (`"ph":"X"`) event. `args` must be either empty
/// or a full JSON object (`{...}`).
fn write_slice(
    out: &mut String,
    name: &str,
    cat: &str,
    ts_ns: u64,
    dur_ns: u64,
    tid: u32,
    args: &str,
) {
    out.push_str("{\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"cat\":\"");
    out.push_str(cat);
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    write_us(out, ts_ns);
    out.push_str(",\"dur\":");
    write_us(out, dur_ns);
    let _ = write!(out, ",\"pid\":1,\"tid\":{tid}");
    if !args.is_empty() {
        out.push_str(",\"args\":");
        out.push_str(args);
    }
    out.push('}');
}

/// Renders finished span records as Chrome trace-event JSON (see the
/// module docs for the mapping). The output is a complete, standalone
/// JSON document; an empty slice of records yields an empty (but still
/// valid) trace.
#[must_use]
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 640);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    // One thread_name metadata event per distinct worker, in first-seen
    // order. Worker counts are small (thread count), so a linear scan
    // beats pulling in a hash map.
    let mut seen: Vec<u32> = Vec::new();
    for r in records {
        if !seen.contains(&r.worker) {
            seen.push(r.worker);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"worker {}\"}}}}",
                r.worker + 1,
                r.worker
            );
        }
    }

    // Per-worker end-to-end packing cursor for records without an epoch
    // stamp (`start_ns == 0`). Indexed parallel to `seen`.
    let mut cursors: Vec<u64> = vec![0; seen.len()];

    for r in records {
        // PANIC-OK: every record's worker was pushed into `seen` above
        let slot = seen.iter().position(|&w| w == r.worker).unwrap();
        let start = if r.start_ns != 0 {
            r.start_ns
        } else {
            // PANIC-OK: slot indexes `seen`, and `cursors` has one entry per `seen` worker
            cursors[slot]
        };
        // PANIC-OK: slot indexes `seen`, and `cursors` has one entry per `seen` worker
        cursors[slot] = start.saturating_add(r.total_ns());
        let tid = r.worker + 1;

        let mut name = String::with_capacity(32);
        let _ = write!(name, "doc {}", r.seq);
        if let Some(route) = r.route {
            let _ = write!(name, " [{route}]");
        }
        let mut args = String::with_capacity(96);
        let _ = write!(args, "{{\"seq\":{},\"bytes\":{},\"code\":", r.seq, r.bytes);
        match r.code {
            Some(code) => {
                let _ = write!(args, "\"{code}\"");
            }
            None => args.push_str("null"),
        }
        args.push('}');
        sep(&mut out);
        write_slice(&mut out, &name, "doc", start, r.total_ns(), tid, &args);

        // The four phases tile [start, start + total_ns) in order.
        let mut at = start;
        for (phase, dur) in [
            ("queue-wait", r.queue_wait_ns),
            ("run", r.run_ns),
            ("reorder-wait", r.reorder_wait_ns),
            ("emit", r.emit_ns),
        ] {
            let mut phase_args = String::new();
            if phase == "run" {
                let sampled = ProfileStage::ALL.iter().any(|&s| r.stages.get(s) != 0);
                if sampled {
                    phase_args.push('{');
                    for (i, stage) in ProfileStage::ALL.iter().enumerate() {
                        if i > 0 {
                            phase_args.push(',');
                        }
                        let _ = write!(
                            phase_args,
                            "\"{}_ns\":{}",
                            stage.name(),
                            r.stages.get(*stage)
                        );
                    }
                    phase_args.push('}');
                }
            }
            sep(&mut out);
            write_slice(&mut out, phase, "phase", at, dur, tid, &phase_args);
            at = at.saturating_add(dur);
        }
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StageTimes;
    use crate::Route;

    fn record(seq: u64, worker: u32, start_ns: u64) -> SpanRecord {
        SpanRecord {
            seq,
            bytes: 100,
            start_ns,
            worker,
            route: Some(Route::FieldChain),
            queue_wait_ns: 1_000,
            run_ns: 5_000,
            reorder_wait_ns: 2_000,
            emit_ns: 500,
            stages: StageTimes::default(),
            code: None,
        }
    }

    /// Pulls every numeric field value for `key` out of `json`, in
    /// order — a schema probe precise enough for our own fixed
    /// serializer without needing a JSON parser.
    fn field_values(json: &str, key: &str) -> Vec<f64> {
        let needle = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = json;
        while let Some(pos) = rest.find(&needle) {
            rest = &rest[pos + needle.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            out.push(rest[..end].parse::<f64>().unwrap());
        }
        out
    }

    #[test]
    fn trace_is_complete_events_with_per_worker_tids() {
        let records = [record(0, 0, 10_000), record(1, 2, 25_000)];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        // Every event is either a complete X slice or a metadata event
        // — never an unbalanced B/E pair.
        let x = json.matches("\"ph\":\"X\"").count();
        let m = json.matches("\"ph\":\"M\"").count();
        assert_eq!(x, 2 * 5, "one doc slice + four phase slices per record");
        assert_eq!(m, 2, "one thread_name per distinct worker");
        assert_eq!(x + m, json.matches("\"ph\":").count());
        // Braces balance: structurally sound JSON from our writer.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Workers 0 and 2 land on tids 1 and 3.
        assert!(json.contains("\"tid\":1"), "{json}");
        assert!(json.contains("\"tid\":3"), "{json}");
        assert!(!json.contains("\"tid\":0"), "{json}");
        assert!(json.contains("\"name\":\"worker 0\""), "{json}");
        assert!(json.contains("\"name\":\"worker 2\""), "{json}");
        assert!(json.contains("\"name\":\"doc 0 [field_chain]\""), "{json}");
    }

    #[test]
    fn phase_slices_tile_the_doc_slice_exactly() {
        let r = record(7, 1, 40_000);
        let json = chrome_trace_json(&[r]);
        let durs = field_values(&json, "dur");
        // First dur is the doc slice; the next four are the phases.
        assert_eq!(durs.len(), 5, "{json}");
        let doc_us = durs[0];
        let phase_sum: f64 = durs[1..].iter().sum();
        assert!(
            (doc_us - phase_sum).abs() < 1_000.0,
            "phases must sum to the doc slice within 1ms: {doc_us} vs {phase_sum}"
        );
        assert!((doc_us - 8.5).abs() < 1e-9, "8500ns total = 8.5us: {json}");
        // Phases tile: each ts is the previous ts + dur.
        let ts = field_values(&json, "ts");
        assert_eq!(ts.len(), 5, "{json}");
        assert!(
            (ts[0] - 40.0).abs() < 1e-9,
            "doc starts at start_ns: {json}"
        );
        assert!(
            (ts[1] - ts[0]).abs() < 1e-9,
            "first phase starts with the doc: {json}"
        );
        assert!((ts[2] - (ts[1] + durs[1])).abs() < 1e-9, "{json}");
        assert!((ts[3] - (ts[2] + durs[2])).abs() < 1e-9, "{json}");
        assert!((ts[4] - (ts[3] + durs[3])).abs() < 1e-9, "{json}");
    }

    #[test]
    fn zero_epoch_records_pack_end_to_end_per_worker() {
        let records = [record(0, 0, 0), record(1, 0, 0), record(2, 1, 0)];
        let json = chrome_trace_json(&records);
        let ts = field_values(&json, "ts");
        // Events per record: doc + 4 phases; doc slices are at indices
        // 0, 5, 10 in the ts stream.
        assert_eq!(ts.len(), 15, "{json}");
        assert!((ts[0] - 0.0).abs() < 1e-9, "first doc at epoch: {json}");
        assert!(
            (ts[5] - 8.5).abs() < 1e-9,
            "second doc packs after the first's 8.5us: {json}"
        );
        assert!(
            (ts[10] - 0.0).abs() < 1e-9,
            "other worker starts fresh: {json}"
        );
    }

    #[test]
    fn run_slice_carries_sampled_stage_breakdown() {
        let mut r = record(3, 0, 1_000);
        let mut stages = StageTimes::default();
        stages.add_ns(ProfileStage::Automaton, 4_000);
        r.stages = stages;
        let json = chrome_trace_json(&[r]);
        assert!(json.contains("\"automaton_ns\":4000"), "{json}");
        assert!(json.contains("\"classify_ns\":0"), "{json}");
        // Unsampled records omit stage args entirely.
        let bare = chrome_trace_json(&[record(4, 0, 1_000)]);
        assert!(!bare.contains("automaton_ns"), "{bare}");
    }

    #[test]
    fn empty_input_is_still_a_valid_trace() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn failed_docs_carry_their_code() {
        let mut r = record(9, 0, 0);
        r.code = Some("timeout");
        let json = chrome_trace_json(&[r]);
        assert!(json.contains("\"code\":\"timeout\""), "{json}");
    }
}
