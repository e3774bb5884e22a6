//! Rolling-window aggregation for live telemetry.
//!
//! A long-lived server's lifetime histogram answers "how has this
//! process behaved since it started", which is the wrong question at
//! scrape time — a scraper wants *recent* behavior. [`WindowRing`] is a
//! fixed ring of per-second slots, each holding a [`Histogram`] plus
//! flow counters; recording into the current second lazily evicts
//! whatever stale second the slot last held, so the ring needs no
//! background thread and its memory is a hard constant
//! (`SLOTS × sizeof(Slot)`). A scrape merges the last `k` live slots
//! into a [`WindowSnapshot`] — a pure read using the histogram's
//! associative `+=`, so scraping never perturbs recording beyond the
//! mutex the caller already holds.
//!
//! Time is the caller's problem by design: every call takes a `tick`
//! (whole seconds since the caller's epoch) instead of reading a clock,
//! which keeps this module deterministic under test and keeps clock
//! reads out of paths where telemetry is disabled.

use crate::expo::metric;
use crate::hist::Histogram;
use std::fmt::Write as _;

/// Ring capacity in one-second slots. 64 covers the 60-second window
/// with slack for the tick in progress.
pub const SLOTS: usize = 64;

/// One second's worth of accumulation.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// Absolute tick this slot currently holds (0 is valid: slot 0
    /// starts live at process start, the rest start stale-but-empty).
    tick: u64,
    latency: Histogram,
    docs: u64,
    bytes: u64,
    errors: u64,
    busy_ns: u64,
    route_docs: [u64; 3],
}

impl Slot {
    fn clear(&mut self, tick: u64) {
        self.tick = tick;
        self.latency.clear();
        self.docs = 0;
        self.bytes = 0;
        self.errors = 0;
        self.busy_ns = 0;
        self.route_docs = [0; 3];
    }
}

/// A fixed ring of per-second accumulation slots (see module docs).
#[derive(Clone, Debug)]
pub struct WindowRing {
    slots: Box<[Slot; SLOTS]>,
}

impl Default for WindowRing {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowRing {
    /// An empty ring.
    #[must_use]
    pub fn new() -> Self {
        WindowRing {
            slots: Box::new(std::array::from_fn(|_| Slot::default())),
        }
    }

    fn slot_mut(&mut self, tick: u64) -> &mut Slot {
        let idx = (tick % SLOTS as u64) as usize;
        // PANIC-OK: idx is tick mod SLOTS and slots has exactly SLOTS entries
        let slot = &mut self.slots[idx];
        if slot.tick != tick {
            slot.clear(tick);
        }
        slot
    }

    /// Records one finished document into second `tick`: its end-to-end
    /// latency, its size on the wire, whether it failed, the worker
    /// time it consumed, and (when known) the engine route that ran it.
    pub fn record(
        &mut self,
        tick: u64,
        latency_ns: u64,
        bytes: u64,
        failed: bool,
        busy_ns: u64,
        route: Option<crate::Route>,
    ) {
        let slot = self.slot_mut(tick);
        slot.latency.record(latency_ns);
        slot.docs = slot.docs.saturating_add(1);
        slot.bytes = slot.bytes.saturating_add(bytes);
        slot.errors = slot.errors.saturating_add(u64::from(failed));
        slot.busy_ns = slot.busy_ns.saturating_add(busy_ns);
        if let Some(route) = route {
            // PANIC-OK: Route::index is < the per-route array length (one slot per route)
            let r = &mut slot.route_docs[route.index()];
            *r = r.saturating_add(1);
        }
    }

    /// Merges the last `secs` seconds ending at `now_tick` (inclusive)
    /// into a snapshot. Slots holding older ticks (stale, not yet
    /// recycled) are skipped, so a ring that went quiet reports zeros
    /// rather than minutes-old traffic. `secs` is clamped to the ring
    /// capacity.
    #[must_use]
    pub fn window(&self, now_tick: u64, secs: u64) -> WindowSnapshot {
        let secs = secs.clamp(1, SLOTS as u64);
        let oldest = now_tick.saturating_sub(secs - 1);
        let mut snap = WindowSnapshot {
            secs,
            ..WindowSnapshot::default()
        };
        for slot in self.slots.iter() {
            if slot.tick >= oldest && slot.tick <= now_tick {
                snap.latency += &slot.latency;
                snap.docs = snap.docs.saturating_add(slot.docs);
                snap.bytes = snap.bytes.saturating_add(slot.bytes);
                snap.errors = snap.errors.saturating_add(slot.errors);
                snap.busy_ns = snap.busy_ns.saturating_add(slot.busy_ns);
                for (a, b) in snap.route_docs.iter_mut().zip(slot.route_docs.iter()) {
                    *a = a.saturating_add(*b);
                }
            }
        }
        snap
    }
}

/// The merged view of one rolling window: a latency histogram plus flow
/// totals over the last [`WindowSnapshot::secs`] seconds.
#[derive(Clone, Debug, Default)]
pub struct WindowSnapshot {
    /// Window width in seconds.
    pub secs: u64,
    /// Latency of documents finished inside the window.
    pub latency: Histogram,
    /// Documents finished inside the window.
    pub docs: u64,
    /// Bytes of those documents.
    pub bytes: u64,
    /// Documents that failed (any per-document error class).
    pub errors: u64,
    /// Worker nanoseconds consumed by those documents.
    pub busy_ns: u64,
    /// Documents by engine route, indexed by
    /// [`Route::index`](crate::Route::index).
    pub route_docs: [u64; 3],
}

impl WindowSnapshot {
    #[allow(clippy::cast_precision_loss)]
    fn per_sec(&self, total: u64) -> f64 {
        if self.secs == 0 {
            0.0
        } else {
            total as f64 / self.secs as f64
        }
    }

    /// Documents per second over the window.
    #[must_use]
    pub fn docs_per_sec(&self) -> f64 {
        self.per_sec(self.docs)
    }

    /// Input bytes per second over the window.
    #[must_use]
    pub fn bytes_per_sec(&self) -> f64 {
        self.per_sec(self.bytes)
    }

    /// Fraction of `workers` worker-seconds spent running documents
    /// over the window, clamped to `[0, 1]`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn busy_fraction(&self, workers: u64) -> f64 {
        let capacity_ns = self
            .secs
            .saturating_mul(workers)
            .saturating_mul(1_000_000_000);
        if capacity_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / capacity_ns as f64).clamp(0.0, 1.0)
        }
    }

    /// Serializes as a single-line JSON object with stable keys:
    /// `secs`, `docs`, `bytes`, `errors`, `docs_per_sec`,
    /// `bytes_per_sec`, `busy_ns`, `route_docs`, `latency`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(320);
        let _ = write!(
            s,
            "{{\"secs\":{},\"docs\":{},\"bytes\":{},\"errors\":{},\"docs_per_sec\":{:.2},\"bytes_per_sec\":{:.2},\"busy_ns\":{},\"route_docs\":{{",
            self.secs,
            self.docs,
            self.bytes,
            self.errors,
            self.docs_per_sec(),
            self.bytes_per_sec(),
            self.busy_ns,
        );
        for (i, route) in crate::Route::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{}",
                route.as_str(),
                // PANIC-OK: Route::index is < the per-route array length (one slot per route)
                self.route_docs[route.index()]
            );
        }
        let _ = write!(s, "}},\"latency\":{}}}", self.latency.to_json());
        s
    }
}

/// Live point-in-time gauges accompanying the windows in the telemetry
/// exposition.
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetryGauges {
    /// Framed documents waiting for a worker.
    pub queue_depth: u64,
    /// Documents admitted but not yet emitted.
    pub in_flight: u64,
    /// Worker threads per connection.
    pub workers: u64,
    /// Slow-document log lines written so far (lifetime counter).
    pub slow_documents: u64,
    /// Postmortem artifacts written so far (lifetime counter).
    pub postmortems: u64,
}

/// Renders the rolling windows and live gauges as Prometheus text
/// exposition — the telemetry-specific tail appended to
/// [`prometheus_serve`](crate::prometheus_serve) by the `/metrics`
/// endpoint and the `--metrics-out` writer.
#[must_use]
pub fn prometheus_telemetry(windows: &[&WindowSnapshot], gauges: &TelemetryGauges) -> String {
    let mut out = String::with_capacity(2048);
    for snap in windows {
        let w = format!("window=\"{}s\"", snap.secs);
        metric(
            &mut out,
            "rsq_window_documents",
            "Documents finished inside the rolling window.",
            &w,
            snap.docs,
            "gauge",
        );
        metric(
            &mut out,
            "rsq_window_errors",
            "Failed documents inside the rolling window.",
            &w,
            snap.errors,
            "gauge",
        );
        metric(
            &mut out,
            "rsq_window_docs_per_sec",
            "Document completion rate over the rolling window.",
            &w,
            format!("{:.3}", snap.docs_per_sec()),
            "gauge",
        );
        metric(
            &mut out,
            "rsq_window_bytes_per_sec",
            "Input byte rate over the rolling window.",
            &w,
            format!("{:.1}", snap.bytes_per_sec()),
            "gauge",
        );
        metric(
            &mut out,
            "rsq_window_worker_busy_fraction",
            "Fraction of worker-seconds spent running documents over the rolling window.",
            &w,
            format!("{:.4}", snap.busy_fraction(gauges.workers.max(1))),
            "gauge",
        );
        for route in crate::Route::ALL {
            metric(
                &mut out,
                "rsq_window_route_docs",
                "Documents by engine route inside the rolling window.",
                &format!("{w},route=\"{}\"", route.as_str()),
                // PANIC-OK: Route::index is < the per-route array length (one slot per route)
                snap.route_docs[route.index()],
                "gauge",
            );
        }
        for (q, v) in [
            ("0.5", snap.latency.p50()),
            ("0.9", snap.latency.p90()),
            ("0.99", snap.latency.p99()),
            ("1.0", snap.latency.max()),
        ] {
            metric(
                &mut out,
                "rsq_window_latency_ns",
                "Document latency quantiles over the rolling window (log2-bucket resolution).",
                &format!("{w},quantile=\"{q}\""),
                v,
                "gauge",
            );
        }
    }
    metric(
        &mut out,
        "rsq_queue_depth",
        "Framed documents waiting for a worker.",
        "",
        gauges.queue_depth,
        "gauge",
    );
    metric(
        &mut out,
        "rsq_in_flight",
        "Documents admitted but not yet emitted.",
        "",
        gauges.in_flight,
        "gauge",
    );
    metric(
        &mut out,
        "rsq_workers",
        "Worker threads serving the connection.",
        "",
        gauges.workers,
        "gauge",
    );
    metric(
        &mut out,
        "rsq_slow_documents_total",
        "Documents that exceeded the slow-log threshold.",
        "",
        gauges.slow_documents,
        "counter",
    );
    metric(
        &mut out,
        "rsq_postmortems_total",
        "Postmortem artifacts written by the flight recorder.",
        "",
        gauges.postmortems,
        "counter",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_merges_only_live_ticks() {
        let mut ring = WindowRing::new();
        for tick in 0..5u64 {
            ring.record(tick, 1000, 100, false, 500, Some(crate::Route::FieldChain));
            ring.record(tick, 3000, 100, tick == 4, 500, None);
        }
        let last3 = ring.window(4, 3);
        assert_eq!(last3.docs, 6, "ticks 2..=4, two docs each");
        assert_eq!(last3.bytes, 600);
        assert_eq!(last3.errors, 1);
        assert_eq!(last3.latency.count(), 6);
        let all = ring.window(4, 60);
        assert_eq!(all.docs, 10);
    }

    #[test]
    fn stale_slots_are_recycled_not_double_counted() {
        let mut ring = WindowRing::new();
        ring.record(3, 1000, 10, false, 0, None);
        // SLOTS ticks later the same physical slot is reused; the old
        // second's data must vanish.
        let later = 3 + SLOTS as u64;
        ring.record(later, 2000, 20, false, 0, None);
        let snap = ring.window(later, 10);
        assert_eq!(snap.docs, 1);
        assert_eq!(snap.bytes, 20);
        assert_eq!(snap.latency.max(), 2000);
        // And the stale tick no longer answers for its old window.
        assert_eq!(ring.window(5, 3).docs, 0);
    }

    #[test]
    fn quiet_ring_reports_zero_rates() {
        let mut ring = WindowRing::new();
        ring.record(1, 1000, 50, false, 0, None);
        // 120 seconds later nothing recent is live.
        let snap = ring.window(121, 10);
        assert_eq!(snap.docs, 0);
        assert!((snap.docs_per_sec() - 0.0).abs() < f64::EPSILON);
        assert_eq!(snap.latency.count(), 0);
    }

    #[test]
    fn rates_and_busy_fraction() {
        let mut ring = WindowRing::new();
        for tick in 0..10u64 {
            for _ in 0..5 {
                ring.record(tick, 1_000_000, 200, false, 100_000_000, None);
            }
        }
        let snap = ring.window(9, 10);
        assert!((snap.docs_per_sec() - 5.0).abs() < 1e-9);
        assert!((snap.bytes_per_sec() - 1000.0).abs() < 1e-9);
        // 5 docs/sec × 0.1s busy each = 0.5 worker-seconds/sec; over 1
        // worker that is 50% busy.
        assert!((snap.busy_fraction(1) - 0.5).abs() < 1e-9);
        assert!((snap.busy_fraction(2) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn snapshot_json_has_stable_keys() {
        let mut ring = WindowRing::new();
        ring.record(0, 500, 64, true, 100, Some(crate::Route::General));
        let json = ring.window(0, 10).to_json();
        for key in [
            "\"secs\":10",
            "\"docs\":1",
            "\"bytes\":64",
            "\"errors\":1",
            "\"docs_per_sec\":",
            "\"bytes_per_sec\":",
            "\"busy_ns\":100",
            "\"latency\":{",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn telemetry_exposition_is_well_formed() {
        let mut ring = WindowRing::new();
        ring.record(0, 500, 64, false, 100, Some(crate::Route::Selective));
        let w10 = ring.window(0, 10);
        let w60 = ring.window(0, 60);
        let gauges = TelemetryGauges {
            queue_depth: 2,
            in_flight: 3,
            workers: 4,
            slow_documents: 1,
            postmortems: 0,
        };
        let text = prometheus_telemetry(&[&w10, &w60], &gauges);
        crate::expo::check(&text).expect("exposition passes the lint");
        assert!(text.contains("rsq_window_latency_ns{window=\"10s\",quantile=\"0.99\"}"));
        assert!(text.contains("rsq_window_docs_per_sec{window=\"60s\"}"));
        assert!(
            text.contains("rsq_window_route_docs{window=\"10s\",route=\"selective\"} 1"),
            "{text}"
        );
        assert!(text.contains("rsq_queue_depth 2"));
        assert!(text.contains("rsq_in_flight 3"));
        assert_eq!(
            text.matches("# TYPE rsq_window_latency_ns gauge").count(),
            1,
            "header once across both windows"
        );
    }
}
