//! Tier C: the profiling recorder — byte-span accounting, stage timers,
//! and report rendering.
//!
//! [`ProfileStats`] wraps a [`RunStats`] and additionally consumes the
//! byte-span and timing hooks of the [`Recorder`] trait: every skip
//! reports the byte range it elided (accumulated into [`SkipBytes`] and
//! an optional [`SkipMap`]), and the engine brackets its pipeline stages
//! with [`Recorder::clock`] / [`Recorder::stage_ns`] pairs (accumulated
//! into [`StageTimes`]).
//!
//! Like Tiers A and B this is pay-for-what-you-use: the hooks have empty
//! `#[inline]` defaults, `NoStats` overrides none of them, and
//! `RunStats` overrides only the counter hooks — so both the
//! uninstrumented path and the `--stats` path monomorphize to code with
//! no clock reads at all. Only a run driven by `ProfileStats` (the CLI's
//! `--profile` flag) reads the monotonic clock.
//!
//! Stage semantics (the classifier and automaton are *fused* in this
//! engine, so the stages overlap rather than partition wall-clock):
//!
//! * `validate` — strict pre-validation pass (disjoint);
//! * `automaton` — the whole matching pass, classification included;
//! * `classify` — the portion of `automaton` spent inside dedicated
//!   classifier fast-forwards (depth skips, label seeks, `memmem`
//!   searches);
//! * `ingest` / `sink` — input acquisition and output writing, recorded
//!   by the CLI driver (disjoint).

use crate::hist::Histogram;
use crate::skipmap::{SkipMap, SkipTechnique};
use crate::stats::{ClassifierCounters, Recorder, RunStats};
use std::fmt;
use std::fmt::Write as _;
use std::ops::{Add, AddAssign};
use std::time::Instant;

/// Version of the machine-readable stats/report JSON schema emitted by
/// the CLI (`--stats-json`) and `experiments --json`. Bumped when fields
/// change meaning or required fields are added; consumers such as
/// `xtask bench-diff` reject reports with a different version.
///
/// Version 3 added the `route` field to [`RunStats`] (the query-shape
/// route chosen at compile time, DESIGN.md §15). Version 4 added the
/// hardware-counter layer (DESIGN.md §16): an optional `perf` object
/// (cycles/instructions per byte, per-stage attribution — absent when
/// counters are unavailable), per-route document counters in serve
/// reports, and `start_ns`/`worker`/`route` on pipeline span records.
pub const STATS_SCHEMA_VERSION: u64 = 4;

/// A pipeline stage bracketed by [`Recorder::clock`] /
/// [`Recorder::stage_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileStage {
    /// Input acquisition (CLI driver).
    Ingest,
    /// Strict pre-validation.
    Validate,
    /// Dedicated classifier fast-forwards (subset of `Automaton`).
    Classify,
    /// The whole matching pass (classification fused in).
    Automaton,
    /// Output writing (CLI driver).
    Sink,
}

impl ProfileStage {
    /// All stages, in display order.
    pub const ALL: [ProfileStage; 5] = [
        ProfileStage::Ingest,
        ProfileStage::Validate,
        ProfileStage::Classify,
        ProfileStage::Automaton,
        ProfileStage::Sink,
    ];

    /// Stable lowercase name (JSON key / metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfileStage::Ingest => "ingest",
            ProfileStage::Validate => "validate",
            ProfileStage::Classify => "classify",
            ProfileStage::Automaton => "automaton",
            ProfileStage::Sink => "sink",
        }
    }

    /// Dense index of this stage in per-stage arrays (`< ALL.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ProfileStage::Ingest => 0,
            ProfileStage::Validate => 1,
            ProfileStage::Classify => 2,
            ProfileStage::Automaton => 3,
            ProfileStage::Sink => 4,
        }
    }
}

impl fmt::Display for ProfileStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Nanoseconds accumulated per pipeline stage. Merging is a saturating
/// element-wise add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    ns: [u64; 5],
}

impl StageTimes {
    /// Adds `ns` nanoseconds to `stage`.
    #[inline]
    pub fn add_ns(&mut self, stage: ProfileStage, ns: u64) {
        // PANIC-OK: ProfileStage::index is < the per-stage array length (one slot per stage)
        let slot = &mut self.ns[stage.index()];
        *slot = slot.saturating_add(ns);
    }

    /// Nanoseconds accumulated in `stage`.
    #[must_use]
    pub fn get(&self, stage: ProfileStage) -> u64 {
        // PANIC-OK: ProfileStage::index is < the per-stage array length (one slot per stage)
        self.ns[stage.index()]
    }

    /// Serializes as a single-line JSON object keyed by stage name.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        for (i, stage) in ProfileStage::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}_ns\":{}", stage.name(), self.get(*stage));
        }
        s.push('}');
        s
    }
}

impl AddAssign for StageTimes {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.ns.iter_mut().zip(rhs.ns.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

impl Add for StageTimes {
    type Output = StageTimes;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// Bytes elided per skipping technique. Merging is a saturating add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipBytes {
    /// Bytes crossed without event delivery while leaf skipping had
    /// commas/colons toggled off.
    pub leaf: u64,
    /// Bytes fast-forwarded over by child skips (subtree spans).
    pub child: u64,
    /// Bytes fast-forwarded over by sibling skips.
    pub sibling: u64,
    /// Bytes absorbed by §4.5 label seeks.
    pub label: u64,
    /// Bytes between head-start sub-runs never structurally classified.
    pub memmem: u64,
    /// Bytes after a fast-path route exhaustion, never classified
    /// (DESIGN.md §15).
    pub exit: u64,
}

impl SkipBytes {
    /// Bytes for one technique.
    #[must_use]
    pub fn get(&self, technique: SkipTechnique) -> u64 {
        match technique {
            SkipTechnique::Leaf => self.leaf,
            SkipTechnique::Child => self.child,
            SkipTechnique::Sibling => self.sibling,
            SkipTechnique::Label => self.label,
            SkipTechnique::Memmem => self.memmem,
            SkipTechnique::Exit => self.exit,
        }
    }

    /// Total bytes elided across all techniques.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.leaf
            .saturating_add(self.child)
            .saturating_add(self.sibling)
            .saturating_add(self.label)
            .saturating_add(self.memmem)
            .saturating_add(self.exit)
    }

    /// Serializes as a single-line JSON object keyed by technique name,
    /// plus `total`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        for t in SkipTechnique::ALL {
            let _ = write!(s, "\"{}\":{},", t.name(), self.get(t));
        }
        let _ = write!(s, "\"total\":{}}}", self.total());
        s
    }
}

impl AddAssign for SkipBytes {
    fn add_assign(&mut self, rhs: Self) {
        self.leaf = self.leaf.saturating_add(rhs.leaf);
        self.child = self.child.saturating_add(rhs.child);
        self.sibling = self.sibling.saturating_add(rhs.sibling);
        self.label = self.label.saturating_add(rhs.label);
        self.memmem = self.memmem.saturating_add(rhs.memmem);
        self.exit = self.exit.saturating_add(rhs.exit);
    }
}

impl Add for SkipBytes {
    type Output = SkipBytes;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// The Tier C profiling recorder: Tier A counters plus byte-span
/// accounting, stage timers, and an optional skip map.
#[derive(Clone, Debug, Default)]
pub struct ProfileStats {
    /// The Tier A counters of the run.
    pub stats: RunStats,
    /// Bytes elided per technique.
    pub bytes_skipped: SkipBytes,
    /// Wall-clock per pipeline stage.
    pub stages: StageTimes,
    /// Optional document skip map (built by [`ProfileStats::for_document`]).
    pub map: Option<SkipMap>,
    /// Monotonic clock epoch, established lazily on first
    /// [`Recorder::clock`] call.
    epoch: Option<Instant>,
}

impl ProfileStats {
    /// An empty profile with no skip map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A profile for one `doc_bytes`-long document, with the byte count
    /// pre-seeded and a bounded-resolution skip map attached.
    #[must_use]
    pub fn for_document(doc_bytes: usize) -> Self {
        Self {
            stats: RunStats::for_document(doc_bytes),
            map: Some(SkipMap::new(doc_bytes)),
            ..Self::default()
        }
    }

    /// Nanoseconds since the profile's clock epoch (0 before the first
    /// call establishes the epoch).
    #[inline]
    fn now_ns(&mut self) -> u64 {
        match self.epoch {
            Some(epoch) => u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => {
                self.epoch = Some(Instant::now());
                0
            }
        }
    }

    /// Adds externally measured time (CLI ingest/sink brackets) to a
    /// stage.
    pub fn add_stage_ns(&mut self, stage: ProfileStage, ns: u64) {
        self.stages.add_ns(stage, ns);
    }

    /// Skip rate: elided bytes as a percentage of document bytes (0 when
    /// the document is empty).
    #[must_use]
    pub fn skip_rate_pct(&self) -> f64 {
        if self.stats.bytes == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.bytes_skipped.total() as f64 / self.stats.bytes as f64 * 100.0
            }
        }
    }

    /// Serializes the profile extension (everything beyond the Tier A
    /// stats) as a single-line JSON object: `bytes_skipped`,
    /// `skip_rate_pct`, `stages`, and (when present) `skip_map`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"bytes_skipped\":{},\"skip_rate_pct\":{:.2},\"stages\":{}",
            self.bytes_skipped.to_json(),
            self.skip_rate_pct(),
            self.stages.to_json(),
        );
        if let Some(map) = &self.map {
            let _ = write!(s, ",\"skip_map\":{}", map.to_json());
        }
        s.push('}');
        s
    }
}

impl fmt::Display for ProfileStats {
    /// Human-readable profile table (multi-line), for `--profile`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.stats)?;
        writeln!(
            f,
            "bytes skipped      {} ({:.2}% of input)",
            self.bytes_skipped.total(),
            self.skip_rate_pct()
        )?;
        for t in SkipTechnique::ALL {
            let bytes = self.bytes_skipped.get(t);
            let pct = if self.stats.bytes == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                {
                    bytes as f64 / self.stats.bytes as f64 * 100.0
                }
            };
            writeln!(f, "  {:<16} {bytes} ({pct:.2}%)", t.name())?;
        }
        write!(f, "stage times (ns)  ")?;
        for stage in ProfileStage::ALL {
            write!(f, " {} {}", stage.name(), self.stages.get(stage))?;
        }
        if let Some(map) = &self.map {
            writeln!(f)?;
            write!(
                f,
                "skip map           [{}] ({} B/cell)",
                map.render(64),
                map.granularity()
            )?;
        }
        Ok(())
    }
}

impl Recorder for ProfileStats {
    #[inline]
    fn event(&mut self, pos: usize) {
        self.stats.event(pos);
        if let Some(map) = &mut self.map {
            map.mark_event(pos);
        }
    }

    #[inline]
    fn leaf_skip(&mut self) {
        self.stats.leaf_skip();
    }

    #[inline]
    fn child_skip(&mut self) {
        self.stats.child_skip();
    }

    #[inline]
    fn sibling_skip(&mut self) {
        self.stats.sibling_skip();
    }

    #[inline]
    fn label_seek(&mut self) {
        self.stats.label_seek();
    }

    #[inline]
    fn memmem_jump(&mut self) {
        self.stats.memmem_jump();
    }

    #[inline]
    fn memmem_decline(&mut self) {
        self.stats.memmem_decline();
    }

    #[inline]
    fn route(&mut self, route: crate::Route) {
        self.stats.route(route);
    }

    #[inline]
    fn resume_handoff(&mut self) {
        self.stats.resume_handoff();
    }

    #[inline]
    fn depth(&mut self, depth: u32) {
        self.stats.depth(depth);
    }

    #[inline]
    fn matched(&mut self) {
        self.stats.matched();
    }

    #[inline]
    fn classifier(&mut self, counters: &ClassifierCounters) {
        self.stats.classifier(counters);
    }

    #[inline]
    fn quote_blocks(&mut self, blocks: u64) {
        self.stats.quote_blocks(blocks);
    }

    #[inline]
    fn skip_span(&mut self, technique: SkipTechnique, from: usize, to: usize) {
        if to > from {
            let bytes = (to - from) as u64;
            let slot = match technique {
                SkipTechnique::Leaf => &mut self.bytes_skipped.leaf,
                SkipTechnique::Child => &mut self.bytes_skipped.child,
                SkipTechnique::Sibling => &mut self.bytes_skipped.sibling,
                SkipTechnique::Label => &mut self.bytes_skipped.label,
                SkipTechnique::Memmem => &mut self.bytes_skipped.memmem,
                SkipTechnique::Exit => &mut self.bytes_skipped.exit,
            };
            *slot = slot.saturating_add(bytes);
            if let Some(map) = &mut self.map {
                map.mark_span(technique, from, to);
            }
        }
    }

    #[inline]
    fn clock(&mut self) -> u64 {
        self.now_ns()
    }

    #[inline]
    fn stage_ns(&mut self, stage: ProfileStage, start: u64) {
        let elapsed = self.now_ns().saturating_sub(start);
        self.stages.add_ns(stage, elapsed);
    }
}

/// Per-worker accounting of one batch run. Workers report how long they
/// spent running documents (`busy_ns`) versus waiting on the shared
/// queue (`queue_wait_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Nanoseconds spent executing documents.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked on `WorkQueue::claim`.
    pub queue_wait_ns: u64,
    /// Documents this worker executed.
    pub documents: u64,
    /// Chunks this worker claimed from the queue.
    pub claims: u64,
}

impl WorkerProfile {
    /// Serializes as a single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"busy_ns\":{},\"queue_wait_ns\":{},\"documents\":{},\"claims\":{}}}",
            self.busy_ns, self.queue_wait_ns, self.documents, self.claims
        )
    }
}

/// The merged profile of one batch run: aggregate byte spans and stage
/// times, the per-document latency histogram, and per-worker accounting.
#[derive(Clone, Debug, Default)]
pub struct BatchProfile {
    /// Bytes elided per technique, summed over all documents.
    pub bytes_skipped: SkipBytes,
    /// Stage times summed over all documents.
    pub stages: StageTimes,
    /// Per-document end-to-end run latency (nanoseconds).
    pub latency: Histogram,
    /// One entry per worker, in worker-index order.
    pub workers: Vec<WorkerProfile>,
}

impl BatchProfile {
    /// Serializes as a single-line JSON object: `bytes_skipped`,
    /// `stages`, `latency`, `workers`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"bytes_skipped\":{},\"stages\":{},\"latency\":{},\"workers\":[",
            self.bytes_skipped.to_json(),
            self.stages.to_json(),
            self.latency.to_json(),
        );
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&w.to_json());
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for BatchProfile {
    /// Human-readable batch profile summary (multi-line), for `--profile`
    /// in batch mode.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bytes skipped      {} total (leaf {}, child {}, sibling {}, label {}, memmem {}, exit {})",
            self.bytes_skipped.total(),
            self.bytes_skipped.leaf,
            self.bytes_skipped.child,
            self.bytes_skipped.sibling,
            self.bytes_skipped.label,
            self.bytes_skipped.memmem,
            self.bytes_skipped.exit,
        )?;
        writeln!(
            f,
            "doc latency (ns)   p50 {} p90 {} p99 {} max {} over {} documents",
            self.latency.p50(),
            self.latency.p90(),
            self.latency.p99(),
            self.latency.max(),
            self.latency.count(),
        )?;
        for (i, w) in self.workers.iter().enumerate() {
            writeln!(
                f,
                "worker {i:<11} busy {} ns, queue wait {} ns, {} docs in {} claims",
                w.busy_ns, w.queue_wait_ns, w.documents, w.claims
            )?;
        }
        write!(f, "stage times (ns)  ")?;
        for stage in ProfileStage::ALL {
            write!(f, " {} {}", stage.name(), self.stages.get(stage))?;
        }
        Ok(())
    }
}

/// Renders a run's statistics and profile as Prometheus-style text
/// exposition (counters and gauges, `rsq_` prefix). `batch` adds the
/// batch-level series when present.
#[must_use]
pub fn prometheus(
    stats: &RunStats,
    profile: Option<&ProfileStats>,
    batch: Option<(&crate::BatchCounters, Option<&BatchProfile>)>,
) -> String {
    use crate::expo::metric;
    let mut out = String::with_capacity(2048);
    metric(
        &mut out,
        "rsq_input_bytes_total",
        "Input bytes processed.",
        "",
        stats.bytes,
        "counter",
    );
    for (kind, v) in [
        ("structural", stats.blocks.structural),
        ("depth", stats.blocks.depth),
        ("seek", stats.blocks.seek),
        ("quote", stats.blocks.quote),
    ] {
        metric(
            &mut out,
            "rsq_blocks_classified_total",
            "SIMD blocks classified, by classifier.",
            &format!("classifier=\"{kind}\""),
            v,
            "counter",
        );
    }
    metric(
        &mut out,
        "rsq_events_total",
        "Structural events delivered to the automaton.",
        "",
        stats.events,
        "counter",
    );
    for (t, v) in [
        ("leaf", stats.skips.leaf),
        ("child", stats.skips.child),
        ("sibling", stats.skips.sibling),
        ("label", stats.skips.label),
    ] {
        metric(
            &mut out,
            "rsq_skips_total",
            "Skip decisions taken, by technique.",
            &format!("technique=\"{t}\""),
            v,
            "counter",
        );
    }
    metric(
        &mut out,
        "rsq_memmem_jumps_total",
        "Head-start memmem jumps taken.",
        "",
        stats.memmem_jumps,
        "counter",
    );
    metric(
        &mut out,
        "rsq_memmem_declined_total",
        "Head-start memmem opportunities declined.",
        "",
        stats.memmem_declined,
        "counter",
    );
    metric(
        &mut out,
        "rsq_matches_total",
        "Query matches reported.",
        "",
        stats.matches,
        "counter",
    );
    metric(
        &mut out,
        "rsq_max_depth",
        "Deepest nesting level observed.",
        "",
        stats.max_depth,
        "gauge",
    );
    if let Some(p) = profile {
        for t in SkipTechnique::ALL {
            metric(
                &mut out,
                "rsq_bytes_skipped_total",
                "Bytes elided without event delivery, by technique.",
                &format!("technique=\"{}\"", t.name()),
                p.bytes_skipped.get(t),
                "counter",
            );
        }
        for stage in ProfileStage::ALL {
            metric(
                &mut out,
                "rsq_stage_ns_total",
                "Wall-clock nanoseconds per pipeline stage.",
                &format!("stage=\"{}\"", stage.name()),
                p.stages.get(stage),
                "counter",
            );
        }
    }
    if let Some((counters, batch_profile)) = batch {
        metric(
            &mut out,
            "rsq_batch_documents_total",
            "Documents processed by batch runs.",
            "",
            counters.documents,
            "counter",
        );
        metric(
            &mut out,
            "rsq_batch_failed_documents_total",
            "Documents that ended in a per-document error.",
            "",
            counters.failed_documents,
            "counter",
        );
        metric(
            &mut out,
            "rsq_batch_cache_hits_total",
            "Compiled-query cache hits.",
            "",
            counters.cache_hits,
            "counter",
        );
        metric(
            &mut out,
            "rsq_batch_cache_misses_total",
            "Compiled-query cache misses.",
            "",
            counters.cache_misses,
            "counter",
        );
        metric(
            &mut out,
            "rsq_batch_cache_evictions_total",
            "Compiled-query cache evictions.",
            "",
            counters.cache_evictions,
            "counter",
        );
        if let Some(bp) = batch_profile {
            for (q, v) in [
                ("0.5", bp.latency.p50()),
                ("0.9", bp.latency.p90()),
                ("0.99", bp.latency.p99()),
                ("1.0", bp.latency.max()),
            ] {
                metric(
                    &mut out,
                    "rsq_batch_document_latency_ns",
                    "Per-document latency quantiles (log2-bucket resolution).",
                    &format!("quantile=\"{q}\""),
                    v,
                    "gauge",
                );
            }
            for (i, w) in bp.workers.iter().enumerate() {
                metric(
                    &mut out,
                    "rsq_batch_worker_busy_ns_total",
                    "Nanoseconds each worker spent running documents.",
                    &format!("worker=\"{i}\""),
                    w.busy_ns,
                    "counter",
                );
                metric(
                    &mut out,
                    "rsq_batch_worker_queue_wait_ns_total",
                    "Nanoseconds each worker spent waiting on the queue.",
                    &format!("worker=\"{i}\""),
                    w.queue_wait_ns,
                    "counter",
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_span_accumulates_and_marks_map() {
        let mut p = ProfileStats::for_document(4096);
        p.skip_span(SkipTechnique::Child, 0, 640);
        p.skip_span(SkipTechnique::Child, 1024, 1088);
        assert_eq!(p.bytes_skipped.child, 704);
        assert_eq!(p.bytes_skipped.total(), 704);
        let map = p.map.as_ref().unwrap();
        assert_eq!(map.covered_bytes(SkipTechnique::Child), 704);
    }

    #[test]
    fn empty_span_is_ignored() {
        let mut p = ProfileStats::new();
        p.skip_span(SkipTechnique::Leaf, 100, 100);
        p.skip_span(SkipTechnique::Leaf, 100, 50);
        assert_eq!(p.bytes_skipped.total(), 0);
    }

    #[test]
    fn clock_is_monotone_and_stage_accumulates() {
        let mut p = ProfileStats::new();
        let t0 = p.clock();
        let t1 = p.clock();
        assert!(t1 >= t0);
        p.stage_ns(ProfileStage::Automaton, t0);
        // Elapsed since t0 is nonnegative; a later bracket adds on top.
        let before = p.stages.get(ProfileStage::Automaton);
        let t = p.clock();
        p.stage_ns(ProfileStage::Automaton, t);
        assert!(p.stages.get(ProfileStage::Automaton) >= before);
    }

    #[test]
    fn skip_rate_is_relative_to_bytes() {
        let mut p = ProfileStats::for_document(1000);
        p.skip_span(SkipTechnique::Memmem, 0, 250);
        assert!((p.skip_rate_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn profile_json_has_stable_keys() {
        let p = ProfileStats::for_document(64);
        let json = p.to_json();
        for key in [
            "\"bytes_skipped\":",
            "\"skip_rate_pct\":",
            "\"stages\":",
            "\"skip_map\":",
            "\"automaton_ns\":",
            "\"total\":",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn prometheus_exposition_has_types_and_series() {
        let mut p = ProfileStats::for_document(64);
        p.skip_span(SkipTechnique::Sibling, 0, 64);
        let text = prometheus(&p.stats, Some(&p), None);
        assert!(text.contains("# TYPE rsq_bytes_skipped_total counter"));
        assert!(text.contains("rsq_bytes_skipped_total{technique=\"sibling\"} 64"));
        assert!(text.contains("rsq_stage_ns_total{stage=\"automaton\"}"));
        // Each TYPE line appears exactly once.
        assert_eq!(text.matches("# TYPE rsq_skips_total counter").count(), 1);
    }

    #[test]
    fn prometheus_exposition_passes_the_expo_lint() {
        let mut p = ProfileStats::for_document(64);
        p.skip_span(SkipTechnique::Child, 0, 32);
        let counters = crate::BatchCounters {
            documents: 3,
            ..crate::BatchCounters::default()
        };
        let bp = BatchProfile {
            workers: vec![WorkerProfile::default()],
            ..BatchProfile::default()
        };
        let text = prometheus(&p.stats, Some(&p), Some((&counters, Some(&bp))));
        crate::expo::check(&text).expect("every series has HELP/TYPE and a snake_case name");
        assert!(text.contains("# HELP rsq_input_bytes_total "));
    }

    #[test]
    fn batch_profile_json_lists_workers() {
        let bp = BatchProfile {
            workers: vec![WorkerProfile::default(), WorkerProfile::default()],
            ..BatchProfile::default()
        };
        let json = bp.to_json();
        assert!(json.contains("\"workers\":[{"), "{json}");
        assert_eq!(json.matches("\"busy_ns\":").count(), 2, "{json}");
    }
}
