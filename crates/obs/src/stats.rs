//! Tier A: always-on run statistics.
//!
//! [`RunStats`] is the machine-readable report of one engine run; the
//! [`Recorder`] trait is the hot-path interface the engine's inner loops
//! are generic over. [`NoStats`] (the default recorder) has empty
//! `#[inline]` methods, so the unobserved path compiles to exactly the
//! code it would be without instrumentation; [`RunStats`] implements the
//! same trait with saturating `u64` increments.

use std::fmt;
use std::fmt::Write as _;
use std::ops::{Add, AddAssign};

#[inline]
fn bump(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

/// Block counters maintained by `rsq-classify`: every 64-byte block pulled
/// through the shared quote-classifying cursor, attributed to the
/// classifier that pulled it (§4's multi-classifier pipeline).
///
/// The counters are plain `u64` adds at block rate (one per 64 input
/// bytes), cheap enough to keep always on; the engine folds them into a
/// [`RunStats`] once per run via [`Recorder::classifier`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassifierCounters {
    /// Blocks consumed by the structural classifier (the ordinary event
    /// loop).
    pub blocks_structural: u64,
    /// Blocks consumed by the depth classifier during child/sibling
    /// fast-forwards.
    pub blocks_depth: u64,
    /// Blocks consumed by the label-seek classifier.
    pub blocks_seek: u64,
    /// Blocks quote-classified only (resume catch-up over already-skipped
    /// regions).
    pub blocks_quote: u64,
    /// Structural-table reconfigurations (comma/colon toggle flips that
    /// actually changed the tables and reclassified the current block).
    pub toggle_flips: u64,
}

/// Blocks classified per classifier kind, as reported in [`RunStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Structural classifier (the ordinary event loop).
    pub structural: u64,
    /// Depth classifier (child/sibling fast-forwards).
    pub depth: u64,
    /// Label-seek classifier (§4.5 extension).
    pub seek: u64,
    /// Quote classifier alone (head-start candidate validation and resume
    /// catch-up).
    pub quote: u64,
}

impl BlockStats {
    /// Total blocks classified across all classifier kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.structural
            .saturating_add(self.depth)
            .saturating_add(self.seek)
            .saturating_add(self.quote)
    }
}

/// The query-shape route the engine chose for a run: which driver
/// executed the query (see DESIGN.md §15).
///
/// Routes are decided at compile time from the automaton's shape; the
/// stats report carries the decision so fast-path work (and fallbacks)
/// are visible in Tier A. This enum lives in `rsq-obs` (dependency-free)
/// so both `rsq-query` (the analyzer) and the stats plumbing can share
/// it without cycles — and so future multi-query/sharding layers route
/// through the same stable seam.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Route {
    /// Descendant-free label chain (optional interior/trailing
    /// wildcards): driven by the memmem-led fast path.
    FieldChain,
    /// A rare anchor label exists: memmem jumps to its occurrences and
    /// validates locally.
    Selective,
    /// Everything else: the general block-classifying main loop.
    #[default]
    General,
}

impl Route {
    /// All routes, in display order (the label order of
    /// `rsq_route_docs_total`).
    pub const ALL: [Route; 3] = [Route::FieldChain, Route::Selective, Route::General];

    /// Dense index of this route in per-route arrays (`< ALL.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Route::FieldChain => 0,
            Route::Selective => 1,
            Route::General => 2,
        }
    }

    /// Stable machine-readable name, as emitted in `--stats-json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Route::FieldChain => "field_chain",
            Route::Selective => "selective",
            Route::General => "general",
        }
    }

    /// Parses a stable route name (the inverse of [`Route::as_str`]).
    #[must_use]
    pub fn from_str_opt(name: &str) -> Option<Self> {
        match name {
            "field_chain" => Some(Route::FieldChain),
            "selective" => Some(Route::Selective),
            "general" => Some(Route::General),
            _ => None,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Skip events by technique (§3.3 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Leaf-skip decisions: container entries where comma/colon
    /// classification was toggled off because atomic members cannot match.
    pub leaf: u64,
    /// Child skips: subtrees fast-forwarded over on a rejecting
    /// transition.
    pub child: u64,
    /// Sibling skips: fast-forwards to the enclosing object's end after a
    /// unitary label matched.
    pub sibling: u64,
    /// Label seeks: in-element skip-to-label engagements (§4.5).
    pub label: u64,
}

/// Statistics of one engine run — a struct of plain `u64` counters,
/// filled in by passing one (seeded with [`RunStats::for_document`]) to
/// `Engine::try_run_with_recorder`.
///
/// Counters saturate instead of wrapping, so accumulation can never panic
/// (even under `-C overflow-checks=on`) and merged totals are monotone.
/// Stats from multiple runs (e.g. chunked documents, per-shard runs) can
/// be merged with `+`/`+=`: counters add, [`max_depth`](Self::max_depth)
/// takes the maximum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// The query-shape route the engine executed (merged reports keep
    /// the first non-[`Route::General`] route seen).
    pub route: Route,
    /// Input bytes processed (document length).
    pub bytes: u64,
    /// 64-byte blocks classified, by classifier kind.
    pub blocks: BlockStats,
    /// Structural events consumed by the automaton loop.
    pub events: u64,
    /// Structural-table reconfigurations (comma/colon toggle flips).
    pub toggle_flips: u64,
    /// Skip events by technique.
    pub skips: SkipStats,
    /// `memmem` head-start jumps taken (candidate accepted and processed).
    pub memmem_jumps: u64,
    /// `memmem` head-start candidates declined (in-string lookalike, no
    /// following colon, or malformed construct).
    pub memmem_declined: u64,
    /// Classifier resume-state handoffs (§4.5): sub-runs resumed
    /// mid-document with a threaded quote state.
    pub resume_handoffs: u64,
    /// Maximum nesting depth reached by the automaton loop (relative to
    /// the element root for head-start sub-runs).
    pub max_depth: u64,
    /// Matches delivered to the sink.
    pub matches: u64,
}

impl RunStats {
    /// A zeroed report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A report for one `doc_bytes`-long document, with the byte count
    /// pre-seeded (the engine's recorder hooks never count input bytes).
    #[must_use]
    pub fn for_document(doc_bytes: usize) -> Self {
        Self {
            bytes: doc_bytes as u64,
            ..Self::default()
        }
    }

    /// Serializes the report as single-line JSON (no trailing newline).
    ///
    /// Keys are stable: `route`, `bytes`, `blocks_classified{structural,
    /// depth, seek, quote, total}`, `events`, `toggle_flips`, `skips{leaf,
    /// child, sibling, label}`, `memmem_jumps`, `memmem_declined`,
    /// `resume_handoffs`, `max_depth`, `matches`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"route\":\"{}\",\"bytes\":{},\"blocks_classified\":{{\"structural\":{},\"depth\":{},\"seek\":{},\"quote\":{},\"total\":{}}},\"events\":{},\"toggle_flips\":{},\"skips\":{{\"leaf\":{},\"child\":{},\"sibling\":{},\"label\":{}}},\"memmem_jumps\":{},\"memmem_declined\":{},\"resume_handoffs\":{},\"max_depth\":{},\"matches\":{}}}",
            self.route,
            self.bytes,
            self.blocks.structural,
            self.blocks.depth,
            self.blocks.seek,
            self.blocks.quote,
            self.blocks.total(),
            self.events,
            self.toggle_flips,
            self.skips.leaf,
            self.skips.child,
            self.skips.sibling,
            self.skips.label,
            self.memmem_jumps,
            self.memmem_declined,
            self.resume_handoffs,
            self.max_depth,
            self.matches,
        );
        s
    }
}

impl fmt::Display for RunStats {
    /// Human-readable table (multi-line), for `--stats` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "route              {}", self.route)?;
        writeln!(f, "bytes              {}", self.bytes)?;
        writeln!(
            f,
            "blocks classified  {} (structural {}, depth {}, seek {}, quote {})",
            self.blocks.total(),
            self.blocks.structural,
            self.blocks.depth,
            self.blocks.seek,
            self.blocks.quote
        )?;
        writeln!(f, "structural events  {}", self.events)?;
        writeln!(f, "toggle flips       {}", self.toggle_flips)?;
        writeln!(
            f,
            "skips              leaf {}, child {}, sibling {}, label {}",
            self.skips.leaf, self.skips.child, self.skips.sibling, self.skips.label
        )?;
        writeln!(
            f,
            "memmem jumps       {} taken, {} declined",
            self.memmem_jumps, self.memmem_declined
        )?;
        writeln!(f, "resume handoffs    {}", self.resume_handoffs)?;
        writeln!(f, "max depth          {}", self.max_depth)?;
        write!(f, "matches            {}", self.matches)
    }
}

impl AddAssign for RunStats {
    fn add_assign(&mut self, rhs: Self) {
        // Merged runs share one engine, so routes agree; the rule below
        // only matters when folding into a default-initialized
        // accumulator, which must not mask a fast-path route.
        if self.route == Route::General {
            self.route = rhs.route;
        }
        self.bytes = self.bytes.saturating_add(rhs.bytes);
        self.blocks.structural = self.blocks.structural.saturating_add(rhs.blocks.structural);
        self.blocks.depth = self.blocks.depth.saturating_add(rhs.blocks.depth);
        self.blocks.seek = self.blocks.seek.saturating_add(rhs.blocks.seek);
        self.blocks.quote = self.blocks.quote.saturating_add(rhs.blocks.quote);
        self.events = self.events.saturating_add(rhs.events);
        self.toggle_flips = self.toggle_flips.saturating_add(rhs.toggle_flips);
        self.skips.leaf = self.skips.leaf.saturating_add(rhs.skips.leaf);
        self.skips.child = self.skips.child.saturating_add(rhs.skips.child);
        self.skips.sibling = self.skips.sibling.saturating_add(rhs.skips.sibling);
        self.skips.label = self.skips.label.saturating_add(rhs.skips.label);
        self.memmem_jumps = self.memmem_jumps.saturating_add(rhs.memmem_jumps);
        self.memmem_declined = self.memmem_declined.saturating_add(rhs.memmem_declined);
        self.resume_handoffs = self.resume_handoffs.saturating_add(rhs.resume_handoffs);
        self.max_depth = self.max_depth.max(rhs.max_depth);
        self.matches = self.matches.saturating_add(rhs.matches);
    }
}

impl Add for RunStats {
    type Output = RunStats;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// The hot-path recording interface the engine's inner loops are generic
/// over.
///
/// Every method has an empty `#[inline]` default, so a recorder only
/// overrides what it cares about, and the no-op recorder ([`NoStats`])
/// monomorphizes to nothing at all.
pub trait Recorder {
    /// One structural event consumed by the automaton loop, at byte
    /// position `pos`.
    #[inline]
    fn event(&mut self, pos: usize) {
        let _ = pos;
    }

    /// One leaf-skip toggle decision (commas/colons disabled for the
    /// current container).
    #[inline]
    fn leaf_skip(&mut self) {}

    /// One child skip (subtree fast-forwarded on a rejecting transition).
    #[inline]
    fn child_skip(&mut self) {}

    /// One sibling skip (fast-forward to the enclosing object's end).
    #[inline]
    fn sibling_skip(&mut self) {}

    /// One label-seek engagement (§4.5 in-element skip-to-label).
    #[inline]
    fn label_seek(&mut self) {}

    /// One `memmem` head-start jump taken.
    #[inline]
    fn memmem_jump(&mut self) {}

    /// One `memmem` head-start candidate declined.
    #[inline]
    fn memmem_decline(&mut self) {}

    /// The engine committed to an evaluation route for this run (called
    /// at most once per run, at dispatch; runs that never call it report
    /// the default [`Route::General`]).
    #[inline]
    fn route(&mut self, route: Route) {
        let _ = route;
    }

    /// One classifier resume-state handoff.
    #[inline]
    fn resume_handoff(&mut self) {}

    /// The automaton loop reached nesting depth `depth`.
    #[inline]
    fn depth(&mut self, depth: u32) {
        let _ = depth;
    }

    /// One match delivered to the sink.
    #[inline]
    fn matched(&mut self) {}

    /// Folds a structural iterator's block counters into the report
    /// (called once per iterator, after its run).
    #[inline]
    fn classifier(&mut self, counters: &ClassifierCounters) {
        let _ = counters;
    }

    /// Folds `blocks` quote-classifier-only blocks into the report.
    #[inline]
    fn quote_blocks(&mut self, blocks: u64) {
        let _ = blocks;
    }

    /// Tier C: a skip fast-forward elided the byte range `[from, to)`
    /// for `technique` (no structural events were delivered from it).
    #[inline]
    fn skip_span(&mut self, technique: crate::SkipTechnique, from: usize, to: usize) {
        let _ = (technique, from, to);
    }

    /// Tier C: reads the recorder's monotonic clock, in nanoseconds.
    ///
    /// Non-profiling recorders return 0 without touching a clock, so
    /// the surrounding timing brackets fold away entirely.
    #[inline]
    fn clock(&mut self) -> u64 {
        0
    }

    /// Tier C: closes a timing bracket opened at `start` (a value
    /// previously returned by [`Recorder::clock`]), attributing the
    /// elapsed time to `stage`.
    #[inline]
    fn stage_ns(&mut self, stage: crate::ProfileStage, start: u64) {
        let _ = (stage, start);
    }
}

/// The no-op recorder: all methods are empty and inline away. Running the
/// engine with `NoStats` produces the same machine code as a build
/// without instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoStats;

impl Recorder for NoStats {}

impl Recorder for RunStats {
    #[inline]
    fn event(&mut self, _pos: usize) {
        bump(&mut self.events);
    }

    #[inline]
    fn leaf_skip(&mut self) {
        bump(&mut self.skips.leaf);
    }

    #[inline]
    fn child_skip(&mut self) {
        bump(&mut self.skips.child);
    }

    #[inline]
    fn sibling_skip(&mut self) {
        bump(&mut self.skips.sibling);
    }

    #[inline]
    fn label_seek(&mut self) {
        bump(&mut self.skips.label);
    }

    #[inline]
    fn memmem_jump(&mut self) {
        bump(&mut self.memmem_jumps);
    }

    #[inline]
    fn memmem_decline(&mut self) {
        bump(&mut self.memmem_declined);
    }

    #[inline]
    fn route(&mut self, route: Route) {
        self.route = route;
    }

    #[inline]
    fn resume_handoff(&mut self) {
        bump(&mut self.resume_handoffs);
    }

    #[inline]
    fn depth(&mut self, depth: u32) {
        self.max_depth = self.max_depth.max(u64::from(depth));
    }

    #[inline]
    fn matched(&mut self) {
        bump(&mut self.matches);
    }

    #[inline]
    fn classifier(&mut self, counters: &ClassifierCounters) {
        self.blocks.structural = self
            .blocks
            .structural
            .saturating_add(counters.blocks_structural);
        self.blocks.depth = self.blocks.depth.saturating_add(counters.blocks_depth);
        self.blocks.seek = self.blocks.seek.saturating_add(counters.blocks_seek);
        self.blocks.quote = self.blocks.quote.saturating_add(counters.blocks_quote);
        self.toggle_flips = self.toggle_flips.saturating_add(counters.toggle_flips);
    }

    #[inline]
    fn quote_blocks(&mut self, blocks: u64) {
        self.blocks.quote = self.blocks.quote.saturating_add(blocks);
    }
}
