//! Sharded multi-document batch execution for the rsq engine.
//!
//! The single-document engine ([`rsq_engine::Engine`]) answers one query
//! over one buffer at peak per-byte throughput; this crate scales that
//! to *corpora* — a slice of in-memory documents, an NDJSON buffer (one
//! JSON document per line), or a directory of files — while preserving
//! the property the rest of the workspace is built on: **the output is
//! byte-identical to a sequential loop**, no matter how many threads
//! run.
//!
//! Three pieces, all dependency-free std:
//!
//! * a compiled-query LRU cache ([`QueryCache`]) keyed by normalized
//!   query text, so a working set of queries compiles once, not once
//!   per document;
//! * an atomic chunk-claiming work queue (one `fetch_add` per claim)
//!   feeding a fixed pool of [`std::thread::scope`] workers, each with
//!   its own reusable [`Scratch`](rsq_engine::Scratch) so steady-state
//!   workers allocate nothing per document beyond the output they keep;
//! * a deterministic merge: workers tag every result with its document
//!   index, the merge orders by index, and [`RunStats`] merge with the
//!   existing commutative `+` — so per-document outputs *and* aggregate
//!   statistics are independent of scheduling.
//!
//! Per-document failures (limit trips, strict-mode rejections) are
//! *reported*, not fatal: the batch completes and each document's slot
//! holds either its output or its [`DocError`].
//!
//! # Example
//!
//! ```
//! use rsq_batch::{BatchEngine, BatchOptions};
//!
//! let engine = BatchEngine::new(BatchOptions::default());
//! let docs: Vec<&[u8]> = vec![br#"{"a": 1}"#, br#"{"b": {"a": 2}}"#];
//! let result = engine.run_slices("$..a", &docs).unwrap();
//! assert_eq!(result.outcomes.len(), 2);
//! assert_eq!(result.outcomes[0].as_ref().unwrap().count, 1);
//! assert_eq!(result.counters.documents, 2);
//! ```

mod cache;
mod ndjson;
mod queue;

pub use cache::QueryCache;
pub use ndjson::{split_ndjson, Frame, NdjsonFramer, QuoteScan};

use queue::WorkQueue;
use rsq_engine::{Engine, EngineError, EngineOptions, LimitKind, ProfileStats, RunError, Scratch};
use rsq_obs::{
    BatchCounters, BatchProfile, DocSpan, Histogram, RunStats, SpanRecord, Stopwatch, WorkerProfile,
};
use rsq_perf::{CounterSet, PerfMode, PerfStats};
use std::fs;
use std::io;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Configuration for a [`BatchEngine`].
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads. `0` means auto: one per available CPU.
    pub threads: usize,
    /// Documents per work-queue claim. `0` means auto: scaled from the
    /// corpus size and thread count (roughly four claims per worker,
    /// capped at 32).
    pub chunk_docs: usize,
    /// Engine options applied to every compiled query. Fixed per
    /// `BatchEngine`, which keeps them out of the cache key.
    pub engine: EngineOptions,
    /// Compiled-query cache capacity (distinct resident queries).
    pub cache_capacity: usize,
    /// Gather per-run [`RunStats`] and merge them into
    /// [`BatchResult::stats`]. Off by default: the counting run costs a
    /// few percent of throughput.
    pub collect_stats: bool,
    /// Gather the Tier C batch profile — per-technique `bytes_skipped`,
    /// stage times, a per-document latency histogram, and per-worker
    /// busy/queue-wait accounting — into [`BatchResult::profile`].
    /// Implies stats collection (the profile recorder carries the Tier A
    /// counters). Off by default: the profiled run reads the monotonic
    /// clock around every fast-forward and document.
    pub profile: bool,
    /// Hardware-counter mode: with anything but [`PerfMode::Off`], each
    /// worker arms a per-thread counter group and brackets every
    /// document run, accumulating into [`BatchResult::perf`]. Denied
    /// hosts degrade to no report with zero behavior change.
    pub perf: PerfMode,
    /// Collect a per-document pipeline [`SpanRecord`] (worker, route,
    /// epoch offset, run time) into [`BatchResult::spans`] for
    /// timeline-trace export. Off by default: the plain path keeps its
    /// no-clock-reads guarantee.
    pub collect_spans: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            chunk_docs: 0,
            engine: EngineOptions::default(),
            cache_capacity: 32,
            collect_stats: false,
            profile: false,
            perf: PerfMode::Off,
            collect_spans: false,
        }
    }
}

/// Output for one successfully processed document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DocOutput {
    /// Number of matches.
    pub count: u64,
    /// Byte offset of each match, in document order.
    pub positions: Vec<usize>,
}

/// Failure class of a [`DocError`] — the batch-side mirror of
/// [`RunError`], minus the live `io::Error` payload so outcomes stay
/// clonable and comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocErrorKind {
    /// The document could not be read (directory mode only).
    Io,
    /// A resource limit from [`EngineOptions`] tripped.
    Limit(LimitKind),
    /// Strict-mode structural validation rejected the document.
    Malformed,
    /// The per-document deadline passed before the work finished
    /// (serve mode's watchdog; see [`RunError::DeadlineExceeded`]).
    Timeout,
    /// The worker processing this document panicked. The panic was
    /// contained at the worker boundary; only this document failed.
    Panic,
}

impl DocErrorKind {
    /// Stable machine-readable code for this failure class, used in the
    /// serve protocol's per-document error lines and in metrics labels.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            DocErrorKind::Io => "io",
            DocErrorKind::Limit(LimitKind::Depth) => "limit:depth",
            DocErrorKind::Limit(LimitKind::DocumentBytes) => "limit:document-bytes",
            DocErrorKind::Limit(LimitKind::LabelBytes) => "limit:label-bytes",
            DocErrorKind::Limit(LimitKind::Matches) => "limit:matches",
            DocErrorKind::Malformed => "malformed",
            DocErrorKind::Timeout => "timeout",
            DocErrorKind::Panic => "panic",
        }
    }
}

/// A per-document failure. Never fatal to the batch: the remaining
/// documents still run, and this slot records what went wrong here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocError {
    /// Failure class.
    pub kind: DocErrorKind,
    /// Rendered error message (the underlying [`RunError`]'s `Display`).
    pub message: String,
}

impl DocError {
    /// Maps an engine [`RunError`] onto its batch-side mirror, rendering
    /// the message eagerly so the outcome stays clonable.
    #[must_use]
    pub fn from_run(err: &RunError) -> Self {
        let kind = match err {
            RunError::Io(_) => DocErrorKind::Io,
            RunError::LimitExceeded { kind, .. } => DocErrorKind::Limit(*kind),
            RunError::Malformed(_) => DocErrorKind::Malformed,
            RunError::DeadlineExceeded => DocErrorKind::Timeout,
        };
        DocError {
            kind,
            message: err.to_string(),
        }
    }

    /// This failure's stable machine-readable code (see
    /// [`DocErrorKind::code`]).
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DocError {}

/// The result of one batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// One outcome per input document, **in input order** regardless of
    /// which shard processed it.
    pub outcomes: Vec<Result<DocOutput, DocError>>,
    /// Merged [`RunStats`] across all successful documents (all zeros
    /// unless [`BatchOptions::collect_stats`] is set).
    pub stats: RunStats,
    /// Batch-layer counters: documents, shards, queue claims, cache
    /// hits/misses/evictions.
    pub counters: BatchCounters,
    /// Merged Tier C batch profile (`None` unless
    /// [`BatchOptions::profile`] is set). Histograms and byte counters
    /// merge with saturating element-wise adds, so the merged values are
    /// independent of how documents were sharded; `workers` is ordered by
    /// worker index. Partial work from failed documents stays in the
    /// aggregate.
    pub profile: Option<BatchProfile>,
    /// Hardware-counter totals across all workers (`None` unless
    /// [`BatchOptions::perf`] armed counters the kernel granted).
    pub perf: Option<PerfStats>,
    /// Per-document pipeline spans ordered by document index (empty
    /// unless [`BatchOptions::collect_spans`] is set).
    pub spans: Vec<SpanRecord>,
}

impl BatchResult {
    /// Total matches across all successful documents.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .fold(0u64, |acc, o| acc.saturating_add(o.count))
    }
}

/// A multi-document batch executor: compiled-query cache + worker pool.
///
/// One `BatchEngine` owns one [`QueryCache`] and one fixed
/// [`BatchOptions`] configuration; it is cheap to keep alive across
/// many batches so the cache pays off. See the [crate
/// documentation](crate) for the determinism guarantees.
#[derive(Debug)]
pub struct BatchEngine {
    cache: QueryCache,
    options: BatchOptions,
}

impl BatchEngine {
    /// A batch engine with the given configuration and an empty query
    /// cache.
    #[must_use]
    pub fn new(options: BatchOptions) -> Self {
        BatchEngine {
            cache: QueryCache::new(options.cache_capacity),
            options,
        }
    }

    /// The compiled-query cache (for hit/miss inspection).
    #[must_use]
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The configuration this engine runs with.
    #[must_use]
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// Worker count a run will actually use: the configured count, or
    /// one per available CPU when `threads == 0`.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.options.threads > 0 {
            self.options.threads
        } else {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Runs `query` over every document in `docs`, sharded across the
    /// worker pool. Outcomes come back in input order, byte-identical to
    /// a sequential loop over the same documents.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] only when the *query* fails to compile;
    /// per-document failures land in [`BatchResult::outcomes`].
    pub fn run_slices(&self, query: &str, docs: &[&[u8]]) -> Result<BatchResult, EngineError> {
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let evictions_before = self.cache.evictions();
        let engine = self.cache.get_or_compile(query, &self.options.engine)?;
        let mut result = self.run_compiled(&engine, docs);
        result.counters.cache_hits = self.cache.hits() - hits_before;
        result.counters.cache_misses = self.cache.misses() - misses_before;
        result.counters.cache_evictions = self.cache.evictions() - evictions_before;
        Ok(result)
    }

    /// Runs `query` over an NDJSON buffer (one JSON document per line,
    /// split with the quote-aware [`split_ndjson`] scan). Returns the
    /// byte range of each document alongside the batch result, so
    /// callers can map outcome `i` back to its line.
    ///
    /// # Errors
    ///
    /// As [`run_slices`](Self::run_slices).
    pub fn run_ndjson(
        &self,
        query: &str,
        input: &[u8],
    ) -> Result<(Vec<Range<usize>>, BatchResult), EngineError> {
        let ranges = split_ndjson(input);
        // PANIC-OK: split_ndjson ranges are derived from input and lie in bounds
        let docs: Vec<&[u8]> = ranges.iter().map(|r| &input[r.clone()]).collect();
        let result = self.run_slices(query, &docs)?;
        Ok((ranges, result))
    }

    /// Runs a compiled engine over the documents, sharded. This is the
    /// core worker-pool loop shared by every entry point.
    fn run_compiled(&self, engine: &Arc<Engine>, docs: &[&[u8]]) -> BatchResult {
        let threads = self.effective_threads().min(docs.len()).max(1);
        let chunk = if self.options.chunk_docs > 0 {
            self.options.chunk_docs
        } else {
            WorkQueue::auto_chunk(docs.len(), threads)
        };
        let queue = WorkQueue::new(docs.len(), chunk);
        let collect_stats = self.options.collect_stats;
        let profile = self.options.profile;
        let perf_mode = self.options.perf;
        let collect_spans = self.options.collect_spans;
        // Clock zero for span placement; the route is a static property
        // of the compiled query, shared by every document.
        let epoch = Instant::now();
        let route = engine.route();

        // Each worker collects (index, outcome) pairs privately and
        // returns them with its local stats merge — no shared mutable
        // state, no locks on the hot path. The main thread merges by
        // index, which makes the output independent of scheduling.
        type ShardOutput = (
            Vec<(usize, Result<DocOutput, DocError>)>,
            RunStats,
            Option<ShardProfile>,
            PerfStats,
            Vec<SpanRecord>,
        );
        let shard = |worker: usize| -> ShardOutput {
            let mut local: Vec<(usize, Result<DocOutput, DocError>)> = Vec::new();
            let mut stats = RunStats::default();
            let mut scratch = Scratch::new();
            let mut prof: Option<ShardProfile> = profile.then(ShardProfile::default);
            // Per-worker counter group: perf events count the opening
            // thread. `Off` (the default) and denied hosts both yield
            // `Unavailable`, making the per-document bracket a no-op.
            let counters = CounterSet::open(perf_mode);
            let mut perf = PerfStats::default();
            if let Some(g) = counters.group() {
                perf.core_only = g.is_core_only();
            }
            let mut spans: Vec<SpanRecord> = Vec::new();
            // Lap timer shared with the serve pipeline's spans: the lap
            // taken after `claim` returns is queue wait, the lap after
            // each document is busy time, and consecutive laps telescope
            // — the worker's wall clock partitions exactly into waits
            // and work. Only a profiled run starts the watch; the plain
            // path keeps its no-clock-reads guarantee.
            let mut watch = prof.as_ref().map(|_| Stopwatch::start());
            loop {
                if let Some(w) = watch.as_mut() {
                    w.lap();
                }
                let Some(range) = queue.claim() else { break };
                if let (Some(p), Some(w)) = (prof.as_mut(), watch.as_mut()) {
                    p.worker.queue_wait_ns = p.worker.queue_wait_ns.saturating_add(w.lap());
                    p.worker.claims += 1;
                }
                for i in range {
                    let mut span = collect_spans.then(|| {
                        let mut s = DocSpan::begin_at(
                            i as u64,
                            // PANIC-OK: doc indices come from the shared claim queue, all < docs.len()
                            docs[i].len() as u64,
                            u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                        s.worker(worker as u32);
                        s.route(route);
                        // Batch has no admission queue: the span starts
                        // at claim, so queue wait is ~zero by design.
                        s.claimed();
                        s
                    });
                    let group = counters.group();
                    if let Some(g) = group {
                        g.start();
                    }
                    // Containment at the document boundary: a panic
                    // inside the engine (or a user sink, via the serve
                    // path) fails this document, not the whole batch.
                    let outcome = if let Some(p) = prof.as_mut() {
                        // PANIC-OK: watch is constructed together with prof a few lines up; Some iff profiling
                        let w = watch.as_mut().expect("watch exists iff profiling");
                        w.lap();
                        let outcome = contain(|| {
                            run_one(
                                engine,
                                // PANIC-OK: doc indices come from the shared claim queue, all < docs.len()
                                docs[i],
                                &mut scratch,
                                collect_stats,
                                &mut stats,
                                Some(&mut p.profile),
                            )
                        });
                        let ns = w.lap();
                        p.latency.record(ns);
                        p.worker.busy_ns = p.worker.busy_ns.saturating_add(ns);
                        p.worker.documents += 1;
                        outcome
                    } else {
                        contain(|| {
                            run_one(
                                engine,
                                // PANIC-OK: doc indices come from the shared claim queue, all < docs.len()
                                docs[i],
                                &mut scratch,
                                collect_stats,
                                &mut stats,
                                None,
                            )
                        })
                    };
                    if let Some(delta) = group.and_then(|g| g.stop()) {
                        // PANIC-OK: doc indices come from the shared claim queue, all < docs.len()
                        perf.add_run(docs[i].len() as u64, &delta);
                    }
                    if let Some(mut s) = span.take() {
                        s.ran();
                        if let Err(e) = &outcome {
                            s.fault(e.kind.code());
                        }
                        s.released();
                        spans.push(s.finish());
                    }
                    local.push((i, outcome));
                }
            }
            (local, stats, prof, perf, spans)
        };

        let mut shards: Vec<ShardOutput> = if threads == 1 {
            // Run inline: identical code path, no thread spawn overhead.
            vec![shard(0)]
        } else {
            thread::scope(|scope| {
                let shard = &shard;
                let handles: Vec<_> = (0..threads)
                    .map(|w| scope.spawn(move || shard(w)))
                    .collect();
                // Per-document panics are contained inside the shard
                // loop; a join failure means the worker died outside it
                // (e.g. an allocator abort path that still unwound).
                // Drop that shard's results — its claimed documents stay
                // at the "worker thread lost" default below — and keep
                // the batch alive.
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            })
        };

        let mut result = BatchResult {
            outcomes: Vec::with_capacity(docs.len()),
            profile: profile.then(BatchProfile::default),
            ..BatchResult::default()
        };
        // Default every slot to a lost-worker error: any document whose
        // shard never reported back (worker died outside the contained
        // region) surfaces as a per-document failure, not silence.
        result.outcomes.resize(
            docs.len(),
            Err(DocError {
                kind: DocErrorKind::Panic,
                message: "worker thread lost".to_owned(),
            }),
        );
        // Shards come back in worker-index order (spawn order), so the
        // merged `workers` vec is stable across runs of the same shape.
        for (local, stats, shard_profile, shard_perf, shard_spans) in shards.drain(..) {
            result.stats += stats;
            if shard_perf.docs > 0 {
                *result.perf.get_or_insert_with(PerfStats::default) += shard_perf;
            }
            result.spans.extend(shard_spans);
            if let (Some(merged), Some(sp)) = (result.profile.as_mut(), shard_profile) {
                result.stats += sp.profile.stats;
                merged.bytes_skipped += sp.profile.bytes_skipped;
                merged.stages += sp.profile.stages;
                merged.latency += &sp.latency;
                merged.workers.push(sp.worker);
            }
            for (i, outcome) in local {
                // PANIC-OK: outcomes was pre-sized to docs.len(); queue indices stay in range
                result.outcomes[i] = outcome;
            }
        }
        // Shards interleave document ranges; order the merged timeline
        // by document index so trace output is deterministic.
        result.spans.sort_by_key(|s| s.seq);
        result.counters.failed_documents =
            result.outcomes.iter().filter(|o| o.is_err()).count() as u64;
        result.counters.documents = docs.len() as u64;
        result.counters.shards = threads as u64;
        result.counters.queue_claims = queue.claims();
        result
    }

    /// Loads every regular file in `dir` (sorted by file name for a
    /// stable document order) for batch processing: ingest is sequential
    /// — one disk — and the compute stays parallel via
    /// [`run_slices`](Self::run_slices) on the returned buffers.
    ///
    /// # Errors
    ///
    /// Returns the first directory-walk or read error; per-file content
    /// problems surface later as per-document outcomes.
    pub fn load_dir(dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for (name, path) in Self::dir_entries(dir)? {
            files.push((name, fs::read(&path)?));
        }
        Ok(files)
    }

    /// [`load_dir`](Self::load_dir) with zero-copy ingest: each file is
    /// loaded under the given [`rsq_mmap::MapPolicy`], so large documents
    /// are memory-mapped instead of copied into heap buffers (DESIGN.md
    /// §15). Document order and error behavior match `load_dir` exactly;
    /// only the backing storage differs.
    ///
    /// # Errors
    ///
    /// Returns the first directory-walk or read error; per-file content
    /// problems surface later as per-document outcomes.
    pub fn load_dir_mapped(
        dir: &Path,
        policy: rsq_mmap::MapPolicy,
    ) -> io::Result<Vec<(String, rsq_mmap::MmapInput)>> {
        let mut files: Vec<(String, rsq_mmap::MmapInput)> = Vec::new();
        for (name, path) in Self::dir_entries(dir)? {
            files.push((name, rsq_mmap::load(&path, policy)?));
        }
        Ok(files)
    }

    /// The regular files of `dir`, sorted by file name.
    fn dir_entries(dir: &Path) -> io::Result<Vec<(String, std::path::PathBuf)>> {
        let mut names: Vec<(String, std::path::PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_file() {
                names.push((entry.file_name().to_string_lossy().into_owned(), path));
            }
        }
        names.sort();
        Ok(names)
    }
}

/// Renders a panic payload the way the default hook would: the `&str` or
/// `String` message if there is one, a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

/// Runs `f`, converting a panic into a per-document
/// [`DocErrorKind::Panic`] outcome instead of unwinding into the worker
/// pool. The engine holds no global state and its scratch buffers are
/// plain `Vec`s, so observing them after an unwind is safe (the next
/// document clears them); `AssertUnwindSafe` records that judgement.
fn contain<T>(f: impl FnOnce() -> Result<T, DocError>) -> Result<T, DocError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(DocError {
            kind: DocErrorKind::Panic,
            message: format!("worker panicked: {}", panic_message(payload.as_ref())),
        }),
    }
}

/// Runs one document through `engine` into `sink` with panic containment
/// at the boundary: a panic anywhere inside the run (including a
/// panicking [`Sink`](rsq_engine::Sink) implementation) comes back as a
/// [`DocErrorKind::Panic`] outcome for *this* document instead of
/// unwinding the calling thread. This is the isolation primitive the
/// batch shard loop and the serve workers share.
///
/// # Errors
///
/// As [`Engine::try_run`], mapped through [`DocError::from_run`], plus
/// [`DocErrorKind::Panic`] for contained panics.
pub fn run_document_contained<S: rsq_engine::Sink>(
    engine: &Engine,
    doc: &[u8],
    sink: &mut S,
) -> Result<(), DocError> {
    run_document_contained_with(engine, doc, sink, None)
}

/// [`run_document_contained`] with an optional Tier C profiling
/// recorder threaded through the run. When `profile` is given the
/// engine's monomorphized stage timers fire (the only configuration
/// that reads the clock inside the run); serve-mode telemetry uses this
/// to put an engine stage breakdown inside each document's pipeline
/// span. `None` is byte-for-byte the uninstrumented path.
///
/// # Errors
///
/// As [`run_document_contained`].
pub fn run_document_contained_with<S: rsq_engine::Sink>(
    engine: &Engine,
    doc: &[u8],
    sink: &mut S,
    profile: Option<&mut ProfileStats>,
) -> Result<(), DocError> {
    contain(move || {
        let run = match profile {
            Some(p) => {
                p.stats.bytes = p.stats.bytes.saturating_add(doc.len() as u64);
                engine.try_run_with_recorder(doc, sink, p)
            }
            None => engine.try_run(doc, sink),
        };
        run.map_err(|e| DocError::from_run(&e))
    })
}

/// One worker's accumulated Tier C profile: an engine-side profile shared
/// across the shard's documents (no per-document skip map), the
/// per-document latency histogram, and the worker's own busy/queue-wait
/// accounting.
#[derive(Debug, Default)]
struct ShardProfile {
    profile: ProfileStats,
    latency: Histogram,
    worker: WorkerProfile,
}

/// Runs one document through the engine using the worker's scratch
/// buffers, producing its outcome and (optionally) accumulating stats or
/// a full profile. When `profile` is given it supersedes `collect_stats`:
/// the profile recorder carries the Tier A counters.
fn run_one(
    engine: &Engine,
    doc: &[u8],
    scratch: &mut Scratch,
    collect_stats: bool,
    stats: &mut RunStats,
    profile: Option<&mut ProfileStats>,
) -> Result<DocOutput, DocError> {
    scratch.positions.clear();
    let run = if let Some(p) = profile {
        p.stats.bytes = p.stats.bytes.saturating_add(doc.len() as u64);
        engine.try_run_with_recorder(doc, &mut scratch.positions, p)
    } else if collect_stats {
        // Record into a fresh report and merge it only on success, so
        // the batch totals cover successful documents alone.
        let mut s = RunStats::for_document(doc.len());
        engine
            .try_run_with_recorder(doc, &mut scratch.positions, &mut s)
            .map(|()| *stats += s)
    } else {
        engine.try_run(doc, &mut scratch.positions)
    };
    match run {
        Ok(()) => Ok(DocOutput {
            count: scratch.positions.len() as u64,
            // Exact-size clone: the kept output never carries scratch
            // slack capacity.
            positions: scratch.positions.as_slice().to_vec(),
        }),
        Err(e) => Err(DocError::from_run(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_doc_matches_engine() {
        let doc: &[u8] = br#"{"a": {"b": 1}, "b": [2, {"b": 3}]}"#;
        let batch = BatchEngine::new(BatchOptions::default());
        let result = batch.run_slices("$..b", &[doc]).unwrap();
        let expected = Engine::from_text("$..b")
            .unwrap()
            .try_positions(doc)
            .unwrap();
        let out = result.outcomes[0].as_ref().unwrap();
        assert_eq!(out.positions, expected);
        assert_eq!(out.count, expected.len() as u64);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let batch = BatchEngine::new(BatchOptions::default());
        let result = batch.run_slices("$..a", &[]).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.counters.documents, 0);
        assert_eq!(result.total_count(), 0);
    }

    #[test]
    fn query_compile_error_is_batch_fatal() {
        let batch = BatchEngine::new(BatchOptions::default());
        assert!(batch.run_slices("nope", &[b"{}"]).is_err());
    }

    #[test]
    fn per_document_failure_does_not_abort() {
        let options = BatchOptions {
            engine: EngineOptions {
                max_matches: Some(2),
                ..EngineOptions::default()
            },
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let many: &[u8] = br#"{"a": 1, "b": {"a": 2}, "c": {"a": 3}}"#;
        let few: &[u8] = br#"{"a": 1}"#;
        let result = batch.run_slices("$..a", &[many, few, many]).unwrap();
        assert!(matches!(
            result.outcomes[0],
            Err(DocError {
                kind: DocErrorKind::Limit(LimitKind::Matches),
                ..
            })
        ));
        assert_eq!(result.outcomes[1].as_ref().unwrap().count, 1);
        assert!(result.outcomes[2].is_err());
        assert_eq!(result.counters.failed_documents, 2);
        assert_eq!(result.counters.documents, 3);
    }

    #[test]
    fn cache_counters_are_per_batch() {
        let batch = BatchEngine::new(BatchOptions::default());
        let docs: [&[u8]; 1] = [br#"{"a": 1}"#];
        let first = batch.run_slices("$..a", &docs).unwrap();
        assert_eq!(
            (first.counters.cache_hits, first.counters.cache_misses),
            (0, 1)
        );
        let second = batch.run_slices("$..a", &docs).unwrap();
        assert_eq!(
            (second.counters.cache_hits, second.counters.cache_misses),
            (1, 0)
        );
    }

    #[test]
    fn stats_collection_merges_runs() {
        let options = BatchOptions {
            collect_stats: true,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let docs: [&[u8]; 3] = [br#"{"a": 1}"#, br#"{"b": {"a": 2}}"#, b"[1, 2]"];
        let result = batch.run_slices("$..a", &docs).unwrap();
        let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
        assert_eq!(result.stats.bytes, total_bytes);
        assert_eq!(result.stats.matches, result.total_count());
    }

    #[test]
    fn profile_off_leaves_result_profile_empty() {
        let batch = BatchEngine::new(BatchOptions::default());
        let result = batch.run_slices("$..a", &[br#"{"a": 1}"#]).unwrap();
        assert!(result.profile.is_none());
    }

    #[test]
    fn profile_collects_latency_workers_and_spans() {
        let options = BatchOptions {
            threads: 2,
            profile: true,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let doc: &[u8] = br#"{"a": 1, "deep": {"nested": {"a": [1, 2, 3]}}, "pad": "xxxx"}"#;
        let docs: Vec<&[u8]> = vec![doc; 8];
        let result = batch.run_slices("$..a", &docs).unwrap();
        let profile = result.profile.as_ref().unwrap();
        assert_eq!(profile.latency.count(), 8);
        assert_eq!(profile.workers.len() as u64, result.counters.shards);
        let docs_run: u64 = profile.workers.iter().map(|w| w.documents).sum();
        assert_eq!(docs_run, 8);
        let claims: u64 = profile.workers.iter().map(|w| w.claims).sum();
        assert_eq!(claims, result.counters.queue_claims);
        // Profiling implies stats collection even with collect_stats off.
        let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
        assert_eq!(result.stats.bytes, total_bytes);
        assert!(result.stats.events > 0);
    }

    #[test]
    fn profile_does_not_change_outcomes() {
        let doc_a: &[u8] = br#"{"a": {"b": 1}, "b": [2, {"b": 3}]}"#;
        let doc_b: &[u8] = br#"[{"b": []}, {"c": {"b": 4}}]"#;
        let plain = BatchEngine::new(BatchOptions::default());
        let profiled = BatchEngine::new(BatchOptions {
            profile: true,
            ..BatchOptions::default()
        });
        let without = plain.run_slices("$..b", &[doc_a, doc_b]).unwrap();
        let with = profiled.run_slices("$..b", &[doc_a, doc_b]).unwrap();
        assert_eq!(without.outcomes, with.outcomes);
    }

    #[test]
    fn collect_spans_stamps_worker_route_and_epoch() {
        let options = BatchOptions {
            threads: 2,
            collect_spans: true,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let doc: &[u8] = br#"{"a": 1, "b": {"a": 2}}"#;
        let docs: Vec<&[u8]> = vec![doc; 6];
        let result = batch.run_slices("$..a", &docs).unwrap();
        assert_eq!(result.spans.len(), 6, "one span per document");
        for (i, span) in result.spans.iter().enumerate() {
            assert_eq!(span.seq, i as u64, "spans sorted by document index");
            assert_eq!(span.bytes, doc.len() as u64);
            assert!(span.route.is_some());
            assert!(span.start_ns > 0);
            assert!(span.run_ns > 0);
            assert!(span.code.is_none());
        }
        let json = rsq_obs::chrome_trace_json(&result.spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        // Span collection never changes outcomes.
        let plain = BatchEngine::new(BatchOptions::default())
            .run_slices("$..a", &docs)
            .unwrap();
        assert_eq!(result.outcomes, plain.outcomes);
    }

    #[test]
    fn failed_documents_carry_codes_in_spans() {
        let options = BatchOptions {
            collect_spans: true,
            engine: EngineOptions {
                max_matches: Some(1),
                ..EngineOptions::default()
            },
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let many: &[u8] = br#"{"a": 1, "b": {"a": 2}}"#;
        let result = batch.run_slices("$..a", &[many]).unwrap();
        assert!(result.outcomes[0].is_err());
        assert_eq!(result.spans[0].code, Some("limit:matches"));
    }

    #[test]
    fn perf_deny_and_auto_change_nothing_observable() {
        let docs: [&[u8]; 2] = [br#"{"a": 1}"#, br#"{"b": {"a": 2}}"#];
        let plain = BatchEngine::new(BatchOptions::default())
            .run_slices("$..a", &docs)
            .unwrap();
        for mode in [PerfMode::Deny, PerfMode::Auto] {
            let batch = BatchEngine::new(BatchOptions {
                perf: mode,
                ..BatchOptions::default()
            });
            let result = batch.run_slices("$..a", &docs).unwrap();
            assert_eq!(result.outcomes, plain.outcomes, "{mode:?}");
            if mode == PerfMode::Deny {
                assert!(result.perf.is_none(), "denied counters leave no report");
            }
        }
    }

    #[test]
    fn eviction_counter_is_per_batch() {
        let options = BatchOptions {
            cache_capacity: 1,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let docs: [&[u8]; 1] = [br#"{"a": 1}"#];
        let first = batch.run_slices("$.a", &docs).unwrap();
        assert_eq!(first.counters.cache_evictions, 0);
        let second = batch.run_slices("$.b", &docs).unwrap();
        assert_eq!(second.counters.cache_evictions, 1);
    }

    #[test]
    fn ndjson_entry_point_maps_lines_to_outcomes() {
        let input = b"{\"a\": 1}\n\n{\"a\": {\"a\": 2}}\n[3]\n";
        let batch = BatchEngine::new(BatchOptions::default());
        let (ranges, result) = batch.run_ndjson("$..a", input).unwrap();
        assert_eq!(ranges.len(), 3);
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.outcomes[0].as_ref().unwrap().count, 1);
        assert_eq!(result.outcomes[1].as_ref().unwrap().count, 2);
        assert_eq!(result.outcomes[2].as_ref().unwrap().count, 0);
        assert_eq!(&input[ranges[2].clone()], b"[3]");
    }

    #[test]
    fn panicking_sink_is_contained_as_doc_error() {
        // A sink that panics partway through recording — the regression
        // case for worker-boundary containment: the caller must get a
        // per-document Panic outcome, not an unwinding thread.
        struct Bomb {
            fuse: usize,
        }
        impl rsq_engine::Sink for Bomb {
            fn record(&mut self, _pos: usize) -> Result<(), rsq_engine::SinkFull> {
                if self.fuse == 0 {
                    panic!("sink exploded");
                }
                self.fuse -= 1;
                Ok(())
            }
        }
        let engine = Engine::from_text("$..a").unwrap();
        let doc: &[u8] = br#"{"a": 1, "b": {"a": 2}, "c": {"a": 3}}"#;

        // Silence the default panic hook for the expected panic so the
        // test log stays readable; restore it after.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = run_document_contained(&engine, doc, &mut Bomb { fuse: 1 }).unwrap_err();
        std::panic::set_hook(hook);

        assert_eq!(err.kind, DocErrorKind::Panic);
        assert_eq!(err.code(), "panic");
        assert!(err.message.contains("sink exploded"), "{}", err.message);

        // A healthy run through the same containment wrapper still works.
        let mut out: Vec<usize> = Vec::new();
        run_document_contained(&engine, doc, &mut out).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn contained_run_with_profile_fills_stage_timers() {
        let engine = Engine::from_text("$..a").unwrap();
        let doc: &[u8] = br#"{"a": 1, "b": {"a": 2}, "c": {"a": 3}}"#;
        let mut plain: Vec<usize> = Vec::new();
        run_document_contained(&engine, doc, &mut plain).unwrap();

        let mut profiled: Vec<usize> = Vec::new();
        let mut profile = ProfileStats::new();
        run_document_contained_with(&engine, doc, &mut profiled, Some(&mut profile)).unwrap();
        assert_eq!(profiled, plain, "profiling never changes the answer");
        assert_eq!(profile.stats.bytes, doc.len() as u64);
        assert!(
            profile.stages.get(rsq_obs::ProfileStage::Automaton) > 0,
            "monomorphized stage timers fired: {:?}",
            profile.stages
        );
    }

    #[test]
    fn doc_error_codes_are_distinct_and_stable() {
        let kinds = [
            DocErrorKind::Io,
            DocErrorKind::Limit(LimitKind::Depth),
            DocErrorKind::Limit(LimitKind::DocumentBytes),
            DocErrorKind::Limit(LimitKind::LabelBytes),
            DocErrorKind::Limit(LimitKind::Matches),
            DocErrorKind::Malformed,
            DocErrorKind::Timeout,
            DocErrorKind::Panic,
        ];
        let codes: Vec<&str> = kinds.iter().map(|k| k.code()).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes must be distinct");
        assert_eq!(codes[1], "limit:depth");
        assert_eq!(codes[6], "timeout");
    }

    #[test]
    fn deadline_error_maps_to_timeout_kind() {
        let err = DocError::from_run(&RunError::DeadlineExceeded);
        assert_eq!(err.kind, DocErrorKind::Timeout);
        assert_eq!(err.code(), "timeout");
        assert_eq!(err.message, "deadline exceeded");
    }

    #[test]
    fn load_dir_sorts_by_name() {
        let dir = std::env::temp_dir().join(format!("rsq-batch-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("b.json"), b"[2]").unwrap();
        fs::write(dir.join("a.json"), b"[1]").unwrap();
        let files = BatchEngine::load_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.json", "b.json"]);
        assert_eq!(files[0].1, b"[1]");
    }
}
