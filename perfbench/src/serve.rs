//! `serve-open`: the NDJSON corpus sent over one Unix-socket connection
//! to `serve_unix_with` with a live `Telemetry` hub, answered in values
//! mode with query B1r.
//!
//! Two phases share the corpus. The open-loop phase sends documents on
//! a fixed schedule ([`OFFERED_DOCS_PER_SEC`]) from one sender thread
//! while one receiver thread timestamps the responses; each document's
//! latency runs from the time it was *due* to be sent, so a stall shows
//! as latency of the documents queued behind it. The closed-loop
//! saturation phase pushes the whole corpus as fast as the socket takes
//! it.
//!
//! Responses are checked byte for byte against the values output of
//! `rsq --batch-ndjson` over the same lines. A document whose response
//! differs, or that is still unanswered when the connection closes,
//! counts as failed.

use crate::inputs::{
    corpus_path, entry, fnv1a, generate_corpus, read_file, read_numbers, write_file, write_numbers,
    SERVE_ID,
};
use crate::report::{note, Report};
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, EndToEnd, InputSum};
use rsq_engine::Engine;
use rsq_serve::{
    serve_unix_with, ResponseMode, ServeOptions, ServeReport, Telemetry, TelemetryOptions,
};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The open-loop phase's offered load, documents per second. Seed 1's
/// saturated rate on a 2-vCPU AVX-512 VM ranged from 0.08 to 0.19 GB/s
/// (about 5k to 12k of its 15.6 KB documents per second) as the host's
/// load changed; 3000/s is about half the slow end, so latency reflects
/// service time rather than a growing backlog.
pub const OFFERED_DOCS_PER_SEC: f64 = 3000.0;

/// Share of the run spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.6;

/// The size of serve's socket reads, which the framer sees as chunks.
const READ_CHUNK: usize = 8 * 1024;

/// The client's write size in the saturation phase.
const WRITE_CHUNK: usize = 64 * 1024;

fn expected_path(work: &Path) -> PathBuf {
    work.join("serve").join("expected.out")
}

fn ends_path(work: &Path) -> PathBuf {
    work.join("serve").join("expected.ends")
}

fn options(threads: usize) -> ServeOptions {
    ServeOptions {
        mode: ResponseMode::Values,
        threads,
        ..ServeOptions::new(entry(SERVE_ID).query)
    }
}

/// Values-mode response of one document, as batch mode prints it.
fn values(engine: &Engine, doc: &[u8], out: &mut Vec<u8>) {
    for pos in engine.try_positions(doc).expect("corpus document runs") {
        let span = rsq_json::node_span(doc, pos).expect("match spans are well-formed");
        out.extend_from_slice(&doc[span]);
        out.push(b'\n');
    }
}

/// One set-up repetition: generate and write the corpus, compile the
/// query, and warm up by serving the corpus once in memory.
pub fn setup(ctx: &Ctx) -> io::Result<Vec<InputSum>> {
    let corpus = generate_corpus(ctx.seed);
    write_file(&corpus_path(&ctx.work), &corpus)?;
    std::hint::black_box(Engine::from_text(entry(SERVE_ID).query).expect("serve query compiles"));
    let mut out = Vec::new();
    rsq_serve::serve_connection(&options(ctx.threads), &corpus[..], &mut out, io::sink())
        .map_err(|e| io::Error::other(e.message))?;
    Ok(vec![InputSum {
        name: "corpus".to_owned(),
        bytes: corpus.len() as u64,
        fnv: fnv1a(&corpus),
    }])
}

/// Writes the expected response stream — the values output of
/// `rsq --batch-ndjson` over the corpus — and where each document's
/// response ends in it.
pub fn oracle(ctx: &Ctx) -> io::Result<()> {
    let path = corpus_path(&ctx.work);
    let args: Vec<String> = vec![
        "--batch-ndjson".to_owned(),
        path.display().to_string(),
        "--threads".to_owned(),
        ctx.threads.to_string(),
        entry(SERVE_ID).query.to_owned(),
    ];
    let invocation = rsq_cli::Invocation::parse(&args).map_err(io::Error::other)?;
    let (mut expected, mut err) = (Vec::new(), Vec::new());
    rsq_cli::run(&invocation, &mut expected, &mut err)
        .map_err(|e| io::Error::other(e.to_string()))?;
    if !err.is_empty() {
        return Err(io::Error::other(String::from_utf8_lossy(&err).into_owned()));
    }
    // Per-document boundaries, from the engine and the shared emitter;
    // their concatenation must be the batch output itself.
    let corpus = read_file(&path);
    let engine = Engine::from_text(entry(SERVE_ID).query).expect("serve query compiles");
    let mut rebuilt = Vec::new();
    let mut ends = Vec::new();
    for doc in crate::batch::split(&corpus) {
        values(&engine, doc, &mut rebuilt);
        ends.push(rebuilt.len() as u64);
    }
    if rebuilt != expected || expected.is_empty() {
        return Err(io::Error::other(
            "per-document responses do not rebuild the batch output",
        ));
    }
    write_file(&expected_path(&ctx.work), &expected)?;
    write_numbers(&ends_path(&ctx.work), &ends)
}

/// The corpus with each document's expected response.
struct Corpus {
    bytes: Vec<u8>,
    /// Each document's line, newline included.
    lines: Vec<std::ops::Range<usize>>,
    expected: Vec<u8>,
    ends: Vec<usize>,
}

impl Corpus {
    fn load(work: &Path) -> Corpus {
        let bytes = read_file(&corpus_path(work));
        let lines: Vec<_> = rsq_batch::split_ndjson(&bytes)
            .into_iter()
            .map(|r| r.start..r.end + 1)
            .collect();
        assert!(
            lines.iter().all(|r| bytes.get(r.end - 1) == Some(&b'\n')),
            "every corpus document ends its own line"
        );
        let ends: Vec<usize> = read_numbers(&ends_path(work))
            .into_iter()
            .map(|e| e as usize)
            .collect();
        assert_eq!(
            ends.len(),
            lines.len(),
            "one expected response per document"
        );
        Corpus {
            bytes,
            lines,
            expected: read_file(&expected_path(work)),
            ends,
        }
    }

    fn len(&self) -> usize {
        self.lines.len()
    }

    /// The `k`-th document sent: the corpus repeats.
    fn doc(&self, k: usize) -> &[u8] {
        &self.bytes[self.lines[k % self.len()].clone()]
    }

    fn response(&self, k: usize) -> &[u8] {
        let i = k % self.len();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.expected[start..self.ends[i]]
    }
}

/// A serving thread on its own socket in the work directory.
struct Server {
    path: PathBuf,
    shutdown: Arc<AtomicBool>,
    handle: thread::JoinHandle<io::Result<ServeReport>>,
}

impl Server {
    fn start(ctx: &Ctx, name: &str, with_hub: bool) -> Server {
        let path = ctx.work.join(format!("{name}.sock"));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind the serve socket");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let options = options(ctx.threads);
        let handle = thread::spawn(move || {
            let hub = with_hub.then(|| {
                Telemetry::new(&TelemetryOptions {
                    live: true,
                    ..TelemetryOptions::default()
                })
            });
            serve_unix_with(&options, hub.as_ref(), &listener, &flag)
        });
        Server {
            path,
            shutdown,
            handle,
        }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.path).expect("connect to the serve socket")
    }

    fn stop(self) -> ServeReport {
        self.shutdown.store(true, Ordering::Release);
        let report = self
            .handle
            .join()
            .expect("server thread does not panic")
            .expect("server accept loop runs");
        let _ = std::fs::remove_file(&self.path);
        report
    }
}

/// What the receiver saw on one connection.
struct Received {
    /// Non-empty responses completed, with the time their last byte
    /// arrived, in document order.
    completions: Vec<(usize, Instant)>,
    /// Documents before this index were answered exactly.
    answered: usize,
    /// The stream stopped matching the expected bytes.
    diverged: bool,
    /// The last response ended exactly at a document boundary.
    at_boundary: bool,
    closed_at: Instant,
}

/// Reads responses until the server closes the connection, matching
/// them against the expected stream document by document.
fn receive(mut stream: UnixStream, corpus: &Corpus) -> Received {
    let mut buf = vec![0u8; 64 * 1024];
    let (mut k, mut off, mut diverged) = (0usize, 0usize, false);
    let mut completions = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let now = Instant::now();
        let mut chunk = &buf[..n];
        while !diverged && !chunk.is_empty() {
            let want = corpus.response(k);
            if want.is_empty() {
                k += 1;
                continue;
            }
            let take = (want.len() - off).min(chunk.len());
            if chunk[..take] != want[off..off + take] {
                diverged = true;
                break;
            }
            off += take;
            chunk = &chunk[take..];
            if off == want.len() {
                completions.push((k, now));
                k += 1;
                off = 0;
            }
        }
    }
    Received {
        completions,
        answered: k,
        diverged,
        at_boundary: off == 0,
        closed_at: Instant::now(),
    }
}

impl Received {
    /// Of `sent` documents, how many were not answered exactly.
    fn failed(&self, sent: usize, corpus: &Corpus) -> u64 {
        let mut answered = self.answered.min(sent);
        if !self.diverged && self.at_boundary {
            // In-order emission: the trailing documents with empty
            // responses were answered once the server closed cleanly.
            while answered < sent && corpus.response(answered).is_empty() {
                answered += 1;
            }
        }
        (sent - answered + self.answered.saturating_sub(sent)) as u64
    }
}

struct OpenLoop {
    /// Due-to-response latency of each document with a non-empty
    /// response, in ms.
    latency: Samples,
    /// How late the sender ran against its schedule, in ms.
    lag: Samples,
    sent: usize,
    failed: u64,
}

/// The open-loop phase: documents go out on a fixed schedule for
/// `seconds`, then the sender half-closes and waits for the drain.
fn open_loop(
    server: &Server,
    corpus: &Corpus,
    seconds: f64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> OpenLoop {
    let mut stream = server.connect();
    let reader = stream.try_clone().expect("clone the client socket");
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / OFFERED_DOCS_PER_SEC);
    let end = start + Duration::from_secs_f64(seconds);
    let mut lag = Samples::new();
    let (sent, received) = thread::scope(|s| {
        let rx = s.spawn(|| receive(reader, corpus));
        let mut k = 0;
        while due(k) < end {
            let now = Instant::now();
            if now < due(k) {
                thread::sleep(due(k) - now);
            }
            lag.push(due(k).elapsed().as_secs_f64() * 1e3);
            if stream.write_all(corpus.doc(k)).is_err() {
                break;
            }
            k += 1;
        }
        let _ = stream.shutdown(Shutdown::Write);
        (k, rx.join().expect("receiver does not panic"))
    });
    let mut latency = Samples::new();
    for &(k, at) in &received.completions {
        latency.push(at.saturating_duration_since(due(k)).as_secs_f64() * 1e3);
        tracer.record("serve.document", &k.to_string(), parent, 1, due(k), at);
    }
    OpenLoop {
        latency,
        lag,
        sent,
        failed: received.failed(sent, corpus),
    }
}

/// One saturation pass: the whole corpus as fast as the socket takes
/// it. Returns GB/s from connect to the server's close, and failures.
fn saturate(server: &Server, corpus: &Corpus) -> (f64, u64) {
    let started = Instant::now();
    let mut stream = server.connect();
    let reader = stream.try_clone().expect("clone the client socket");
    let received = thread::scope(|s| {
        let rx = s.spawn(|| receive(reader, corpus));
        for chunk in corpus.bytes.chunks(WRITE_CHUNK) {
            if stream.write_all(chunk).is_err() {
                break;
            }
        }
        let _ = stream.shutdown(Shutdown::Write);
        rx.join().expect("receiver does not panic")
    });
    let secs = (received.closed_at - started).as_secs_f64();
    (
        corpus.bytes.len() as f64 / secs / 1e9,
        received.failed(corpus.len(), corpus),
    )
}

/// Saturation passes until `seconds` have passed (at least three);
/// returns each pass's GB/s and the documents that failed.
fn saturate_for(
    server: &Server,
    corpus: &Corpus,
    seconds: f64,
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
) -> (Samples, u64) {
    let mut gbps = Samples::new();
    let mut failed = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || gbps.len() < 3 {
        let ((pass, lost), _) = tracer.time(name, &gbps.len().to_string(), parent, || {
            saturate(server, corpus)
        });
        gbps.push(pass);
        failed += lost;
    }
    (gbps, failed)
}

pub fn measure(ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> EndToEnd {
    let corpus = Corpus::load(&ctx.work);
    let mut e2e = EndToEnd::new(99.0);
    let server = Server::start(ctx, "serve", true);
    // Warm-up: one saturation pass, checked but not timed.
    let (_, failed) = saturate(&server, &corpus);
    e2e.check(corpus.len() as u64, failed);

    let phase = tracer.open("serve.open_loop", SERVE_ID, None);
    let open = open_loop(&server, &corpus, seconds * OPEN_SHARE, tracer, phase);
    tracer.close(phase);
    e2e.check(open.sent as u64, open.failed);
    let phase = tracer.open("serve.saturation", SERVE_ID, None);
    let (gbps, failed) = saturate_for(
        &server,
        &corpus,
        seconds * (1.0 - OPEN_SHARE),
        tracer,
        "serve.pass",
        phase,
    );
    tracer.close(phase);
    e2e.check((gbps.len() * corpus.len()) as u64, failed);
    let report = server.stop();
    if e2e.failed > 0 {
        note(format!(
            "serve-open: {} of {} documents failed, mismatched or went unanswered",
            e2e.failed, e2e.attempted
        ));
    }
    e2e.gbps = gbps.median();
    // One query: the per-query geometric mean is the query's own rate.
    e2e.geomean_gbps = e2e.gbps;
    e2e.latency = open.latency;
    let lag = open.lag.tail(99.0);
    note(format!(
        "serve-open: offered {OFFERED_DOCS_PER_SEC} docs/s for {:.1} s: {} documents sent, {} with a response to time; sender lag p{} {:.3} ms (n={})",
        seconds * OPEN_SHARE,
        open.sent,
        e2e.latency.len(),
        lag.pct,
        lag.value,
        lag.n
    ));
    note(format!(
        "serve-open: saturation {} passes of {} documents ({:.1} MB); backpressure waits {}",
        gbps.len(),
        corpus.len(),
        corpus.bytes.len() as f64 / 1e6,
        report.counters.backpressure_waits
    ));
    e2e
}

/// The serve layers: the framer at serve's read size, the engine on each
/// document in values mode, the pool against batch at equal threads, the
/// telemetry hub's cost, backpressure and the load generator's lag.
pub fn layers(ctx: &Ctx, tracer: &mut Tracer, report: &mut Report) {
    let group = tracer.open("layer.serve", "serve-open", None);
    let corpus = Corpus::load(&ctx.work);
    let bytes = corpus.bytes.len() as f64;

    let framed = tracer
        .repeat("batch.ndjson_framer", "corpus", group, 5, 0.1, || {
            let mut framer = rsq_batch::NdjsonFramer::new(None);
            let mut frames = 0usize;
            for chunk in corpus.bytes.chunks(READ_CHUNK) {
                framer.push(chunk, &mut |_| frames += 1);
            }
            frames + usize::from(framer.finish().is_some())
        })
        .median();
    report.metric("batch.framer_gbps", bytes / framed / 1e9, "GB/s");

    let engine = Engine::from_text(entry(SERVE_ID).query).expect("serve query compiles");
    let mut per_doc = Samples::new();
    let mut out = Vec::new();
    for k in 0..corpus.len() {
        let doc = corpus.doc(k);
        let (_, secs) = tracer.time("engine.servedoc", &k.to_string(), group, || {
            out.clear();
            values(&engine, doc, &mut out);
        });
        per_doc.push(secs * 1e6);
    }
    report.metric("engine.servedoc_p50_us", per_doc.median(), "us");
    let tail = per_doc.tail(99.0);
    note(format!(
        "engine.servedoc tail is p{} of n={} documents",
        tail.pct, tail.n
    ));
    report.metric("engine.servedoc_p99_us", tail.value, "us");

    let docs = crate::batch::split(&corpus.bytes);
    let batch = rsq_batch::BatchEngine::new(rsq_batch::BatchOptions {
        threads: ctx.threads,
        ..rsq_batch::BatchOptions::default()
    });
    let batch_secs = tracer
        .repeat(
            "batch.run_slices.serve_corpus",
            SERVE_ID,
            group,
            3,
            0.2,
            || batch.run_slices(entry(SERVE_ID).query, &docs),
        )
        .median();

    // Alternate passes with and without the hub so drift hits both.
    let hub = Server::start(ctx, "hub", true);
    let bare = Server::start(ctx, "bare", false);
    let (mut with_hub, mut without) = (Samples::new(), Samples::new());
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..4 {
        for (server, side, name) in [
            (&hub, &mut with_hub, "serve.pass.hub"),
            (&bare, &mut without, "serve.pass.bare"),
        ] {
            let (passes, lost) = saturate_for(server, &corpus, 0.0, tracer, name, group);
            attempted += (passes.len() * corpus.len()) as u64;
            failed += lost;
            side.extend(&passes);
        }
    }
    let hub_report = hub.stop();
    let _ = bare.stop();
    let paced = Server::start(ctx, "open", true);
    let open = open_loop(&paced, &corpus, 3.0, tracer, group);
    let _ = paced.stop();
    let max_gbps = with_hub.median();
    note(format!(
        "serve saturation {max_gbps:.3} GB/s with hub, {:.3} without; batch at equal threads {:.3} GB/s; framer {:.3} GB/s",
        without.median(),
        bytes / batch_secs / 1e9,
        bytes / framed / 1e9
    ));
    report.metric("serve.tax", bytes / batch_secs / 1e9 / max_gbps, "ratio");
    report.metric(
        "obs.hub_tax_pct",
        (without.median() / max_gbps - 1.0) * 100.0,
        "%",
    );
    report.metric(
        "serve.backpressure_waits",
        hub_report.counters.backpressure_waits as f64 / with_hub.len() as f64,
        "count",
    );
    report.metric("serve.max_gbps", max_gbps, "GB/s");
    report.metric("serve.p50_ms", open.latency.median(), "ms");
    let p99 = open.latency.tail(99.0);
    note(format!(
        "serve open-loop latency: n={} documents, tail is p{} ({} beyond it)",
        p99.n, p99.pct, p99.beyond
    ));
    report.metric("serve.p99_ms", p99.value, "ms");
    let lag = open.lag.tail(99.0);
    note(format!("loadgen lag is p{} of n={} sends", lag.pct, lag.n));
    report.metric("loadgen.lag_p99_ms", lag.value, "ms");
    report.checked(attempted + open.sent as u64, failed + open.failed);
    tracer.close(group);
}
