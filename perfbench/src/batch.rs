//! `ndjson-batch`: several thousand small documents (1–64 KiB, so each
//! fits in L2) run through one `BatchEngine` with one worker per CPU, in
//! count mode, for three general-route descendant queries. Per-document
//! fixed costs dominate: engine entry, scratch reuse, the work queue,
//! the query cache and thread scaling.

use crate::inputs::{
    corpus_path, entry, fnv1a, generate_corpus, read_file, read_numbers, write_file, write_numbers,
    BATCH_IDS,
};
use crate::report::{note, Report};
use crate::stats::{geomean, Samples};
use crate::trace::Tracer;
use crate::{Ctx, EndToEnd, InputSum};
use rsq_batch::{split_ndjson, BatchEngine, BatchOptions, BatchResult};
use rsq_engine::Engine;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn expected_path(work: &Path, id: &str) -> PathBuf {
    work.join("batch").join(format!("expected-{id}.counts"))
}

/// Marks a document the sequential oracle could not run.
const ORACLE_ERROR: u64 = u64::MAX;

fn batch_engine(threads: usize) -> BatchEngine {
    BatchEngine::new(BatchOptions {
        threads,
        ..BatchOptions::default()
    })
}

pub fn split(corpus: &[u8]) -> Vec<&[u8]> {
    split_ndjson(corpus)
        .into_iter()
        .map(|r| &corpus[r])
        .collect()
}

/// One set-up repetition: generate and write the corpus, compile the
/// queries, and warm up with one batch pass per query.
pub fn setup(ctx: &Ctx) -> io::Result<Vec<InputSum>> {
    let corpus = generate_corpus(ctx.seed);
    write_file(&corpus_path(&ctx.work), &corpus)?;
    let docs = split(&corpus);
    let engine = batch_engine(ctx.threads);
    for id in BATCH_IDS {
        std::hint::black_box(Engine::from_text(entry(id).query).expect("batch query compiles"));
        std::hint::black_box(
            engine
                .run_slices(entry(id).query, &docs)
                .expect("batch query compiles"),
        );
    }
    Ok(vec![InputSum {
        name: "corpus".to_owned(),
        bytes: corpus.len() as u64,
        fnv: fnv1a(&corpus),
    }])
}

/// Writes the per-document match counts of a sequential `Engine::count`
/// loop: the outcomes every batch run must reproduce.
pub fn oracle(ctx: &Ctx) -> io::Result<()> {
    let corpus = read_file(&corpus_path(&ctx.work));
    let docs = split(&corpus);
    for id in BATCH_IDS {
        let engine = Engine::from_text(entry(id).query).expect("batch query compiles");
        let counts: Vec<u64> = docs
            .iter()
            .map(|d| engine.try_count(d).unwrap_or(ORACLE_ERROR))
            .collect();
        write_numbers(&expected_path(&ctx.work, id), &counts)?;
    }
    Ok(())
}

/// Documents whose outcome failed or differs from the expected count.
fn mismatches(result: &BatchResult, expected: &[u64]) -> u64 {
    let differing = result
        .outcomes
        .iter()
        .zip(expected)
        .filter(|(o, &e)| !matches!(o, Ok(out) if out.count == e && e != ORACLE_ERROR))
        .count();
    (differing + expected.len().abs_diff(result.outcomes.len())) as u64
}

pub fn measure(ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> EndToEnd {
    let corpus = read_file(&corpus_path(&ctx.work));
    let docs = split(&corpus);
    let expected: Vec<Vec<u64>> = BATCH_IDS
        .iter()
        .map(|id| read_numbers(&expected_path(&ctx.work, id)))
        .collect();
    let engine = batch_engine(ctx.threads);
    let mut e2e = EndToEnd::new(90.0);
    let mut per_query = vec![Samples::new(); BATCH_IDS.len()];
    for id in BATCH_IDS {
        let _ = engine.run_slices(entry(id).query, &docs);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || e2e.latency.len() < 3 {
        let iteration = tracer.open("batch.iteration", &e2e.latency.len().to_string(), None);
        let started = Instant::now();
        for ((id, samples), want) in BATCH_IDS.iter().zip(&mut per_query).zip(&expected) {
            let (result, secs) = tracer.time("batch.run_slices", id, iteration, || {
                engine.run_slices(entry(id).query, &docs)
            });
            samples.push(secs);
            let failed = match &result {
                Ok(r) => mismatches(r, want),
                Err(_) => docs.len() as u64,
            };
            if failed > 0 && e2e.failed == 0 {
                note(format!(
                    "ndjson-batch: {id}: {failed} documents differ from the sequential oracle"
                ));
            }
            e2e.check(docs.len() as u64, failed);
        }
        e2e.latency.push(started.elapsed().as_secs_f64() * 1e3);
        tracer.close(iteration);
    }
    let bytes = corpus.len() as f64;
    // Time-weighted, as in catalog-doc: corpus bytes of all runs over
    // their summed wall time.
    let means: Vec<f64> = per_query.iter().map(Samples::mean).collect();
    e2e.gbps = bytes * BATCH_IDS.len() as f64 / means.iter().sum::<f64>() / 1e9;
    let per_query_gbps: Vec<f64> = means.iter().map(|t| bytes / t / 1e9).collect();
    e2e.geomean_gbps = geomean(&per_query_gbps);
    note(format!(
        "ndjson-batch corpus: {} documents, {:.1} MB, {} threads",
        docs.len(),
        bytes / 1e6,
        ctx.threads
    ));
    for (((id, m), g), want) in BATCH_IDS
        .iter()
        .zip(&means)
        .zip(&per_query_gbps)
        .zip(&expected)
    {
        let matching = want.iter().filter(|&&c| c > 0).count();
        note(format!(
            "ndjson-batch {id:<4} {matching:>5} matching documents  mean {:>8.3} ms  {g:>6.3} GB/s",
            m * 1e3
        ));
    }
    e2e
}

/// GB/s of one `BatchEngine` over the corpus: total bytes of all
/// queries over the sum of each query's median run time.
fn batch_gbps(
    tracer: &mut Tracer,
    name: &'static str,
    group: Option<crate::trace::SpanId>,
    engine: &BatchEngine,
    docs: &[&[u8]],
    bytes: f64,
) -> f64 {
    let secs: f64 = BATCH_IDS
        .iter()
        .map(|id| {
            tracer
                .repeat(name, id, group, 3, 0.1, || {
                    engine.run_slices(entry(id).query, docs)
                })
                .median()
        })
        .sum();
    bytes * BATCH_IDS.len() as f64 / secs / 1e9
}

/// The batch layers: NDJSON splitting, the engine on small documents,
/// the batch engine at one thread and at one per CPU, and the worker
/// pool's own accounting.
pub fn layers(ctx: &Ctx, tracer: &mut Tracer, report: &mut Report) {
    let group = tracer.open("layer.batch", "ndjson-batch", None);
    let corpus = read_file(&corpus_path(&ctx.work));
    let bytes = corpus.len() as f64;
    let split_secs = tracer
        .repeat("batch.split_ndjson", "corpus", group, 5, 0.1, || {
            split_ndjson(&corpus).len()
        })
        .median();
    report.metric("batch.split_gbps", bytes / split_secs / 1e9, "GB/s");
    let docs = split(&corpus);

    let mut smalldoc_secs = 0.0;
    for id in BATCH_IDS {
        let engine = Engine::from_text(entry(id).query).expect("batch query compiles");
        smalldoc_secs += tracer
            .repeat("engine.count.smalldoc", id, group, 3, 0.1, || {
                docs.iter().map(|d| engine.count(d)).sum::<u64>()
            })
            .median();
    }
    let smalldoc = bytes * BATCH_IDS.len() as f64 / smalldoc_secs / 1e9;
    report.metric("engine.smalldoc_gbps", smalldoc, "GB/s");

    let t1 = batch_gbps(
        tracer,
        "batch.run_slices.t1",
        group,
        &batch_engine(1),
        &docs,
        bytes,
    );
    let tn = batch_gbps(
        tracer,
        "batch.run_slices",
        group,
        &batch_engine(ctx.threads),
        &docs,
        bytes,
    );
    report.metric("batch.t1_gbps", t1, "GB/s");
    report.metric("batch.scaling", tn / t1, "ratio");
    report.metric("batch.tax", smalldoc / t1, "ratio");
    note(format!(
        "batch at {} threads: {tn:.3} GB/s ({} documents)",
        ctx.threads,
        docs.len()
    ));

    // The profiled pool: the same passes with the worker accounting on.
    let profiled = BatchEngine::new(BatchOptions {
        threads: ctx.threads,
        profile: true,
        ..BatchOptions::default()
    });
    let (mut busy_ns, mut wall_ns, mut wait_ns) = (0.0, 0.0, 0.0);
    let (mut hits, mut lookups, mut claims, mut runs) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..3 {
        for id in BATCH_IDS {
            let (result, secs) = tracer.time("batch.run_slices.profiled", id, group, || {
                profiled.run_slices(entry(id).query, &docs)
            });
            let result = result.expect("batch query compiles");
            let profile = result
                .profile
                .as_ref()
                .expect("profiled run returns a profile");
            let threads = profile.workers.len().max(1) as f64;
            busy_ns += profile
                .workers
                .iter()
                .map(|w| w.busy_ns as f64)
                .sum::<f64>();
            wait_ns += profile
                .workers
                .iter()
                .map(|w| w.queue_wait_ns as f64)
                .sum::<f64>();
            wall_ns += secs * 1e9 * threads;
            hits += result.counters.cache_hits;
            lookups += result.counters.cache_hits + result.counters.cache_misses;
            claims += result.counters.queue_claims;
            runs += 1;
        }
    }
    report.metric("batch.worker_busy_frac", busy_ns / wall_ns, "ratio");
    report.metric("batch.queue_wait_ms", wait_ns / 1e6 / runs as f64, "ms");
    report.metric(
        "batch.cache_hit_ratio",
        hits as f64 / lookups as f64,
        "ratio",
    );
    report.metric("batch.queue_claims", claims as f64 / runs as f64, "count");
    tracer.close(group);
}
