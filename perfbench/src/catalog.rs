//! `catalog-doc`: the paper's setting. Eight catalog queries, each on
//! its own multi-megabyte dataset file in the page cache, run in a
//! closed loop through the CLI's in-process entry point
//! (`Invocation::parse` + `rsq_cli::run`) in default mode, which prints
//! every match's text, with `--mmap auto`.

use crate::inputs::{
    catalog_datasets, dataset_path, entry, fnv1a, generate_dataset, read_file, write_file,
    BATCH_IDS, CATALOG_IDS, ROUTED_IDS,
};
use crate::report::{note, Report};
use crate::stats::{geomean, Samples};
use crate::trace::Tracer;
use crate::{Ctx, EndToEnd, InputSum};
use rsq_engine::{CountSink, Engine, EngineOptions, RouteChoice};
use rsq_mmap::MapPolicy;
use rsq_query::Query;
use rsq_simd::{Block, QuoteState, Simd, BLOCK_SIZE};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn expected_path(work: &Path, id: &str) -> PathBuf {
    work.join("catalog").join(format!("expected-{id}.out"))
}

fn cli_args(query: &str, path: &Path) -> Vec<String> {
    vec![
        "--mmap".to_owned(),
        "auto".to_owned(),
        query.to_owned(),
        path.display().to_string(),
    ]
}

/// One CLI invocation, in process: what `rsq --mmap auto QUERY FILE`
/// does, with stdout captured in `out`.
fn run_cli(args: &[String], out: &mut Vec<u8>) -> Result<(), String> {
    out.clear();
    let invocation = rsq_cli::Invocation::parse(args)?;
    let mut err = Vec::new();
    rsq_cli::run(&invocation, out, &mut err).map_err(|e| e.to_string())
}

fn compile(query: &str, options: EngineOptions) -> Engine {
    let query = Query::parse(query).expect("catalog query parses");
    Engine::with_options(&query, options).expect("catalog query compiles")
}

/// One set-up repetition: generate and write every dataset, compile
/// every query, and warm up with one CLI pass.
pub fn setup(ctx: &Ctx) -> io::Result<Vec<InputSum>> {
    let mut sums = Vec::new();
    for dataset in catalog_datasets() {
        let text = generate_dataset(dataset, ctx.seed);
        write_file(&dataset_path(&ctx.work, dataset), text.as_bytes())?;
        sums.push(InputSum {
            name: format!("catalog/{}", dataset.letter()),
            bytes: text.len() as u64,
            fnv: fnv1a(text.as_bytes()),
        });
    }
    let mut out = Vec::new();
    for id in CATALOG_IDS {
        let e = entry(id);
        std::hint::black_box(compile(e.query, EngineOptions::default()));
        run_cli(
            &cli_args(e.query, &dataset_path(&ctx.work, e.dataset)),
            &mut out,
        )
        .map_err(io::Error::other)?;
    }
    Ok(sums)
}

/// Writes each query's expected output: the text of every node the DOM
/// oracle (`rsq_baselines::evaluate`, node semantics) selects, one per
/// line — what the CLI's default mode must print.
pub fn oracle(ctx: &Ctx) -> io::Result<()> {
    for dataset in catalog_datasets() {
        let doc = read_file(&dataset_path(&ctx.work, dataset));
        let dom = rsq_json::parse(&doc).map_err(|e| io::Error::other(e.to_string()))?;
        for id in CATALOG_IDS.iter().filter(|id| entry(id).dataset == dataset) {
            let query = Query::parse(entry(id).query).expect("catalog query parses");
            let mut expected = Vec::new();
            for span in rsq_baselines::evaluate(&query, &dom, rsq_baselines::Semantics::Node) {
                expected.extend_from_slice(&doc[span.start..span.end]);
                expected.push(b'\n');
            }
            write_file(&expected_path(&ctx.work, id), &expected)?;
        }
    }
    Ok(())
}

struct CatalogQuery {
    id: &'static str,
    args: Vec<String>,
    bytes: u64,
    expected: Vec<u8>,
}

fn load_queries(ctx: &Ctx) -> Vec<CatalogQuery> {
    CATALOG_IDS
        .iter()
        .map(|&id| {
            let e = entry(id);
            let path = dataset_path(&ctx.work, e.dataset);
            let bytes = std::fs::metadata(&path)
                .unwrap_or_else(|err| panic!("{}: {err}; run the setup step first", path.display()))
                .len();
            CatalogQuery {
                id,
                args: cli_args(e.query, &path),
                bytes,
                expected: read_file(&expected_path(&ctx.work, id)),
            }
        })
        .collect()
}

/// The closed loop: every iteration runs the eight queries once, in
/// order, and checks each output against the oracle's.
pub fn measure(ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> EndToEnd {
    let queries = load_queries(ctx);
    let mut out = Vec::new();
    let mut e2e = EndToEnd::new(90.0);
    let mut per_query = vec![Samples::new(); queries.len()];
    // One unchecked-time warm-up pass fills the page cache and the
    // allocator's free lists.
    for q in &queries {
        let _ = run_cli(&q.args, &mut out);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || e2e.latency.len() < 3 {
        let iteration = tracer.open("catalog.iteration", &e2e.latency.len().to_string(), None);
        let started = Instant::now();
        for (q, samples) in queries.iter().zip(&mut per_query) {
            let (result, secs) =
                tracer.time("cli.run", q.id, iteration, || run_cli(&q.args, &mut out));
            samples.push(secs);
            let ok = result.is_ok() && out == q.expected;
            if !ok && e2e.failed == 0 {
                note(format!(
                    "catalog-doc: {} differs from the DOM oracle ({:?}, {} vs {} bytes)",
                    q.id,
                    result.err(),
                    out.len(),
                    q.expected.len()
                ));
            }
            e2e.check(1, u64::from(!ok));
        }
        e2e.latency.push(started.elapsed().as_secs_f64() * 1e3);
        tracer.close(iteration);
    }
    // Time-weighted: every query ran once per iteration, so the bytes of
    // all runs over their summed wall time is the bytes of one pass over
    // the sum of the per-query means. On a host whose speed flips between
    // states, the mean moves with the share of time spent in each state,
    // where a median jumps between them.
    let means: Vec<f64> = per_query.iter().map(Samples::mean).collect();
    let bytes: Vec<f64> = queries.iter().map(|q| q.bytes as f64).collect();
    e2e.gbps = bytes.iter().sum::<f64>() / means.iter().sum::<f64>() / 1e9;
    let per_query_gbps: Vec<f64> = bytes.iter().zip(&means).map(|(b, t)| b / t / 1e9).collect();
    e2e.geomean_gbps = geomean(&per_query_gbps);
    for ((q, m), g) in queries.iter().zip(&means).zip(&per_query_gbps) {
        let matches = q.expected.iter().filter(|&&b| b == b'\n').count();
        note(format!(
            "catalog-doc {:<4} {:>8} matches  mean {:>8.3} ms  {:>6.3} GB/s  (n={})",
            q.id,
            matches,
            m * 1e3,
            g,
            e2e.latency.len()
        ));
    }
    e2e
}

/// Quote-classifies `input` block by block, zero-padding the tail.
fn classify_quotes(simd: Simd, input: &[u8]) -> u64 {
    let mut state = QuoteState::default();
    let mut acc = 0u64;
    let mut chunks = input.chunks_exact(BLOCK_SIZE);
    for chunk in &mut chunks {
        let block: &Block = chunk.try_into().expect("chunks_exact yields whole blocks");
        acc ^= simd.classify_quotes(block, &mut state);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut block: Block = [b' '; BLOCK_SIZE];
        block[..tail.len()].copy_from_slice(tail);
        acc ^= simd.classify_quotes(&block, &mut state);
    }
    acc
}

fn drain_structural(simd: Simd, input: &[u8]) -> u64 {
    let mut iter = rsq_classify::StructuralIterator::new(input, simd);
    let mut events = 0u64;
    while iter.next().is_some() {
        events += 1;
    }
    events
}

/// Writes each match's text the way the CLI's default mode does.
fn emit(doc: &[u8], positions: &[usize], out: &mut Vec<u8>) {
    for &pos in positions {
        match rsq_json::node_span(doc, pos) {
            Some(span) => out.extend_from_slice(&doc[span]),
            None => out.extend_from_slice(b"<malformed>"),
        }
        out.push(b'\n');
    }
}

/// The catalog layers: SIMD classification, structural iteration, query
/// compilation, the engine on each route, memmem, mmap loading, value
/// emission, and what the CLI adds on top of them.
pub fn layers(ctx: &Ctx, tracer: &mut Tracer, report: &mut Report) {
    let simd = Simd::detect();
    let group = tracer.open("layer.catalog", "catalog-doc", None);
    let datasets = catalog_datasets();
    let inputs: Vec<rsq_mmap::MmapInput> = datasets
        .iter()
        .map(|&d| {
            rsq_mmap::load(&dataset_path(&ctx.work, d), MapPolicy::Auto).expect("dataset loads")
        })
        .collect();
    let input_of = |id: &str| {
        let d = entry(id).dataset;
        &inputs[datasets
            .iter()
            .position(|&x| x == d)
            .expect("dataset listed")][..]
    };

    let (mut bytes, mut quote_secs, mut structural_secs) = (0.0, 0.0, 0.0);
    for (d, input) in datasets.iter().zip(&inputs) {
        bytes += input.len() as f64;
        quote_secs += tracer
            .repeat("simd.classify_quotes", d.letter(), group, 5, 0.05, || {
                classify_quotes(simd, input)
            })
            .median();
        structural_secs += tracer
            .repeat(
                "classify.structural_iterator",
                d.letter(),
                group,
                5,
                0.05,
                || drain_structural(simd, input),
            )
            .median();
    }
    report.metric("simd.quotes_gbps", bytes / quote_secs / 1e9, "GB/s");
    report.metric(
        "classify.structural_gbps",
        bytes / structural_secs / 1e9,
        "GB/s",
    );

    let mut compile_us = Vec::new();
    for id in CATALOG_IDS.iter().chain(&BATCH_IDS) {
        let text = entry(id).query;
        let s = tracer.repeat("query.compile", id, group, 50, 0.01, || {
            compile(text, EngineOptions::default())
        });
        compile_us.push(s.median() * 1e6);
    }
    report.metric(
        "query.compile_us",
        compile_us.iter().sum::<f64>() / compile_us.len() as f64,
        "us",
    );

    let general_options = EngineOptions {
        route: RouteChoice::General,
        ..EngineOptions::default()
    };
    let (mut general_bytes, mut general_secs) = (0.0, 0.0);
    let (mut routed_bytes, mut routed_secs) = (0.0, 0.0);
    let (mut skipped, mut profiled, mut jumps, mut declined) = (0u64, 0u64, 0u64, 0u64);
    let (mut emit_bytes, mut emit_secs) = (0.0, 0.0);
    let (mut load_secs, mut self_secs) = (0.0, 0.0);
    let mut out = Vec::new();
    for id in CATALOG_IDS {
        let e = entry(id);
        let input = input_of(id);
        let path = dataset_path(&ctx.work, e.dataset);
        let general = compile(e.query, general_options);
        let auto = compile(e.query, EngineOptions::default());

        let g = tracer
            .repeat("engine.count.general", id, group, 5, 0.05, || {
                general.count(input)
            })
            .median();
        general_bytes += input.len() as f64;
        general_secs += g;
        if ROUTED_IDS.contains(&id) {
            let r = tracer
                .repeat("engine.count.routed", id, group, 5, 0.05, || {
                    auto.count(input)
                })
                .median();
            routed_bytes += input.len() as f64;
            routed_secs += r;
            report.metric(format!("query.route_gain.{id}"), g / r, "ratio");
        }

        let (profile, _) = tracer.time("engine.try_run_with_profile", id, group, || {
            auto.try_run_with_profile(input, &mut CountSink::new())
        });
        let profile = profile.expect("catalog dataset runs");
        skipped += profile.bytes_skipped.total();
        profiled += input.len() as u64;
        jumps += profile.stats.memmem_jumps;
        declined += profile.stats.memmem_declined;

        // The CLI run split into the calls it makes: load, engine, emit.
        let load = tracer
            .repeat("mmap.load", id, group, 5, 0.02, || {
                rsq_mmap::load(&path, MapPolicy::Auto).map(|m| m.len())
            })
            .median();
        let positions = auto.try_positions(input).expect("catalog dataset runs");
        let engine = tracer
            .repeat("engine.try_positions", id, group, 5, 0.05, || {
                auto.try_positions(input).map(|p| p.len())
            })
            .median();
        let mut buf = Vec::new();
        let emitted = tracer
            .repeat("json.node_span", id, group, 5, 0.02, || {
                buf.clear();
                emit(input, &positions, &mut buf);
                buf.len()
            })
            .median();
        if id == "N2" || id == "B1" {
            emit_bytes += buf.len() as f64;
            emit_secs += emitted;
        }
        let args = cli_args(e.query, &path);
        let cli = tracer
            .repeat("cli.run", id, group, 5, 0.05, || run_cli(&args, &mut out))
            .median();
        load_secs += load;
        self_secs += cli - load - engine - emitted;
    }
    report.metric(
        "engine.general_gbps",
        general_bytes / general_secs / 1e9,
        "GB/s",
    );
    report.metric(
        "engine.routed_gbps",
        routed_bytes / routed_secs / 1e9,
        "GB/s",
    );
    report.metric(
        "engine.skip_rate_pct",
        skipped as f64 / profiled as f64 * 100.0,
        "%",
    );
    report.metric(
        "engine.memmem_decline_ratio",
        declined as f64 / (jumps + declined) as f64,
        "ratio",
    );
    report.metric("mmap.load_ms", load_secs * 1e3, "ms");
    report.metric("json.emit_mbps", emit_bytes / emit_secs / 1e6, "MB/s");
    report.metric("cli.self_ms", self_secs * 1e3, "ms");

    let (mut found_bytes, mut found_secs) = (0.0, 0.0);
    for (id, label) in [("B3r", "videoChapters"), ("Tsr", "count")] {
        let needle = format!("\"{label}\"");
        let finder = rsq_memmem::Finder::new(needle.as_bytes());
        let input = input_of(id);
        found_secs += tracer
            .repeat("memmem.find_iter", id, group, 5, 0.05, || {
                finder.find_iter(input).count()
            })
            .median();
        found_bytes += input.len() as f64;
    }
    report.metric("memmem.find_gbps", found_bytes / found_secs / 1e9, "GB/s");
    tracer.close(group);
}
