//! Shared harness for the paper-reproduction benchmarks.
//!
//! Regenerates every table and figure of §5 / Appendices B–C of
//! *Supporting Descendants in SIMD-Accelerated JSONPath* (ASPLOS 2023):
//!
//! | Artifact | Criterion bench | `experiments` subcommand |
//! |---|---|---|
//! | Table 2 (classification cost) | `classification` | `table2` |
//! | Table 3 (dataset stats) | — | `table3` |
//! | Table 4 / Figure 4 (Experiment A) | `exp_a_overhead` | `a` |
//! | Table 5 / Figure 5 (Experiment B) | `exp_b_descendants` | `b` |
//! | Table 6 / Figure 6 (Experiment C) | `exp_c_limits` | `c` |
//! | Table 7 (Experiment D) | `exp_d_scalability` | `d` |
//! | Appendix C result matrix | — | `appendix-c` |
//! | Appendix D / Table 9 (semantics) | — | `semantics` |
//! | Design-choice ablations (§5.6) | `ablations` | `ablations` |
//!
//! Dataset size defaults to 16 MB per dataset and can be scaled with the
//! `RSQ_DATASET_MB` environment variable (the paper uses 0.5–1.2 GB
//! originals; the throughput *shape* is size-invariant, which Experiment D
//! verifies).

use rsq_baselines::{SkiEngine, SurferEngine};
use rsq_datagen::catalog::CatalogEntry;
use rsq_datagen::{Dataset, GenConfig};
use rsq_engine::{CountSink, Engine, Histogram, RunStats, SkipBytes};
use rsq_obs::STATS_SCHEMA_VERSION;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Deterministic seed for every benchmark dataset.
pub const BENCH_SEED: u64 = 0x5eed_2023;

/// Generates (once) and caches all benchmark datasets at the configured
/// size.
pub fn datasets() -> &'static HashMap<Dataset, Vec<u8>> {
    static CACHE: OnceLock<HashMap<Dataset, Vec<u8>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let config = GenConfig {
            target_bytes: rsq_datagen::default_target_bytes(),
            seed: BENCH_SEED,
        };
        Dataset::all()
            .into_iter()
            .map(|d| (d, d.generate(&config).into_bytes()))
            .collect()
    })
}

/// The input bytes for a dataset.
#[must_use]
pub fn dataset(dataset: Dataset) -> &'static [u8] {
    &datasets()[&dataset]
}

/// One engine's result on one query: match count and throughput.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Matches reported.
    pub count: u64,
    /// Throughput in gigabytes per second (10^9 bytes).
    pub gbps: f64,
}

/// Times `f` (which returns a match count) over `input_len` bytes:
/// one warm-up run, then the best of `reps` timed runs.
pub fn measure(input_len: usize, reps: usize, mut f: impl FnMut() -> u64) -> Measurement {
    let count = f(); // warm-up, also captures the count
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let c = f();
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(c, count, "nondeterministic match count");
        best = best.min(elapsed);
    }
    Measurement {
        count,
        gbps: input_len as f64 / 1e9 / best,
    }
}

/// The engines compared in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's engine (this repository's reproduction).
    Rsq,
    /// The JSONSki-style descendant-free baseline.
    Ski,
    /// The JsonSurfer-style scalar baseline.
    Surfer,
}

impl EngineKind {
    /// Column label used in the output tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Rsq => "rsq",
            EngineKind::Ski => "jsonski*",
            EngineKind::Surfer => "jsurfer*",
        }
    }
}

/// Measures one catalog query on one engine; `None` when the engine does
/// not support the query (JSONSki on descendants).
#[must_use]
pub fn run_engine(kind: EngineKind, entry: &CatalogEntry, reps: usize) -> Option<Measurement> {
    let input = dataset(entry.dataset);
    match kind {
        EngineKind::Rsq => {
            let engine = Engine::from_text(entry.query).expect("catalog query compiles");
            Some(measure(input.len(), reps, || engine.count(input)))
        }
        EngineKind::Ski => {
            let engine = SkiEngine::from_text(entry.query).ok()?;
            Some(measure(input.len(), reps, || engine.count(input)))
        }
        EngineKind::Surfer => {
            let engine = SurferEngine::from_text(entry.query).expect("catalog query compiles");
            Some(measure(input.len(), reps, || engine.count(input)))
        }
    }
}

/// Formats an optional measurement as `count@GB/s` or `-`.
#[must_use]
pub fn cell(m: Option<Measurement>) -> String {
    match m {
        Some(m) => format!("{:>9} {:>6.2}", m.count, m.gbps),
        None => format!("{:>9} {:>6}", "-", "-"),
    }
}

/// Runs `entry`'s query over its dataset once, collecting Tier A
/// [`RunStats`] (no timing — statistics are run-deterministic, so one pass
/// suffices).
#[must_use]
pub fn run_stats(entry: &CatalogEntry) -> RunStats {
    let engine = Engine::from_text(entry.query).expect("catalog query compiles");
    let input = dataset(entry.dataset);
    let mut stats = RunStats::for_document(input.len());
    engine
        .try_run_with_recorder(input, &mut CountSink::new(), &mut stats)
        .expect("catalog run succeeds");
    stats
}

/// Compacts a JSON document to a single line by removing all whitespace
/// outside strings — the shape NDJSON corpora need, one document per
/// line.
///
/// The scan is quote-aware (a backslash escapes the next byte inside a
/// string), mirroring the state machine `rsq_batch::split_ndjson` uses
/// on the other side.
///
/// # Examples
///
/// ```
/// let doc = "{\n  \"a b\": [1,\n 2]\n}";
/// assert_eq!(rsq_bench::compact_json(doc.as_bytes()), b"{\"a b\":[1,2]}");
/// ```
#[must_use]
pub fn compact_json(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len());
    let mut in_string = false;
    let mut escaped = false;
    for &b in input {
        if in_string {
            out.push(b);
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
            out.push(b);
        } else if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            out.push(b);
        }
    }
    out
}

/// One row of a machine-readable benchmark report: an experiment name, a
/// measured configuration, its throughput, and (for rsq runs) the Tier A
/// run statistics.
#[derive(Clone, Debug)]
pub struct ReportEntry {
    /// The experiment this row belongs to (e.g. `"experiment-a"`).
    pub experiment: String,
    /// Configuration label within the experiment: catalog query id,
    /// ablation variant, engine name.
    pub name: String,
    /// The query text, when the row measures one.
    pub query: Option<String>,
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Matches reported.
    pub count: u64,
    /// Throughput in gigabytes per second.
    pub gbps: f64,
    /// Throughput relative to the experiment's baseline configuration
    /// (used by `batch-scaling`: speedup vs the single-threaded run).
    pub speedup: Option<f64>,
    /// Tier A run statistics, when collected for this row.
    pub stats: Option<RunStats>,
    /// Tier C per-technique bytes elided, when profiled (serialised with
    /// the derived `skip_rate_pct`).
    pub bytes_skipped: Option<SkipBytes>,
    /// Per-document latency histogram, when the row measures a batch run.
    pub latency: Option<Histogram>,
    /// Multiplex-corrected CPU cycles per input byte, when hardware
    /// counters were readable (the `kernel-efficiency` experiment;
    /// `bench-diff` gates regressions on this column).
    pub cycles_per_byte: Option<f64>,
    /// Multiplex-corrected instructions per input byte, when hardware
    /// counters were readable.
    pub instructions_per_byte: Option<f64>,
}

/// A machine-readable benchmark report, serialised as a single JSON
/// document (`experiments --json <path>`).
#[derive(Clone, Debug, Default)]
pub struct Report {
    entries: Vec<ReportEntry>,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// Appends a row.
    pub fn push(&mut self, entry: ReportEntry) {
        self.entries.push(entry);
    }

    /// Rows recorded so far.
    #[must_use]
    pub fn entries(&self) -> &[ReportEntry] {
        &self.entries
    }

    /// Serialises the report as a JSON document: a top-level
    /// `schema_version` (see [`STATS_SCHEMA_VERSION`]) and an `entries`
    /// array; every row carries `experiment`, `name`, `input_bytes`,
    /// `count`, `gbps`, and optionally `query`, the nested `stats` object
    /// from [`RunStats::to_json`], `bytes_skipped`/`skip_rate_pct`, a
    /// `latency` histogram, and hardware-counter rates
    /// (`cycles_per_byte`/`instructions_per_byte`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"schema_version\":{STATS_SCHEMA_VERSION},\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"experiment\":\"{}\",\"name\":\"{}\"",
                escape_json(&e.experiment),
                escape_json(&e.name)
            ));
            if let Some(q) = &e.query {
                s.push_str(&format!(",\"query\":\"{}\"", escape_json(q)));
            }
            s.push_str(&format!(
                ",\"input_bytes\":{},\"count\":{},\"gbps\":{:.6}",
                e.input_bytes, e.count, e.gbps
            ));
            if let Some(speedup) = e.speedup {
                s.push_str(&format!(",\"speedup\":{speedup:.4}"));
            }
            if let Some(stats) = &e.stats {
                s.push_str(&format!(",\"stats\":{}", stats.to_json()));
            }
            if let Some(bytes_skipped) = &e.bytes_skipped {
                let rate = if e.input_bytes == 0 {
                    0.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        bytes_skipped.total() as f64 / e.input_bytes as f64 * 100.0
                    }
                };
                s.push_str(&format!(
                    ",\"bytes_skipped\":{},\"skip_rate_pct\":{rate:.2}",
                    bytes_skipped.to_json()
                ));
            }
            if let Some(latency) = &e.latency {
                s.push_str(&format!(",\"latency\":{}", latency.to_json()));
            }
            if let Some(cpb) = e.cycles_per_byte {
                s.push_str(&format!(",\"cycles_per_byte\":{cpb:.4}"));
            }
            if let Some(ipb) = e.instructions_per_byte {
                s.push_str(&format!(",\"instructions_per_byte\":{ipb:.4}"));
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_count_and_positive_throughput() {
        let m = measure(1_000_000, 2, || 42);
        assert_eq!(m.count, 42);
        assert!(m.gbps > 0.0);
    }

    #[test]
    fn engine_kinds_have_labels() {
        for k in [EngineKind::Rsq, EngineKind::Ski, EngineKind::Surfer] {
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn report_serialises_to_valid_json() {
        let mut report = Report::default();
        report.push(ReportEntry {
            experiment: "experiment-a".to_owned(),
            name: "B1".to_owned(),
            query: Some(r#"$.products[*]."video-info".frames"#.to_owned()),
            input_bytes: 1_000,
            count: 7,
            gbps: 1.25,
            speedup: None,
            stats: Some(RunStats::default()),
            bytes_skipped: None,
            latency: None,
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
        report.push(ReportEntry {
            experiment: "stats-overhead".to_owned(),
            name: "with-stats".to_owned(),
            query: None,
            input_bytes: 2_000,
            count: 3,
            gbps: 0.5,
            speedup: Some(2.0),
            stats: None,
            bytes_skipped: None,
            latency: None,
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
        let json = report.to_json();
        let dom = rsq_json::parse(json.as_bytes()).expect("report JSON parses");
        let text = format!("{dom:?}");
        for key in ["entries", "experiment", "gbps", "stats", "skips", "speedup"] {
            assert!(text.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn compact_json_preserves_strings() {
        // Whitespace inside strings (including an escaped quote before a
        // space) must survive; everything structural collapses.
        let doc = br#"{ "a \" b" : [ 1 ,
            "x y" ] }"#;
        assert_eq!(compact_json(doc), br#"{"a \" b":[1,"x y"]}"#.to_vec());
        // An escaped backslash closes the escape: the quote after it ends
        // the string, and the newline after that is structural.
        let doc = b"{\"k\":\"v\\\\\"\n}";
        assert_eq!(compact_json(doc), b"{\"k\":\"v\\\\\"}".to_vec());
    }
}
