//! rsq's benchmark: three workloads, end-to-end metrics measured with
//! tracing off, and a traced run that times each layer's public calls.
//!
//! `perfbench/run.py` is the entry point; it builds this program and
//! runs its two steps in separate processes, so the measuring process's
//! peak memory holds only what the workload itself needs:
//!
//! ```text
//! perfbench setup   --workload W --seed N --work DIR --threads T [--reps K]
//! perfbench measure --workload W --seed N --work DIR --threads T --seconds S --trace 0|1
//! ```
//!
//! `setup` generates the seed's inputs, writes them under DIR, compiles
//! the queries and warms up, K times, and reports the median time; then
//! it writes the expected outputs from each workload's oracle. `measure`
//! runs the workload for S seconds and checks every output. With
//! `--trace 1` it also runs every layer of every workload, one span per
//! call, writes the spans as Chrome trace-event JSON next to DIR, and
//! reports the per-layer metrics instead of the end-to-end ones.

mod batch;
mod catalog;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use report::{note, Report};
use stats::Samples;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// What every step needs to know.
pub struct Ctx {
    pub work: PathBuf,
    pub seed: u64,
    /// Worker threads for batch and serve: one per CPU.
    pub threads: usize,
}

/// Size and checksum of one generated input.
pub struct InputSum {
    pub name: String,
    pub bytes: u64,
    pub fnv: u64,
}

/// One workload's end-to-end result.
pub struct EndToEnd {
    /// Headline throughput.
    pub gbps: f64,
    /// Geometric mean of the per-query throughputs.
    pub geomean_gbps: f64,
    /// Raw latency samples, ms: iterations (closed loops) or documents
    /// (open loop).
    pub latency: Samples,
    /// The tail percentile this workload reports.
    pub tail_pct: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn new(tail_pct: f64) -> Self {
        EndToEnd {
            gbps: f64::NAN,
            geomean_gbps: f64::NAN,
            latency: Samples::new(),
            tail_pct,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn report(&self, workload: Workload, report: &mut Report) {
        let tail = self.latency.tail(self.tail_pct);
        note(format!(
            "{}: latency p50 and p{} from n={} raw samples ({} beyond the tail)",
            workload.name(),
            tail.pct,
            tail.n,
            tail.beyond
        ));
        note(format!(
            "{}.error_rate = {} ratio ({} of {} failed or mismatched)",
            workload.prefix(),
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        report.metric("gbps", self.gbps, "GB/s");
        report.metric("geomean_gbps", self.geomean_gbps, "GB/s");
        report.metric("p50_ms", self.latency.median(), "ms");
        report.metric("tail_ms", tail.value, "ms");
        report.checked(self.attempted, self.failed);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Catalog,
    Batch,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "catalog-doc" => Some(Workload::Catalog),
            "ndjson-batch" => Some(Workload::Batch),
            "serve-open" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog-doc",
            Workload::Batch => "ndjson-batch",
            Workload::Serve => "serve-open",
        }
    }

    /// The prefix of the workload's names in notes (`catalog.error_rate`).
    fn prefix(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::Batch => "batch",
            Workload::Serve => "serve",
        }
    }

    fn setup(self, ctx: &Ctx) -> std::io::Result<Vec<InputSum>> {
        match self {
            Workload::Catalog => catalog::setup(ctx),
            Workload::Batch => batch::setup(ctx),
            Workload::Serve => serve::setup(ctx),
        }
    }

    fn oracle(self, ctx: &Ctx) -> std::io::Result<()> {
        match self {
            Workload::Catalog => catalog::oracle(ctx),
            Workload::Batch => batch::oracle(ctx),
            Workload::Serve => serve::oracle(ctx),
        }
    }

    fn measure(self, ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> EndToEnd {
        match self {
            Workload::Catalog => catalog::measure(ctx, seconds, tracer),
            Workload::Batch => batch::measure(ctx, seconds, tracer),
            Workload::Serve => serve::measure(ctx, seconds, tracer),
        }
    }
}

struct Args {
    step: String,
    workload: Workload,
    ctx: Ctx,
    seconds: f64,
    trace: bool,
    reps: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let step = argv
        .first()
        .ok_or("missing step: setup or measure")?
        .clone();
    let get = |key: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let num = |v: Option<String>, key: &str| -> Result<Option<f64>, String> {
        v.map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("{key}: not a number: {s}"))
        })
        .transpose()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|_| "--seed: not a whole number")?;
    let work = PathBuf::from(get("--work").ok_or("missing --work")?);
    let threads = num(get("--threads"), "--threads")?.unwrap_or(1.0).max(1.0) as usize;
    Ok(Args {
        step,
        workload,
        ctx: Ctx {
            work,
            seed,
            threads,
        },
        seconds: num(get("--seconds"), "--seconds")?.unwrap_or(10.0),
        trace: get("--trace").as_deref() == Some("1"),
        reps: num(get("--reps"), "--reps")?.unwrap_or(3.0).max(1.0) as usize,
    })
}

/// The set-up step: `reps` timed repetitions, then the oracle once.
fn setup(args: &Args) -> Result<(), String> {
    let mut times = Samples::new();
    let mut sums = Vec::new();
    for _ in 0..args.reps {
        let started = Instant::now();
        sums = args.workload.setup(&args.ctx).map_err(|e| e.to_string())?;
        times.push(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    args.workload.oracle(&args.ctx).map_err(|e| e.to_string())?;
    note(format!(
        "{}: oracle outputs written in {:.2} s",
        args.workload.name(),
        started.elapsed().as_secs_f64()
    ));
    let total: u64 = sums.iter().map(|s| s.bytes).sum();
    for s in &sums {
        note(format!(
            "input {} {} bytes fnv1a {:016x}",
            s.name, s.bytes, s.fnv
        ));
    }
    note(format!(
        "{}: seed {} dataset {:.1} MB; setup median of {} repetitions",
        args.workload.name(),
        args.ctx.seed,
        total as f64 / 1e6,
        times.len()
    ));
    println!(
        "{{\"setup_s\": {:e}, \"dataset_mb\": {:e}}}",
        times.median(),
        total as f64 / 1e6
    );
    Ok(())
}

fn measure(args: &Args) -> Result<(), String> {
    let ctx = &args.ctx;
    note(format!(
        "context: simd backend {:?}; worker threads {}",
        rsq_simd::Simd::detect().kind(),
        ctx.threads
    ));
    match rsq_perf::CounterSet::open(rsq_perf::PerfMode::Auto).reason() {
        None => note("context: hardware counters available"),
        Some(reason) => note(format!("context: hardware counters unavailable: {reason}")),
    }
    let mut report = Report::default();
    if !args.trace {
        let e2e = args
            .workload
            .measure(ctx, args.seconds, &mut Tracer::new(false));
        e2e.report(args.workload, &mut report);
        report.finish();
        return Ok(());
    }
    // Traced run: the workload in alternating untraced and traced
    // slices, so drift hits both sides of the tracing overhead; then
    // every layer of every workload.
    let slice = args.seconds / 4.0;
    let mut tracer = Tracer::new(true);
    let (mut plain, mut traced) = (Samples::new(), Samples::new());
    for _ in 0..2 {
        for (side, tracer) in [
            (&mut plain, &mut Tracer::new(false)),
            (&mut traced, &mut tracer),
        ] {
            let e2e = args.workload.measure(ctx, slice, tracer);
            report.checked(e2e.attempted, e2e.failed);
            side.push(e2e.gbps);
        }
    }
    note(format!(
        "{}: untraced {:.4} GB/s, traced {:.4} GB/s (mean of 2 alternating slices each)",
        args.workload.name(),
        plain.sum() / 2.0,
        traced.sum() / 2.0
    ));
    report.metric(
        "trace.overhead_pct",
        (plain.sum() / traced.sum() - 1.0) * 100.0,
        "%",
    );
    catalog::layers(ctx, &mut tracer, &mut report);
    batch::layers(ctx, &mut tracer, &mut report);
    serve::layers(ctx, &mut tracer, &mut report);
    let path = ctx
        .work
        .with_file_name(format!("trace-{}.json", args.workload.name()));
    tracer.write_chrome(&path).map_err(|e| e.to_string())?;
    note(format!(
        "{} spans written to {}",
        tracer.len(),
        path.display()
    ));
    report.finish();
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.step.as_str() {
        "setup" => setup(&args),
        "measure" => measure(&args),
        other => Err(format!("unknown step {other}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
