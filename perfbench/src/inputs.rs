//! Seeded inputs: the catalog datasets and the NDJSON corpus.
//!
//! Everything is derived from the run's `--seed`, so one seed always
//! yields the same bytes and another seed yields different bytes with
//! the same shape. The program under test only ever sees these inputs.

use rsq_datagen::catalog::{by_id, CatalogEntry};
use rsq_datagen::{Dataset, GenConfig};
use std::io;
use std::path::{Path, PathBuf};

/// The catalog-doc queries: general-route first, then routed ones.
pub const CATALOG_IDS: [&str; 8] = ["A2", "B3r", "C2r", "Tsr", "B1", "N2", "O1", "W1"];

/// Catalog queries the shape analyzer routes to the fast path.
pub const ROUTED_IDS: [&str; 4] = ["B1", "N2", "O1", "W1"];

/// Size of each catalog dataset file (decimal bytes, a lower bound).
pub const DATASET_BYTES: usize = 4_000_000;

/// The NDJSON-corpus queries (ndjson-batch); all take the general route.
pub const BATCH_IDS: [&str; 3] = ["B1r", "C2r", "Ts4"];

/// The serve-open query, answered in values mode.
pub const SERVE_ID: &str = "B1r";

/// Documents in the NDJSON corpus.
pub const CORPUS_DOCS: usize = 3000;

/// Document sizes are log-uniform over this byte range.
const DOC_BYTES: (f64, f64) = (1024.0, 65_536.0);

/// The datasets corpus documents are drawn from.
const CORPUS_DATASETS: [Dataset; 3] = [Dataset::BestBuy, Dataset::Crossref, Dataset::TwitterSmall];

pub fn entry(id: &str) -> CatalogEntry {
    by_id(id).unwrap_or_else(|| panic!("catalog has no query {id}"))
}

/// The distinct datasets the catalog queries run on, in first-use order.
pub fn catalog_datasets() -> Vec<Dataset> {
    let mut out: Vec<Dataset> = Vec::new();
    for id in CATALOG_IDS {
        let d = entry(id).dataset;
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

pub fn dataset_path(work: &Path, dataset: Dataset) -> PathBuf {
    work.join("catalog")
        .join(format!("{}.json", dataset.letter()))
}

pub fn generate_dataset(dataset: Dataset, seed: u64) -> String {
    dataset.generate(&GenConfig {
        target_bytes: DATASET_BYTES,
        seed,
    })
}

pub fn corpus_path(work: &Path) -> PathBuf {
    work.join("corpus.ndjson")
}

/// SplitMix64: a tiny deterministic generator for corpus choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The NDJSON corpus: [`CORPUS_DOCS`] compacted documents, each drawn
/// from one of [`CORPUS_DATASETS`] with a log-uniform size target.
pub fn generate_corpus(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix(seed ^ 0x00c0_ffee_5eed);
    let mut out = Vec::with_capacity(CORPUS_DOCS * 16 * 1024);
    let (lo, hi) = (DOC_BYTES.0.ln(), DOC_BYTES.1.ln());
    for _ in 0..CORPUS_DOCS {
        let dataset = CORPUS_DATASETS[(rng.next() % CORPUS_DATASETS.len() as u64) as usize];
        let target = (lo + (hi - lo) * rng.unit()).exp() as usize;
        let doc = dataset.generate(&GenConfig {
            target_bytes: target,
            seed: rng.next(),
        });
        out.extend_from_slice(&rsq_bench::compact_json(doc.as_bytes()));
        out.push(b'\n');
    }
    out
}

/// FNV-1a over `bytes`: the data checksum stamped in the report.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, bytes)
}

pub fn read_file(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run the setup step first",
            path.display()
        )
    })
}

/// Newline-separated integers, as the setup step writes expected counts
/// and offsets.
pub fn write_numbers(path: &Path, values: &[u64]) -> io::Result<()> {
    let text: String = values.iter().map(|v| format!("{v}\n")).collect();
    write_file(path, text.as_bytes())
}

pub fn read_numbers(path: &Path) -> Vec<u64> {
    String::from_utf8(read_file(path))
        .expect("number file is UTF-8")
        .lines()
        .map(|l| l.parse().expect("number file holds integers"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = generate_corpus(1);
        let b = generate_corpus(1);
        let c = generate_corpus(2);
        assert_eq!(fnv1a(&a), fnv1a(&b));
        assert_ne!(fnv1a(&a), fnv1a(&c));
        assert_eq!(rsq_batch::split_ndjson(&a).len(), CORPUS_DOCS);
    }

    #[test]
    fn workload_queries_take_the_documented_routes() {
        for id in CATALOG_IDS.iter().chain(&BATCH_IDS) {
            let engine = rsq_engine::Engine::from_text(entry(id).query).expect("compiles");
            let routed = engine.route() != rsq_engine::Route::General;
            assert_eq!(routed, ROUTED_IDS.contains(id), "{id}");
        }
    }
}
