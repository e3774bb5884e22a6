//! The result a measuring step prints: named metrics with units, the
//! correctness tally, and human-readable notes before it.
//!
//! Notes go to stdout as `# ...` lines; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations whose output was checked (query runs, documents).
    pub attempted: u64,
    /// Checked operations that errored or differed from the oracle.
    pub failed: u64,
}

/// Prints one human-readable line of the report.
pub fn note(text: impl AsRef<str>) {
    println!("# {}", text.as_ref());
}

impl Report {
    /// Adds a metric. A non-finite value (a ratio with a zero base, say)
    /// is left out of the JSON and the note says so.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            note(format!("metric {name} = {value:.6} {unit}"));
            self.metrics.push((name, value, unit));
        } else {
            note(format!("metric {name} absent: no finite value ({value})"));
        }
    }

    /// Adds the outcome of checking `attempted` operations of which
    /// `failed` did not match.
    pub fn checked(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints the final JSON line.
    pub fn finish(&self) {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}
