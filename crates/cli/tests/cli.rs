//! End-to-end tests of the `rsq` binary: exit codes per failure class,
//! stderr-only diagnostics, and chunked stdin consumption.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_rsq");

fn rsq(args: &[&str], stdin: Option<&[u8]>) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    if let Some(bytes) = stdin {
        // Feed the document in small fragments so the reader sees many
        // short reads rather than one big one. The child may exit before
        // draining stdin (bad query, tripped limit) — a broken pipe here
        // is expected, not a test failure.
        let mut pipe = child.stdin.take().expect("stdin piped");
        for chunk in bytes.chunks(7) {
            if pipe.write_all(chunk).and_then(|()| pipe.flush()).is_err() {
                break;
            }
        }
        drop(pipe);
    }
    child.wait_with_output().expect("binary exits")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("utf-8 stderr")
}

const DOC: &[u8] = br#"{"a": [1, {"b": 2}], "b": 3}"#;

#[test]
fn matches_from_chunked_stdin() {
    let out = rsq(&["--count", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "2\n");

    let out = rsq(&["$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), "2\n3\n");
}

#[test]
fn usage_errors_exit_2() {
    let out = rsq(&["--nope", "$..a"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    assert!(stdout(&out).is_empty(), "diagnostics must not reach stdout");
}

#[test]
fn bad_query_exits_3() {
    let out = rsq(&["--count", "definitely not jsonpath"], Some(DOC));
    assert_eq!(out.status.code(), Some(3));
    assert!(stdout(&out).is_empty());
    assert!(!stderr(&out).is_empty());
}

#[test]
fn unreadable_input_exits_4() {
    let out = rsq(&["--count", "$..a", "/nonexistent/rsq-it.json"], None);
    assert_eq!(out.status.code(), Some(4));
    assert!(stdout(&out).is_empty());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn tripped_limit_exits_5() {
    let out = rsq(&["--count", "--max-matches", "1", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("limit"));

    let out = rsq(&["--count", "--max-bytes", "10", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(5));

    let out = rsq(&["--count", "--max-depth", "1", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(5));
}

#[test]
fn strict_mode_rejects_malformed_with_6() {
    let out = rsq(&["--count", "--strict", "$..b"], Some(br#"{"a": [1, 2}"#));
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("malformed"));
    assert!(stdout(&out).is_empty());

    // The same document passes without --strict (lenient best-effort).
    let out = rsq(&["--count", "$..b"], Some(br#"{"a": [1, 2}"#));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn strict_well_formed_still_matches() {
    let out = rsq(&["--count", "--strict", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "2\n");
}

#[test]
fn stats_json_goes_to_stderr_and_leaves_stdout_identical() {
    let plain = rsq(&["$..b"], Some(DOC));
    let with_stats = rsq(&["--stats-json", "$..b"], Some(DOC));
    assert_eq!(with_stats.status.code(), Some(0));
    // Stdout must be byte-identical to a run without the flag.
    assert_eq!(with_stats.stdout, plain.stdout);

    // Stderr carries exactly one line of valid JSON with the stable keys.
    let err = stderr(&with_stats);
    assert_eq!(err.lines().count(), 1, "single-line JSON: {err}");
    let parsed = rsq_json::parse(err.trim().as_bytes()).expect("valid JSON");
    let text = format!("{parsed:?}");
    for key in [
        "bytes",
        "blocks_classified",
        "skips",
        "leaf",
        "child",
        "sibling",
        "label",
        "memmem_jumps",
        "matches",
    ] {
        assert!(text.contains(key), "missing key {key} in {err}");
    }
}

#[test]
fn stats_table_goes_to_stderr() {
    let out = rsq(&["--count", "--stats", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "2\n", "results stay on stdout");
    let err = stderr(&out);
    assert!(err.contains("bytes"), "table on stderr: {err}");
    assert!(err.contains("matches"), "table on stderr: {err}");
}

const NDJSON: &[u8] = b"{\"a\": 1, \"b\": {\"a\": 2}}\n{\"c\": 0}\n{\"a\": [3, {\"a\": 4}]}\n";

fn with_temp_ndjson(f: impl FnOnce(&str)) {
    with_temp_corpus(NDJSON, f);
}

fn with_temp_corpus(corpus: &[u8], f: impl FnOnce(&str)) {
    let path = std::env::temp_dir().join(format!(
        "rsq-e2e-batch-{}-{:?}.ndjson",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, corpus).unwrap();
    f(path.to_str().unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batch_ndjson_matches_sequential_loop_across_thread_counts() {
    with_temp_ndjson(|path| {
        // Expected stdout: each line run through rsq individually.
        let mut expected = String::new();
        for line in NDJSON.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let one = rsq(&["--count", "$..a"], Some(line));
            assert_eq!(one.status.code(), Some(0));
            expected.push_str(&stdout(&one));
        }
        for threads in ["1", "2", "8"] {
            let out = rsq(
                &[
                    "--count",
                    "--batch-ndjson",
                    path,
                    "--threads",
                    threads,
                    "$..a",
                ],
                None,
            );
            assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
            assert_eq!(stdout(&out), expected, "threads={threads}");
        }
    });
}

#[test]
fn batch_stats_json_exposes_cache_counters() {
    with_temp_ndjson(|path| {
        let out = rsq(
            &["--count", "--stats-json", "--batch-ndjson", path, "$..a"],
            None,
        );
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert_eq!(err.lines().count(), 1, "single-line JSON: {err}");
        let parsed = rsq_json::parse(err.trim().as_bytes()).expect("valid JSON");
        let text = format!("{parsed:?}");
        for key in [
            "batch",
            "documents",
            "cache_hits",
            "cache_misses",
            "stats",
            "matches",
        ] {
            assert!(text.contains(key), "missing key {key} in {err}");
        }
    });
}

#[test]
fn batch_failing_document_reports_but_does_not_abort() {
    with_temp_ndjson(|path| {
        let out = rsq(
            &[
                "--count",
                "--max-matches",
                "1",
                "--batch-ndjson",
                path,
                "$..a",
            ],
            None,
        );
        // Docs 1 and 3 trip the 1-match limit; doc 2 still prints its 0.
        assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), "0\n");
        let err = stderr(&out);
        assert!(err.contains("document 1: "), "{err}");
        assert!(err.contains("document 3: "), "{err}");
        assert!(err.contains("2 of 3 documents failed"), "{err}");
    });
}

#[test]
fn stats_does_not_corrupt_count_exit_codes() {
    // A tripped limit must still exit 5, with no stats report (the run
    // failed) and nothing extra on stdout.
    let out = rsq(
        &["--count", "--stats-json", "--max-matches", "1", "$..b"],
        Some(DOC),
    );
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    assert!(stdout(&out).is_empty());
    assert!(!stderr(&out).contains("blocks_classified"));

    // Legacy document-statistics mode is untouched by the overload.
    let out = rsq(&["--stats"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("nodes"));
}

/// Exact `--stats-json` lines (schema v4), one query per route family:
/// the general main loop, the memmem head start, and the field-chain
/// fast path. Any change to a counter, a key or the field order shows
/// up here as a diff.
#[test]
fn stats_json_lines_are_pinned_per_route() {
    const GOLDEN_DOC: &[u8] = br#"{"decoy": {"deep": {"deeper": [1, 2, 3]}}, "note": "price", "store": {"book": {"price": 9, "title": "x"}, "bike": {"price": {"amount": 20, "currency": "EUR"}}, "misc": [10, 20, 30]}}"#;
    let cases = [
        (
            "$.*..price",
            r#"{"schema_version":4,"route":"general","bytes":182,"blocks_classified":{"structural":3,"depth":0,"seek":0,"quote":0,"total":3},"events":28,"toggle_flips":8,"skips":{"leaf":5,"child":0,"sibling":0,"label":0},"memmem_jumps":0,"memmem_declined":0,"resume_handoffs":0,"max_depth":4,"matches":2}"#,
        ),
        (
            "$..price",
            r#"{"schema_version":4,"route":"general","bytes":182,"blocks_classified":{"structural":2,"depth":0,"seek":0,"quote":4,"total":6},"events":4,"toggle_flips":1,"skips":{"leaf":0,"child":0,"sibling":0,"label":0},"memmem_jumps":2,"memmem_declined":1,"resume_handoffs":1,"max_depth":1,"matches":2}"#,
        ),
        (
            "$.store.book.price",
            r#"{"schema_version":4,"route":"field_chain","bytes":182,"blocks_classified":{"structural":1,"depth":0,"seek":1,"quote":0,"total":2},"events":3,"toggle_flips":0,"skips":{"leaf":0,"child":0,"sibling":0,"label":3},"memmem_jumps":3,"memmem_declined":0,"resume_handoffs":0,"max_depth":3,"matches":1}"#,
        ),
    ];
    for (query, expected) in cases {
        let out = rsq(&["--count", "--stats-json", query], Some(GOLDEN_DOC));
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert_eq!(stderr(&out), format!("{expected}\n"), "{query}");
    }
}

/// The exact batch `--stats-json` line over a corpus with one malformed
/// document (rejected by `--strict`) and one that trips `--max-matches`
/// after doing work: the merged `stats` count the two successful
/// documents only, with none of the failed runs' partial counters.
#[test]
fn batch_stats_json_line_counts_successful_documents_only() {
    const CORPUS: &[u8] = b"{\"a\": {\"b\": 1}, \"b\": [2, 3]}\n{\"a\": [1, 2}\n{\"c\": {\"b\": {\"b\": 4}}}\n{\"b\": 1, \"x\": {\"b\": 2, \"y\": [{\"b\": 3}]}}\n";
    const EXPECTED: &str = r#"{"schema_version":4,"batch":{"documents":4,"failed_documents":2,"shards":2,"queue_claims":4,"cache_hits":0,"cache_misses":1,"cache_evictions":0,"cache_hit_ratio":0.0000,"cache_miss_ratio":1.0000},"stats":{"route":"general","bytes":50,"blocks_classified":{"structural":2,"depth":0,"seek":0,"quote":3,"total":5},"events":5,"toggle_flips":1,"skips":{"leaf":1,"child":0,"sibling":0,"label":0},"memmem_jumps":3,"memmem_declined":0,"resume_handoffs":2,"max_depth":1,"matches":4}}"#;
    with_temp_corpus(CORPUS, |path| {
        let out = rsq(
            &[
                "--count",
                "--strict",
                "--max-matches",
                "2",
                "--stats-json",
                "--threads",
                "2",
                "--batch-ndjson",
                path,
                "$..b",
            ],
            None,
        );
        assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), "2\n2\n");
        let err = stderr(&out);
        let stats: Vec<&str> = err.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(stats, [EXPECTED], "{err}");
    });
}
