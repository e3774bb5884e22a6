#!/usr/bin/env bash
# Local CI gate: formatting, lints, the static-analysis driver (unsafe
# audit + concurrency/panic-surface/consistency passes), tier-1 tests,
# an overflow-checked test pass, the fast-path parity gate (routed
# walker vs the general engine over the full query catalog), the
# catalog values gate (default-mode output across ingest policies and
# backends), the serve-vs-batch smoke in every output mode, the mmap
# ingest smoke, the hardware-counter and timeline-trace smokes, the
# profile-overhead gate, differential fuzz smoke, and (when the host
# toolchain provides them) Miri, AddressSanitizer, and ThreadSanitizer
# lanes.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo xtask analyze (static-analysis gate, zero findings)"
# All six passes (DESIGN.md §14): the unsafe audit, panic-surface
# justification, lock order, atomic-ordering policy, doc consistency,
# and the Prometheus exposition contract. The JSON rendering is part of
# the contract, so sanity-check it too.
cargo run --quiet --package xtask -- analyze
cargo run --quiet --package xtask -- analyze --json \
  | python3 -c 'import json,sys
r = json.load(sys.stdin)
assert r["schema_version"] == 1 and not r["findings"], r'

echo "==> cargo clippy (deny warnings, undocumented unsafe blocks)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::undocumented-unsafe-blocks

echo "==> tier-1: release build + tests"
cargo build --release
cargo test -q

echo "==> workspace tests with overflow checks"
RUSTFLAGS="-C overflow-checks=on" cargo test --workspace -q

echo "==> batch determinism gate (multi-threaded merge, SWAR override)"
# The rsq-batch suites sweep worker counts {1, 2, 8} and assert the
# merged outcomes are identical to a sequential run; the second pass
# repeats that under the portable backend override.
cargo test -p rsq-batch -q
RSQ_BACKEND=swar cargo test -p rsq-batch -q

echo "==> serve smoke gate (pipe protocol vs --batch-ndjson oracle)"
# Stream a corpus with CRLF lines, a blank line, escaped quotes and an
# escaped newline in strings, whitespace between values, a value left
# unterminated (rendered `<malformed>`), and no trailing newline through
# `rsq --serve`, fragmented into 3-byte writes so the incremental framer
# crosses escape/CRLF boundaries, and require byte-identical stdout to
# the batch run in count, values and positions mode, plus a clean drain
# (exit 0, silent stderr). The deeper fragmentation/fault matrix lives
# in the rsq-serve robustness suite below.
cargo build --release -p rsq-cli
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
printf '{"a": {"b": 1}}\n{"b": [1, 2, 3]}\r\n\n{"b": "x\\ny"}\n{"c": 0}\n{"b" :\t"q\\"t" , "b":\r\n-1.5e3}\r\n{"b": {"c": [1, 2]' \
  > "$SERVE_TMP/corpus.ndjson"
for mode in --count --values --positions; do
  flag="$mode"
  [ "$mode" = --values ] && flag=""
  ./target/release/rsq $flag '$..b' --batch-ndjson "$SERVE_TMP/corpus.ndjson" \
    > "$SERVE_TMP/batch.out"
  dd if="$SERVE_TMP/corpus.ndjson" bs=3 2>/dev/null \
    | ./target/release/rsq --serve $flag '$..b' \
    > "$SERVE_TMP/serve.out" 2> "$SERVE_TMP/serve.err"
  if ! diff -u "$SERVE_TMP/batch.out" "$SERVE_TMP/serve.out"; then
    echo "serve smoke gate: $mode output differs from --batch-ndjson"
    exit 1
  fi
  if [ -s "$SERVE_TMP/serve.err" ]; then
    echo "serve smoke gate ($mode): unexpected diagnostics on stderr:"
    cat "$SERVE_TMP/serve.err"
    exit 1
  fi
  cp "$SERVE_TMP/serve.out" "$SERVE_TMP/serve$mode.out"
done
# The values run must actually cover the escaped-quote and unterminated
# cases, or the comparison above proves little.
if ! grep -qxF '"q\"t"' "$SERVE_TMP/serve--values.out" \
  || ! grep -qx '<malformed>' "$SERVE_TMP/serve--values.out"; then
  echo "serve smoke gate: values output lacks the escape/<malformed> cases:"
  cat "$SERVE_TMP/serve--values.out"
  exit 1
fi

echo "==> fast-path parity gate (routed walker vs RSQ_ROUTE=general, full catalog)"
# Every catalog query on both the detected backend and the portable
# SWAR override: forcing the general engine must not change a single
# emitted position. dump-corpus materializes the datasets plus a query
# manifest; the gate also requires that the shape analyzer routed a
# healthy share of the catalog off the general path, so parity can't
# pass vacuously because everything fell back.
RSQ_DATASET_MB=2 cargo run --quiet --release -p rsq-bench --bin experiments -- \
  dump-corpus "$SERVE_TMP/corpus"
FAST_ROUTED=0
QUERIES=0
while IFS=$'\t' read -r id file query; do
  doc="$SERVE_TMP/corpus/$file"
  QUERIES=$((QUERIES + 1))
  route="$(./target/release/rsq --stats-json --count "$query" "$doc" 2>&1 >/dev/null \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["route"])')"
  case "$route" in
    field_chain|selective) FAST_ROUTED=$((FAST_ROUTED + 1)) ;;
  esac
  for backend in "" swar; do
    RSQ_BACKEND="$backend" ./target/release/rsq --positions "$query" "$doc" \
      > "$SERVE_TMP/parity-fast.txt"
    RSQ_BACKEND="$backend" RSQ_ROUTE=general ./target/release/rsq \
      --positions "$query" "$doc" > "$SERVE_TMP/parity-general.txt"
    if ! cmp -s "$SERVE_TMP/parity-fast.txt" "$SERVE_TMP/parity-general.txt"; then
      echo "parity gate: $id ($query) diverges under backend '${backend:-auto}':"
      diff "$SERVE_TMP/parity-fast.txt" "$SERVE_TMP/parity-general.txt" | head
      exit 1
    fi
  done
done < "$SERVE_TMP/corpus/catalog.tsv"
if [ "$FAST_ROUTED" -lt 8 ]; then
  echo "parity gate: only $FAST_ROUTED of $QUERIES queries routed fast (expected >= 8)"
  exit 1
fi
echo "parity gate: $QUERIES queries x 2 backends agree; $FAST_ROUTED routed fast"

echo "==> catalog values gate (default-mode output: mmap on/off, SWAR backend)"
# The staged emitter and the word-at-a-time span scan must print the
# same bytes whatever the ingest path and classifier backend: every
# catalog query's default (values) output under --mmap on, --mmap off
# and RSQ_BACKEND=swar must be identical.
VALUES=0
VALUE_QUERIES=0
while IFS=$'\t' read -r id file query; do
  doc="$SERVE_TMP/corpus/$file"
  VALUE_QUERIES=$((VALUE_QUERIES + 1))
  ./target/release/rsq --mmap on "$query" "$doc" > "$SERVE_TMP/values-on.txt"
  ./target/release/rsq --mmap off "$query" "$doc" > "$SERVE_TMP/values-off.txt"
  RSQ_BACKEND=swar ./target/release/rsq "$query" "$doc" > "$SERVE_TMP/values-swar.txt"
  for variant in off swar; do
    if ! cmp -s "$SERVE_TMP/values-on.txt" "$SERVE_TMP/values-$variant.txt"; then
      echo "catalog values gate: $id ($query) differs between --mmap on and $variant:"
      diff "$SERVE_TMP/values-on.txt" "$SERVE_TMP/values-$variant.txt" | head
      exit 1
    fi
  done
  VALUES=$((VALUES + $(wc -l < "$SERVE_TMP/values-on.txt")))
done < "$SERVE_TMP/corpus/catalog.tsv"
echo "catalog values gate: $VALUE_QUERIES queries agree ($VALUES value lines each way)"

echo "==> mmap smoke gate (--mmap on vs off over a multi-MB batch dir)"
# Multi-MiB documents through --batch-dir under both ingest policies:
# mapped and buffered reads must produce byte-identical output. The
# corpus files are above the 1 MiB threshold, so `auto` maps too.
MMAP_DIR="$SERVE_TMP/mmap-batch"
mkdir -p "$MMAP_DIR"
cp "$SERVE_TMP/corpus/B.json" "$SERVE_TMP/corpus/G.json" \
  "$SERVE_TMP/corpus/Wa.json" "$MMAP_DIR/"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" --mmap on \
  > "$SERVE_TMP/mmap-on.out"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" --mmap off \
  > "$SERVE_TMP/mmap-off.out"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" \
  > "$SERVE_TMP/mmap-auto.out"
diff -u "$SERVE_TMP/mmap-on.out" "$SERVE_TMP/mmap-off.out"
diff -u "$SERVE_TMP/mmap-auto.out" "$SERVE_TMP/mmap-off.out"

echo "==> hardware-counter smoke gate (forced denial + armed path)"
# Counters must never change results. The forced-denial half runs
# everywhere: RSQ_PERF=deny (open fails with a simulated EPERM) must
# leave stdout AND the stats JSON byte-identical to RSQ_PERF=off, with
# no "perf" object in either. The armed half (RSQ_PERF unset → auto)
# asserts nonzero counters only where the kernel grants access; denied
# hosts — containers, VMs without a PMU — get a visible skip notice.
PERF_DOC="$SERVE_TMP/perf-doc.json"
printf '{"a": {"b": [1, 2, 3]}, "b": 7}' > "$PERF_DOC"
RSQ_PERF=off ./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" \
  > "$SERVE_TMP/perf-off.out" 2> "$SERVE_TMP/perf-off.err"
RSQ_PERF=deny ./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" \
  > "$SERVE_TMP/perf-deny.out" 2> "$SERVE_TMP/perf-deny.err"
diff -u "$SERVE_TMP/perf-off.out" "$SERVE_TMP/perf-deny.out"
diff -u "$SERVE_TMP/perf-off.err" "$SERVE_TMP/perf-deny.err"
if grep -q '"perf"' "$SERVE_TMP/perf-deny.err"; then
  echo "perf smoke gate: denied run leaked a perf object"
  exit 1
fi
./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" \
  > "$SERVE_TMP/perf-auto.out" 2> "$SERVE_TMP/perf-auto.err"
diff -u "$SERVE_TMP/perf-off.out" "$SERVE_TMP/perf-auto.out"
if grep -q '"perf"' "$SERVE_TMP/perf-auto.err"; then
  python3 - "$SERVE_TMP/perf-auto.err" <<'PYEOF'
import json, sys
stats = json.load(open(sys.argv[1]))
perf = stats["perf"]
assert perf["docs"] == 1 and perf["bytes"] > 0, perf
assert perf["counters"]["cycles"] > 0, perf
assert perf["cycles_per_byte"] > 0.0, perf
PYEOF
  echo "perf smoke gate: counters armed, nonzero cycles recorded"
else
  echo "perf smoke gate: kernel denied counters on this host;" \
    "armed-path assertions SKIPPED (denial path verified above)"
fi

echo "==> timeline trace smoke gate (--trace-out well-formedness)"
# A batch run over the serve corpus must leave a Perfetto-loadable
# Chrome trace: valid JSON, thread_name metadata, one doc slice plus
# exactly four phase slices (queue-wait/run/reorder-wait/emit) per
# document.
./target/release/rsq --count '$..b' --batch-ndjson "$SERVE_TMP/corpus.ndjson" \
  --trace-out "$SERVE_TMP/trace.json" > /dev/null
python3 - "$SERVE_TMP/trace.json" <<'PYEOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
xs = [e for e in events if e["ph"] == "X"]
metas = [e for e in events if e["ph"] == "M"]
assert xs, "no X slices"
assert any(e["name"] == "thread_name" for e in metas), metas
for e in xs:
    assert e["ts"] >= 0 and e["dur"] >= 0, e
    assert isinstance(e["pid"], int) and isinstance(e["tid"], int), e
docs = [e for e in xs if e["name"].startswith("doc ")]
phases = [e for e in xs if e["name"] in ("queue-wait", "run", "reorder-wait", "emit")]
assert docs, xs
assert len(phases) == 4 * len(docs), (len(phases), len(docs))
PYEOF

echo "==> serve live-telemetry smoke gate (scrape under load + postmortem)"
# Part 1: a socket server with the scrape endpoint armed. A client
# streams fragmented NDJSON while curl scrapes /metrics through the
# second socket: the exposition must pass the formatter contract already
# linted above, carry rolling-window series, and show nonzero
# worker/document gauges; /healthz must answer ok; POST /shutdown must
# drain the server to a clean exit.
TELEMETRY_PIDS=""
trap 'kill $TELEMETRY_PIDS 2>/dev/null || true; rm -rf "$SERVE_TMP"' EXIT
./target/release/rsq --serve-socket "$SERVE_TMP/serve-t.sock" \
  --telemetry-socket "$SERVE_TMP/tele.sock" --count '$..b' &
TELEMETRY_PIDS="$!"
for _ in $(seq 1 100); do
  [ -S "$SERVE_TMP/serve-t.sock" ] && [ -S "$SERVE_TMP/tele.sock" ] && break
  sleep 0.05
done
python3 - "$SERVE_TMP/serve-t.sock" <<'PYEOF' &
import socket, sys, threading, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
# Drain responses concurrently: the serve protocol is full-duplex, so a
# client that sends everything before reading deadlocks both sides once
# the response buffer fills.
def drain_responses():
    while s.recv(65536):
        pass
drain = threading.Thread(target=drain_responses)
drain.start()
payload = b'{"a": {"b": [1, 2]}, "b": 3}\n' * 4000
for i in range(0, len(payload), 7):  # hostile fragmentation
    s.sendall(payload[i : i + 7])
    if i % 70000 == 0:
        time.sleep(0.02)
s.shutdown(socket.SHUT_WR)
drain.join()
PYEOF
LOAD_PID=$!
TELEMETRY_PIDS="$TELEMETRY_PIDS $LOAD_PID"
sleep 0.5  # scrape mid-load: documents are flowing by now
curl -sf --unix-socket "$SERVE_TMP/tele.sock" http://localhost/metrics \
  > "$SERVE_TMP/scrape.prom"
curl -sf --unix-socket "$SERVE_TMP/tele.sock" http://localhost/healthz | grep -q '^ok$'
grep -q '^rsq_window_documents{window="10s"} [1-9]' "$SERVE_TMP/scrape.prom"
grep -q '^rsq_workers [1-9]' "$SERVE_TMP/scrape.prom"
grep -q '^rsq_window_latency_ns{window="10s",quantile="0.99"}' "$SERVE_TMP/scrape.prom"
grep -q '^# TYPE rsq_queue_depth gauge' "$SERVE_TMP/scrape.prom"
grep -q '^# TYPE rsq_serve_documents_total counter' "$SERVE_TMP/scrape.prom"
wait "$LOAD_PID"
curl -sf --unix-socket "$SERVE_TMP/tele.sock" -X POST http://localhost/shutdown \
  | grep -q draining
wait "${TELEMETRY_PIDS%% *}"

# Part 2: a zero-deadline single-worker server times out both submitted
# documents deterministically; each fault must leave a postmortem whose
# stage timeline sums to its recorded latency (telescoping laps make
# them equal by construction — the gate pins that invariant), and the
# second postmortem's flight-recorder history must carry the first span.
# Postmortems carry the stats schema version, so the expected value is
# read from the same binary's --stats-json line rather than hard-coded.
STATS_SCHEMA="$(./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" 2>&1 >/dev/null \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["schema_version"])')"
./target/release/rsq --serve-socket "$SERVE_TMP/serve-pm.sock" \
  --telemetry-socket "$SERVE_TMP/tele-pm.sock" \
  --postmortem-dir "$SERVE_TMP/pm" --flight-window 4 --threads 1 \
  --deadline-ms 0 --count '$..b' &
PM_SERVER_PID=$!
TELEMETRY_PIDS="$TELEMETRY_PIDS $PM_SERVER_PID"
for _ in $(seq 1 100); do
  [ -S "$SERVE_TMP/serve-pm.sock" ] && [ -S "$SERVE_TMP/tele-pm.sock" ] && break
  sleep 0.05
done
python3 - "$SERVE_TMP/serve-pm.sock" <<'PYEOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b'{"a": {"b": 1}}\n{"a": {"b": 2}}\n')
s.shutdown(socket.SHUT_WR)
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
assert data.count(b"[timeout]") == 2, data
PYEOF
curl -sf --unix-socket "$SERVE_TMP/tele-pm.sock" -X POST http://localhost/shutdown \
  > /dev/null
PM_STATUS=0
wait "$PM_SERVER_PID" || PM_STATUS=$?
[ "$PM_STATUS" -eq 7 ] # deadline failure class on exit
[ "$(ls "$SERVE_TMP/pm" | wc -l)" -eq 2 ]
python3 - "$STATS_SCHEMA" "$SERVE_TMP"/pm/postmortem-*.json <<'PYEOF'
import json, sys
schema = int(sys.argv[1])
pms = [json.load(open(p)) for p in sorted(sys.argv[2:])]
for pm in pms:
    assert pm["schema_version"] == schema, (schema, pm)
    assert pm["code"] == "timeout", pm
    doc = pm["doc"]
    phases = (
        doc["queue_wait_ns"]
        + doc["run_ns"]
        + doc["reorder_wait_ns"]
        + doc["emit_ns"]
    )
    assert abs(phases - pm["latency_ns"]) <= 1_000_000, (phases, pm["latency_ns"])
# Single worker: the second fault's flight recorder must remember the
# first span.
assert pms[1]["recent"], "flight recorder history present in second dump"
assert pms[1]["recent"][0]["seq"] == pms[0]["doc"]["seq"], pms[1]["recent"]
PYEOF

echo "==> serve robustness chaos sweep (slow-tests)"
# 200 seeded fragmentation/stall/truncation/disconnect plans, each
# checked for output parity with the batch oracle.
cargo test -p rsq-serve --release --features slow-tests -q

echo "==> profile-overhead gate (Tier C compiles out of unprofiled runs)"
# Tier C profiling is always-compiled (no cargo feature): the Recorder
# hooks default to empty #[inline] bodies, so NoStats/RunStats runs must
# stay byte-identical in matches and Tier A counters to a profiled run,
# and the stats-overhead ablation must stay throughput-neutral. The
# release-mode guard asserts the consistency half; the skip-map property
# test pins the byte-span accounting across backends.
cargo test -p rsq --release --features slow-tests --test obs_overhead -q
cargo test -p rsq-engine --release --test skipmap -q
RSQ_BACKEND=swar cargo test -p rsq-engine --release --test skipmap -q

echo "==> profiling lanes (batch profile merge, CLI --profile surface)"
cargo test -p rsq-batch --release -q profile
cargo test -p rsq-cli -q profile
cargo test -p rsq-cli -q metrics

echo "==> differential fuzz smoke (30s budget across all targets)"
cargo run --quiet --package xtask -- fuzz-smoke --max-seconds 30

# Optional lanes: both need components the offline stable image may not
# ship. Each is gated on a probe so the gate stays green everywhere but
# runs the deeper check wherever the toolchain allows it.
if cargo +nightly miri --version >/dev/null 2>&1; then
  echo "==> Miri lane (kernel + stackvec crates, SWAR fallback)"
  # Miri interprets Rust, not vendor intrinsics: Simd::detect falls back
  # to the portable SWAR backend under cfg(miri) (DESIGN.md §9).
  cargo +nightly miri test -p rsq-stackvec -p rsq-simd -q
  cargo +nightly miri test -p rsq-difftest -q
else
  echo "==> Miri lane skipped (nightly miri not installed)"
fi

if [ "$(uname -sm)" = "Linux x86_64" ] && rustc +nightly --version >/dev/null 2>&1; then
  echo "==> AddressSanitizer lane (kernel + stackvec crates)"
  # --tests only: doctest binaries don't link the ASan runtime.
  RUSTFLAGS="-Zsanitizer=address" cargo +nightly test \
    -p rsq-stackvec -p rsq-simd -q --tests --target x86_64-unknown-linux-gnu
else
  echo "==> AddressSanitizer lane skipped (needs nightly on x86_64 Linux)"
fi

if [ "$(uname -sm)" = "Linux x86_64" ] && rustc +nightly --version >/dev/null 2>&1 \
  && rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
  echo "==> ThreadSanitizer lane (batch determinism + serve robustness)"
  # TSan needs std rebuilt with instrumentation (-Zbuild-std, hence the
  # rust-src probe) or it reports false races inside precompiled std.
  # The lock-order pass above is static; this lane is the dynamic check
  # over the threaded crates' suites.
  RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std \
    -p rsq-batch -p rsq-serve -q --tests --target x86_64-unknown-linux-gnu
else
  echo "==> ThreadSanitizer lane skipped (needs nightly + rust-src on x86_64 Linux)"
fi

echo "CI OK"
