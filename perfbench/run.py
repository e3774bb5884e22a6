#!/usr/bin/env python3
"""rsq's benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. W is one of catalog-doc, ndjson-batch and
serve-open. The script builds the benchmark program (perfbench/, a cargo
package of its own) into $CARGO_TARGET_DIR (default .bench_build), then
runs two processes:

* ``perfbench setup`` generates the seed's inputs under .perfbench/work,
  compiles the queries and warms up three times, reporting the median
  time as ``setup_s``, and writes each workload's oracle outputs;
* ``perfbench measure`` runs the workload for S seconds and checks every
  output against the oracle. Its peak resident memory, read from
  wait4(2), is ``peak_rss_mb``.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of the traced run (which sets up every
workload's inputs, since it measures every layer), and the spans go to
.perfbench/trace-W.json as Chrome trace-event JSON. Every metric is also
printed as a "# metric NAME = VALUE UNIT" line; the last line of stdout is
the JSON result, and the full self-describing report is written to
.perfbench/report-W-seedN-traceT.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
# Relative to ROOT, where the steps run: the serve socket's path must stay
# short whatever the checkout's own path.
WORK = os.path.join(".perfbench", "work")
WORKLOADS = ("catalog-doc", "ndjson-batch", "serve-open")
SETUP_REPS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark program and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_step(binary, args):
    """Runs one step; returns its note lines, its JSON result and its
    peak resident memory in bytes."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{args[0]} step exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{args[0]} step printed nothing")
    return lines[:-1], json.loads(lines[-1]), usage.ru_maxrss * 1024


def source_fingerprint():
    """SHA-256 over the program's and the benchmark's sources, so a report
    names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock"),
             os.path.join(HERE, "Cargo.toml")]
    for root in roots:
        for dirpath, dirnames, names in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith((".rs", ".toml"))]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def context(seed):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": command_output(["getconf", "LEVEL3_CACHE_SIZE"]) or "unknown",
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_fingerprint(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    ctx = context(args.seed)
    common = ["--seed", str(args.seed), "--work", WORK, "--threads", str(ctx["nproc"])]
    notes = [f"context: {k} {v}" for k, v in ctx.items()]

    # The traced run measures every layer, so it needs every input.
    setups = [args.workload] + ([w for w in WORKLOADS if w != args.workload] if args.trace else [])
    setup_result = None
    for i, workload in enumerate(setups):
        reps = SETUP_REPS if i == 0 else 1
        lines, result, _ = run_step(binary, ["setup", "--workload", workload,
                                             "--reps", str(reps)] + common)
        notes += [l[2:] if l.startswith("# ") else l for l in lines]
        if i == 0:
            setup_result = result
            notes.append(f"context: dataset_mb {result['dataset_mb']:.3f}")

    lines, result, peak_rss = run_step(binary, [
        "measure", "--workload", args.workload, "--seconds", str(args.seconds),
        "--trace", str(args.trace)] + common)
    notes += [l[2:] if l.startswith("# ") else l for l in lines]

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": setup_result["setup_s"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss / 1e6, "unit": "MB"}
        notes.append(f"metric setup_s = {setup_result['setup_s']:.6f} s "
                     f"(median of {SETUP_REPS} set-ups)")
        notes.append(f"metric peak_rss_mb = {peak_rss / 1e6:.3f} MB (measuring process)")
    metrics.update(result["metrics"])
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    os.makedirs(STATE, exist_ok=True)
    report_path = os.path.join(
        STATE, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as f:
        json.dump({"workload": args.workload, "context": ctx, "notes": notes,
                   "result": final}, f, indent=1)
        f.write("\n")
    for note in notes:
        print(f"# {note}")
    print(json.dumps(final))


if __name__ == "__main__":
    main()
