#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <allvsall|screened|annotate> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (CMake, Release) into .bench_build/perfbench, runs the
benchmark binary, echoes its human-readable report and prints, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Exits non-zero when the build fails,
a metric is missing, or any operation or correctness check failed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
RUN_TIMEOUT_S = 170
MARKER = "PERFBENCH_RESULT "


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """Git commit when the checkout is a repository, else a source hash."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    h = hashlib.sha1()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build():
    """Builds the benchmark; a rebuilt binary invalidates cached references."""
    if not (ROOT / "src" / "pastis.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    binary = BUILD / "perfbench"
    before = binary.stat().st_mtime_ns if binary.is_file() else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout + res.stderr)
            fail("build failed: " + " ".join(cmd))
    if not binary.is_file():
        fail("build produced no perfbench binary")
    if binary.stat().st_mtime_ns != before:
        for cached in OUT.glob("exact-*.edges"):
            cached.unlink()
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["allvsall", "screened", "annotate"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT), "--commit", source_id()]
    start = time.monotonic()
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)

    result = None
    for line in res.stdout.splitlines():
        if line.startswith(MARKER):
            result = json.loads(line[len(MARKER):])
        else:
            print(line)
    if result is None or res.returncode not in (0, 1):
        fail(f"benchmark exited with code {res.returncode} and no result")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} missing from the {args.workload} run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(f"perfbench: {args.workload} finished in "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
