#!/usr/bin/env python3
"""Entry point of the host wall-clock benchmark (BENCHMARK.json).

    python3 hostbench/run.py --workload batch|serve|churn --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds hostbench/ (which pulls
the library in through the top-level CMakeLists.txt) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
one workload. Build output goes to stderr. The binary's stdout is passed
through: a details line (environment stamp, sweep/ladder tables,
workload-specific headlines) and, last, the result object
{"correct", "attempted", "failed", "metrics"}. Spans of traced runs and
the serve workload's index file go under .bench_out/.

Exits non-zero without printing a result when the build fails (e.g.
outside a checkout), when the binary fails, or when the metrics it
printed are not exactly those BENCHMARK.json declares for the mode.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Git commit when the checkout is a repository; otherwise a digest
    of the sources the binary is built from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "hostbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "hostbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["batch", "serve", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.abspath(".bench_out"),
           "--commit", source_stamp()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"hostbench exited with {proc.returncode}")
        return 3
    result = json.loads(lines[-1])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        log(f"metrics printed {sorted(printed.items())} "
            f"differ from BENCHMARK.json {sorted(declared.items())}")
        return 4

    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n") else proc.stdout + "\n")
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
