#!/usr/bin/env python3
"""Builds the CTMS simulator from source and runs one benchmark workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --selftest

Run from the repository root. Two release builds go into
$CARGO_TARGET_DIR (default .bench_build): the `serve` binary of the
simulator's own workspace, and the benchmark package in this directory.
The last line of stdout is the result JSON printed by the benchmark
binary. `--selftest` runs the benchmark's unit tests and a quick size of
every workload, traced and untraced, and checks their results against
BENCHMARK.json.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURED = ["Cargo.toml", "Cargo.lock", "src", "crates", os.path.basename(HERE)]
# Every workload the benchmark binary runs, whether BENCHMARK.json lists
# it or not.
WORKLOADS = ["paper_cases", "city_tree", "fddi_backbone", "serve_steer"]


def err(msg):
    print(f"run.py: {msg}", file=sys.stderr)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def cargo_bin():
    """Cargo on PATH, else in the default rustup location; None if neither."""
    found = shutil.which("cargo")
    if found:
        return found
    home = os.path.join(os.path.expanduser("~"), ".cargo", "bin", "cargo")
    return home if os.access(home, os.X_OK) else None


def cargo(args):
    """Runs cargo from the repository root; returns its exit code."""
    exe = cargo_bin()
    if exe is None:
        err("cargo not found on PATH or in ~/.cargo/bin")
        return 127
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    return subprocess.run([exe, *args], cwd=ROOT, env=env, stdout=sys.stderr).returncode


def build():
    """Builds both binaries; returns their paths, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if cargo(["build", "--release", "--offline", "-q", "-p", "ctms-bench", "--bin", "serve"]):
        return None
    if cargo(["build", "--release", "--offline", "-q", "--manifest-path", manifest]):
        return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "ctms-benchmark"), os.path.join(release, "serve")


def code_id():
    """The git commit when there is one, else a digest of the measured sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in MEASURED:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path) for f in fs if "target" not in d.split(os.sep)
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def bench_args(bins):
    bench, serve = bins
    return [bench, "--serve-bin", serve, "--commit", code_id(), "--out-dir", os.path.join(ROOT, ".bench_out")]


def selftest(bins):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    manifest = os.path.join(HERE, "Cargo.toml")
    if cargo(["test", "--release", "--offline", "-q", "--manifest-path", manifest]):
        failures.append("unit tests failed")
    for w in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w, "--seed", "7", "--seconds", "0", "--trace", trace, "--quick"]
            out = subprocess.run(bench_args(bins) + args, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{w} --trace {trace}"
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line (exit {out.returncode}): {out.stderr[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: checks failed: {out.stdout[-1500:]}")
            if got != want:
                failures.append(f"{label}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
            print(f"selftest {label}: attempted {result['attempted']}, failed {result['failed']}")
    # Without the simulator's sources beside it the benchmark must fail
    # before printing a result.
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="lonely_") as lonely:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        shutil.copytree(HERE, os.path.join(lonely, os.path.basename(HERE)), ignore=shutil.ignore_patterns("target"))
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "paper_cases",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, capture_output=True, text=True, timeout=180,
        )
        if out.returncode == 0 or out.stdout.strip():
            failures.append("a directory without the simulator's sources did not fail cleanly")
    for f in failures:
        err(f)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        err(f"{ROOT} holds no simulator sources (Cargo.toml and crates/) to build")
        return 2
    bins = build()
    if bins is None:
        err("build failed")
        return 3
    if sys.argv[1:] == ["--selftest"]:
        return selftest(bins)
    sys.stdout.flush()
    os.execv(bins[0], bench_args(bins) + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
