#!/usr/bin/env python3
"""Builds and runs the end-to-end valuation benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick]

Run from the repository root. The first run configures and builds the
comfedsv libraries and the perfbench binary from source into the
perfbench/ subdirectory of the directory named by $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed. Nothing
else in that directory is touched. Build output goes to stderr. The binary's
standard output is passed through: its last line is the JSON result.

Workloads: fig8-mlp, stream-logistic, durable-cnn (see BENCHMARK.json
and perfbench/README.md). Per-run records, including build and machine
metadata and, for traced runs, every span, land in .bench_out/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    """The benchmark's own build tree, inside $CARGO_TARGET_DIR."""
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def cached_source_dir(build):
    """The source directory a CMake cache in `build` was configured for,
    or None when there is no cache."""
    cache = build / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return Path(line.split("=", 1)[1])
    return None


def build():
    """Builds the benchmark binary; returns its path, or None when the build fails."""
    build = build_dir()
    source = cached_source_dir(build)
    if source is not None and source.resolve() != BENCH_DIR:
        # A tree configured for a checkout at another path cannot be reused.
        shutil.rmtree(build)
        source = None
    configured = any((build / f).exists() for f in ("build.ninja", "Makefile"))
    if source is None or not configured:
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(build), "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = build / "perfbench"
    return binary if binary.exists() else None


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="shortened workloads, for the smoke test")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
