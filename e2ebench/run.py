#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the exploration service.

    python3 e2ebench/run.py --workload explore --seed 1 --seconds 8 --trace 0

Run from the repository root (any working directory works). The first run
in a checkout compiles the harness and the dslayer libraries into
.bench_build/ and generates the fixture there: the 1M-core synthetic
catalog snapshot, the durable data directory with seeded session journals,
and every scripted command's expected output. Both are keyed by the built
binary, so a code change regenerates the fixture (the snapshot format
belongs to the code under test).

The harness prints a report and, as its last stdout line, one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
stderr. The exit status is non-zero when the build fails, the sources are
missing, or any response failed its output check.

Extra options: --cores N (catalog size, default 1000000) and
--inject-wrong (corrupt one expected answer; used by selfcheck.py).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(base):
    """Configures (once) and builds the harness; returns the binary path."""
    build_dir = os.path.join(base, "e2e-build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e")


def fixture(base, binary, cores):
    """Returns the fixture directory for this binary, generating it if needed."""
    with open(binary, "rb") as f:
        digest = hashlib.sha1(f.read()).hexdigest()[:16]
    name = f"fixture-{cores}-{digest}"
    path = os.path.join(base, name)
    if os.path.exists(os.path.join(path, "expected.tsv")):
        return path
    # A fixture of another binary is stale: drop it (each holds a snapshot
    # of about 900 bytes per core).
    for entry in os.listdir(base):
        if entry.startswith("fixture-") and not entry.endswith(digest):
            shutil.rmtree(os.path.join(base, entry), ignore_errors=True)
    shutil.rmtree(path, ignore_errors=True)
    subprocess.run([binary, "fixture", "--dir", path, "--cores", str(cores)], check=True,
                   stdout=sys.stderr)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cores", type=int, default=1_000_000)
    parser.add_argument("--inject-wrong", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: no dslayer sources next to the benchmark; nothing to run")
        return 2
    base = build_base()
    os.makedirs(base, exist_ok=True)
    try:
        binary = build(base)
        fixture_dir = fixture(base, binary, args.cores)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"e2ebench: build or fixture failed: {error}")
        return 2
    command = [binary, "run", "--fixture", fixture_dir,
               "--work", os.path.join(base, "work", args.workload),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_wrong:
        command.append("--inject-wrong")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
