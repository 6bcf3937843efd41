#!/usr/bin/env python3
"""Self-check of the benchmark harness on a 10k-core catalog (about a minute).

    python3 e2ebench/selfcheck.py

Checks that
  * every end-to-end metric of BENCHMARK.json is printed, with its unit, in
    the result line of an untraced run, and every per-layer metric in the
    result line of a traced run, each also as a "name = value unit" report line;
  * every metric family the benchmark's README names is printed with a unit
    in some report;
  * a run whose expected answers were corrupted (--inject-wrong) is caught:
    it exits non-zero and reports correct=false with failures.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORES = "10000"

# Metric families named by the benchmark's specification; a family matches
# its exact name or any "<family>.<suffix>" metric.
FAMILIES = [
    "setup_s", "read_p50_ms", "read_tail_ms", "write_p50_ms", "write_tail_ms",
    "sustained_rps", "fail_ratio", "peak_rss_mb",
    "net.ingress_ms", "net.parse_ms", "net.respond_ms", "net.response_bytes",
    "net.outside_ms", "service.queue_wait_ms", "service.peak_queue_depth",
    "service.rejected", "service.shed", "service.execute_self_ms", "service.restored",
    "service.migrations", "service.evicted", "dsl.sweep_ms", "dsl.sweeps_per_write",
    "dsl.compliance_checks", "dsl.constraint_evaluations", "dsl.cache_hit_ratio",
    "dsl.range_us_per_kcore", "storage.boot_ms.open", "storage.boot_ms.symbols",
    "storage.boot_ms.cores", "storage.boot_ms.index", "storage.boot_ms.tables",
    "storage.prime_ms", "storage.aliased_bytes", "storage.session_flushes_per_read",
    "storage.session_flushes_per_write", "storage.bytes_written_per_cmd",
    "storage.write_syscalls_per_cmd", "trace.overhead_pct", "gen.lag_ms", "gen.backlog",
]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--cores", CORES, *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout, done.stderr


def check_metrics(label, expected, result, stdout, failures):
    metrics = result["metrics"]
    for spec in expected:
        name, unit = spec["name"], spec["unit"]
        if name not in metrics:
            failures.append(f"{label}: metric {name} missing from the result line")
        elif metrics[name]["unit"] != unit:
            failures.append(f"{label}: {name} has unit {metrics[name]['unit']}, expected {unit}")
        elif not re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}(\s|$)", stdout, re.M):
            failures.append(f"{label}: no report line '{name} = <value> {unit}'")
    return set(re.findall(r"^  (\S+) = \S+ \S+", stdout, re.M))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    printed = set()
    for workload, trace in (("hot_reads", 0), ("durable_history", 1), ("explore", 1)):
        code, result, stdout, stderr = run(workload, trace)
        label = f"{workload} --trace {trace}"
        if code != 0 or result is None or not result["correct"]:
            failures.append(f"{label}: exit {code}, result {result}\n{stderr[-2000:]}")
            continue
        expected = bench["end_to_end"] if trace == 0 else bench["per_layer"]
        printed |= check_metrics(label, expected, result, stdout, failures)
        print(f"ok: {label} printed {len(result['metrics'])} metrics", flush=True)
    for family in FAMILIES:
        if not any(m == family or m.startswith(family + ".") for m in printed):
            failures.append(f"metric family {family} is never printed")

    code, result, _, _ = run("hot_reads", 0, "--inject-wrong")
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        failures.append(f"injected wrong answer not caught: exit {code}, result {result}")
    else:
        print(f"ok: injected wrong answer caught ({result['failed']} failed, exit {code})")

    for failure in failures:
        print("FAIL:", failure)
    print("selfcheck:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
