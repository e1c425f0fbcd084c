#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs a shortened (--quick) untraced and traced run of every workload in
BENCHMARK.json and checks that:

  * the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every correctness check passed (the runs compare values across thread
    counts, against the stored reference, between a log replay and the
    live run, and with and without the tracing decorators, so a correct
    traced run shows that the decorators leave outputs bit-identical);
  * the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) metrics;
  * the traced run covers at least 90% of its wall time with spans, reads
    zero I/O on fig8-mlp, and writes its spans with id, parent, name,
    start and end.

Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_KEYS = {"id", "parent", "name", "start", "end"}


def run(workload, trace, seed=3):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            code, result, stderr = run(workload, trace)
            if result is None:
                check(False, "%s printed a result (stderr: %s)" %
                      (tag, stderr.strip()[-300:]))
                continue
            check(code == 0, "%s exits 0" % tag)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  "%s result has exactly the contract keys" % tag)
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  "%s passes every correctness check" % tag)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  "%s metric names and units match BENCHMARK.json" % tag)
            if trace == 0:
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            check(metrics.get("trace.coverage", 0) >= 0.90,
                  "%s trace.coverage >= 0.90" % tag)
            if workload == "fig8-mlp":
                io = [k for k in metrics if k.startswith("io.")]
                check(all(metrics[k] == 0 for k in io),
                      "%s io.* metrics read zero" % tag)
            record = ROOT / ".bench_out" / ("%s-seed3-trace.json" % workload)
            spans = json.loads(record.read_text()).get("spans", [])
            check(bool(spans) and all(SPAN_KEYS <= set(s) for s in spans),
                  "%s writes spans with id, parent, name, start, end" % tag)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
