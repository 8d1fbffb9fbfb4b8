#!/usr/bin/env python3
"""Smoke test for the mcss benchmark: every workload at a tiny size.

Run from the root of a checkout (it builds through run.py first):

    python3 mcssbench/smoke_test.py

For each workload, untraced and traced, it checks that the run exits 0,
that its correctness checks ran and passed, that the last line carries
exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, each with the unit BENCHMARK.json gives, that every
end-to-end value is positive, and that the run record names the host.
Exit status 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "section6", "churn", "psim")
RECORD_KEYS = {"workload", "seed", "nproc", "cpu_model", "kernel", "compiler",
               "build_type", "commit", "samples"}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            before = len(failures)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--scale", "0.05"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                print(f"FAIL {tag}")
                continue
            result = json.loads(lines[-1])
            record = next((json.loads(l)["run_record"] for l in lines
                           if l.startswith('{"run_record"')), None)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {missing} extra {extra} unit {wrong}")
            if trace == 0:
                for name, m in result["metrics"].items():
                    if not m["value"] > 0:
                        failures.append(f"{tag}: {name} = {m['value']}")
            else:
                predicts = next((json.loads(l)["per_layer_predicts"] for l in lines
                                 if l.startswith('{"per_layer_predicts"')), {})
                if set(predicts) != set(expected[1]):
                    failures.append(f"{tag}: per-layer prediction tags incomplete")
            if record is None or not RECORD_KEYS <= set(record):
                failures.append(f"{tag}: run record missing or incomplete")
            print(f"{'ok  ' if len(failures) == before else 'FAIL'} {tag}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
