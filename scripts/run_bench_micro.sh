#!/usr/bin/env bash
# Run the substrate micro-benchmarks and refresh BENCH_micro.json — the
# repo's perf trajectory file. Usage:
#
#   scripts/run_bench_micro.sh [build-dir] [output-json]
#
# The script runs the kernel + Shamir benchmarks (the hot path the
# region-arithmetic layer optimizes) and the timer-queue cases (next
# deadline and schedule/cancel with 1k..1M armed timers), reduces
# google-benchmark's JSON to
# a compact {name: {ns, mb_per_s}} map, and merges it into the output
# file under "current" while preserving the committed "baseline" block
# (the seed scalar-path numbers). See EXPERIMENTS.md ("Microbenchmarks")
# for when to re-record.
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_micro.json}"
bench_bin="$build_dir/bench/bench_micro"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target bench_micro)" >&2
  exit 1
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

"$bench_bin" \
  --benchmark_filter='BM_Gf|BM_RngFill|BM_Shamir(Split|Reconstruct)|BM_XorSplit|BM_TimerQueue' \
  --benchmark_format=json >"$raw"

python3 - "$raw" "$out" <<'PY'
import json, os, subprocess, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
raw = json.load(open(raw_path))

current = {}
for b in raw["benchmarks"]:
    entry = {"ns": round(b["real_time"], 1)}
    if "bytes_per_second" in b:
        entry["mb_per_s"] = round(b["bytes_per_second"] / 1e6, 1)
    if b.get("label"):
        entry["kernel"] = b["label"]
    current[b["name"]] = entry

try:
    doc = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}

try:
    # "-dirty" marks numbers measured on uncommitted changes.
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            capture_output=True, text=True, check=True).stdout.strip()
except Exception:
    commit = "unknown"

doc.setdefault("baseline", {})
doc["current"] = {
    "commit": commit,
    "context": {**{k: raw["context"].get(k) for k in
                   ("num_cpus", "mhz_per_cpu", "library_build_type")},
                "nproc": len(os.sched_getaffinity(0))},
    "benchmarks": current,
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
print(f"wrote {out_path} ({len(current)} benchmarks, commit {commit})")
PY
