#!/usr/bin/env bash
# Verify and record the parallel sweep engine's two guarantees:
#
#   1. Determinism — a figure sweep's stdout AND its JSON-lines series
#      are byte-identical between MCSS_THREADS=1 (the legacy sequential
#      path) and MCSS_THREADS=N.
#   2. Speedup — wall-clock for both runs, recorded (with the host core
#      count) in BENCH_sweeps.json. The >= 3x acceptance bar applies on
#      an 8-core runner; single-core hosts still verify determinism.
#
# Usage:
#   scripts/run_bench_sweeps.sh [build-dir] [output-json] [threads]
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_sweeps.json}"
threads="${3:-8}"
bench="fig3_rate_identical"
bench_bin="$build_dir/bench/$bench"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target $bench)" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run_timed() {  # <threads> <stdout-file> <jsonl-file> -> seconds
  local t="$1" outfile="$2" jsonl="$3"
  local start end
  start=$(date +%s.%N)
  MCSS_THREADS="$t" MCSS_BENCH_JSONL="$jsonl" "$bench_bin" >"$outfile"
  end=$(date +%s.%N)
  echo "$end $start" | awk '{printf "%.3f", $1 - $2}'
}

echo "running $bench with MCSS_THREADS=1 ..."
seq_s=$(run_timed 1 "$work/seq.txt" "$work/seq.jsonl")
echo "running $bench with MCSS_THREADS=$threads ..."
par_s=$(run_timed "$threads" "$work/par.txt" "$work/par.jsonl")

if ! cmp -s "$work/seq.txt" "$work/par.txt"; then
  echo "FAIL: stdout differs between MCSS_THREADS=1 and MCSS_THREADS=$threads" >&2
  diff "$work/seq.txt" "$work/par.txt" >&2 || true
  exit 1
fi
if ! cmp -s "$work/seq.jsonl" "$work/par.jsonl"; then
  echo "FAIL: JSONL differs between MCSS_THREADS=1 and MCSS_THREADS=$threads" >&2
  exit 1
fi
echo "OK: stdout and JSONL bitwise identical (1 vs $threads threads)"

rows=$(wc -l <"$work/seq.jsonl")
python3 - "$out" "$bench" "$threads" "$seq_s" "$par_s" "$rows" <<'PY'
import json, multiprocessing, subprocess, sys

out_path, bench, threads, seq_s, par_s, rows = sys.argv[1:7]
seq_s, par_s = float(seq_s), float(par_s)

try:
    # "-dirty" marks numbers measured on uncommitted changes.
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            capture_output=True, text=True, check=True).stdout.strip()
except Exception:
    commit = "unknown"

try:
    doc = json.load(open(out_path))
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}

doc[bench] = {
    "commit": commit,
    "host_cores": multiprocessing.cpu_count(),
    "threads": int(threads),
    "sequential_s": seq_s,
    "parallel_s": par_s,
    "speedup": round(seq_s / par_s, 2) if par_s > 0 else None,
    "jsonl_rows": int(rows),
    "bitwise_identical": True,
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
print(f"wrote {out_path}: seq {seq_s:.3f}s, par {par_s:.3f}s "
      f"({doc[bench]['speedup']}x on {doc[bench]['host_cores']} cores)")
PY
