#!/usr/bin/env bash
# Run the reliability/privacy tradeoff bench and verify its determinism
# guarantee: stdout AND the BENCH_reliability.json document must be
# byte-identical between MCSS_THREADS=1 (sequential) and MCSS_THREADS=N
# — each mode is an independent seeded simulation, and all printing
# happens on the main thread in mode order.
#
# The bench's own shape gates (ARQ >= 99.9% delivery, exposure risk at
# or above the static plan risk, proactive plan feasible) make it exit
# nonzero on regression, so this script doubles as the CI reliability
# check. The verified JSON lands at <output-json> with run metadata
# merged in under "_meta".
#
# Usage:
#   scripts/run_bench_reliability.sh [build-dir] [output-json] [threads]
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_reliability.json}"
threads="${3:-4}"
bench="reliability_eval"
bench_bin="$build_dir/bench/$bench"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target $bench)" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run_timed() {  # <threads> <stdout-file> <json-file> -> seconds
  local t="$1" outfile="$2" json="$3"
  local start end
  start=$(date +%s.%N)
  MCSS_THREADS="$t" "$bench_bin" --out "$json" >"$outfile"
  end=$(date +%s.%N)
  echo "$end $start" | awk '{printf "%.3f", $1 - $2}'
}

# Both runs write the same --out path (the bench echoes it to stdout,
# so distinct paths would trip the stdout comparison).
echo "running $bench with MCSS_THREADS=1 ..."
seq_s=$(run_timed 1 "$work/seq.txt" "$work/doc.json")
mv "$work/doc.json" "$work/seq.json"
echo "running $bench with MCSS_THREADS=$threads ..."
par_s=$(run_timed "$threads" "$work/par.txt" "$work/doc.json")
mv "$work/doc.json" "$work/par.json"

if ! cmp -s "$work/seq.txt" "$work/par.txt"; then
  echo "FAIL: stdout differs between MCSS_THREADS=1 and MCSS_THREADS=$threads" >&2
  diff "$work/seq.txt" "$work/par.txt" >&2 || true
  exit 1
fi
if ! cmp -s "$work/seq.json" "$work/par.json"; then
  echo "FAIL: JSON differs between MCSS_THREADS=1 and MCSS_THREADS=$threads" >&2
  exit 1
fi
echo "OK: stdout and JSON bitwise identical (1 vs $threads threads)"

python3 - "$out" "$work/seq.json" "$threads" "$seq_s" "$par_s" <<'PY'
import json, multiprocessing, subprocess, sys

out_path, doc_path, threads, seq_s, par_s = sys.argv[1:6]
seq_s, par_s = float(seq_s), float(par_s)

try:
    # "-dirty" marks numbers measured on uncommitted changes.
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            capture_output=True, text=True, check=True).stdout.strip()
except Exception:
    commit = "unknown"

doc = json.load(open(doc_path))
doc["_meta"] = {
    "commit": commit,
    "host_cores": multiprocessing.cpu_count(),
    "threads": int(threads),
    "sequential_s": seq_s,
    "parallel_s": par_s,
    "bitwise_identical": True,
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
arq = next(m for m in doc["modes"] if m["mode"] == "arq")
print(f"wrote {out_path}: ARQ delivery {arq['delivery']:.4f}, "
      f"{arq['retransmits']} retransmits, exposure_z {arq['exposure_risk_mean']:.4f} "
      f"vs static_z {arq['static_risk_mean']:.4f}")
PY
