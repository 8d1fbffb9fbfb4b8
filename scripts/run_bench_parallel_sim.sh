#!/usr/bin/env bash
# Run the partitioned-simulator scaling bench and the figure-sweep
# equivalence check:
#
#   1. parallel_sim_eval — bitwise-determinism gate (MCSS_THREADS 1/2/8
#      must produce identical fingerprints; hard failure anywhere), the
#      thread-count speedup sweep (bar conditional on host cores: 2.0x
#      at >= 8, 1.3x at >= 4, informational below), the LP-count sweep,
#      and the large population point (default 1,000,000 flows;
#      MCSS_PSIM_FLOWS lowers it for constrained hosts).
#   2. A real figure sweep (fig5_loss) run at MCSS_THREADS=1, 2, 8:
#      stdout AND the JSON-lines series must be byte-identical across
#      all three — the end-to-end determinism contract, checked on the
#      exact binaries the paper-reproduction artifacts come from.
#
# The bench JSON lands at <output-json> with run metadata under "_meta".
#
# Usage:
#   scripts/run_bench_parallel_sim.sh [build-dir] [output-json]
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_parallel_sim.json}"
bench_bin="$build_dir/bench/parallel_sim_eval"
fig_bin="$build_dir/bench/fig5_loss"

for bin in "$bench_bin" "$fig_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build_dir)" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== parallel_sim_eval =="
start=$(date +%s.%N)
"$bench_bin" --out "$work/doc.json"
end=$(date +%s.%N)
elapsed=$(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')

echo
echo "== fig5_loss at MCSS_THREADS in {1, 2, 8} =="
for t in 1 2 8; do
  echo "  running with MCSS_THREADS=$t ..."
  MCSS_THREADS="$t" MCSS_BENCH_JSONL="$work/fig-$t.jsonl" \
    "$fig_bin" > "$work/fig-$t.txt"
done
for t in 2 8; do
  if ! cmp -s "$work/fig-1.txt" "$work/fig-$t.txt"; then
    echo "FAIL: fig5_loss stdout differs between MCSS_THREADS=1 and $t" >&2
    diff "$work/fig-1.txt" "$work/fig-$t.txt" >&2 || true
    exit 1
  fi
  if ! cmp -s "$work/fig-1.jsonl" "$work/fig-$t.jsonl"; then
    echo "FAIL: fig5_loss JSONL differs between MCSS_THREADS=1 and $t" >&2
    exit 1
  fi
done
echo "  OK: stdout and JSONL bitwise identical across 1/2/8 threads"

python3 - "$out" "$work/doc.json" "$elapsed" <<'PY'
import json, multiprocessing, subprocess, sys

out_path, doc_path, elapsed = sys.argv[1:4]

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
    "elapsed_s": float(elapsed),
    "fig_sweep_bitwise_identical": True,
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
large = doc["large_point"]
print(f"wrote {out_path}: deterministic={doc['deterministic']}, "
      f"best speedup {doc['best_speedup']:.2f}x on "
      f"{doc['host_cores']} cores, large point {large['flows']} flows "
      f"in {large['wall_s']:.1f}s ({large['events_per_sec']/1e6:.2f}M events/s)")
PY
