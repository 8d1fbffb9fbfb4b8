#!/usr/bin/env bash
# Run the massive-flow session-layer bench: sweep 1k -> 100k concurrent
# ReMICSS flows with PCS-style churn on one SessionEndpoint over real
# loopback UDP, reporting flows/sec, p99 setup latency, and memory per
# flow. The bench's own gates (>= 10k flows sustained through churn,
# p99 setup <= 5 ms, mem/flow <= 4 KiB at the largest point,
# single-flow ARQ delivery >= 99.9% through the session layer) make it
# exit nonzero on regression, so this script doubles as the CI manyflow
# check. The JSON lands at <output-json> with run
# metadata merged in under "_meta".
#
# The sweep ceiling can be lowered for constrained hosts with
# MCSS_MANYFLOW_MAX (e.g. MCSS_MANYFLOW_MAX=20000).
#
# Usage:
#   scripts/run_bench_manyflow.sh [build-dir] [output-json]
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_manyflow.json}"
bench="manyflow_eval"
bench_bin="$build_dir/bench/$bench"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target $bench)" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

start=$(date +%s.%N)
"$bench_bin" --out "$work/doc.json"
end=$(date +%s.%N)
elapsed=$(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')

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
}
json.dump(doc, open(out_path, "w"), indent=2, sort_keys=True)
top = doc["sweep"][-1]
arq = doc["single_flow_arq"]
print(f"wrote {out_path}: {top['sustained_flows']} flows sustained at the "
      f"{top['target_flows']}-flow point, {top['flows_per_sec']:.0f} flows/s, "
      f"p99 setup {top['p99_setup_s']*1e6:.1f} us, "
      f"{top['mem_per_flow_bytes']:.0f} B/flow, "
      f"ARQ delivery {arq['delivered_fraction']:.4f}")
PY
