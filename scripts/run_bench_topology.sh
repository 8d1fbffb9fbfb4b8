#!/usr/bin/env bash
# Run the routed-topology correlation bench and package its artifact:
#
#   topology_eval — correlated vs independent z(k, M) on the four named
#   topologies (equal on the disjoint control, strictly worse at the
#   catastrophic tail wherever paths share links), a Monte-Carlo
#   cross-check of the exact enumeration, routed delivery through
#   topo::Network on the sequential backend, and the partitioned-engine
#   determinism gate (router per LP, MCSS_THREADS 1/2/8 must produce
#   bitwise-identical arrival and loss fingerprints). Every gate is a
#   hard failure.
#
# The bench JSON lands at <output-json> with run metadata under "_meta".
# MCSS_TOPO_TRIALS overrides the Monte-Carlo sample count.
#
# Usage:
#   scripts/run_bench_topology.sh [build-dir] [output-json]
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_topology.json}"
bench_bin="$build_dir/bench/topology_eval"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir)" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== topology_eval =="
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

m = doc["channels"]
gaps = {t["topology"]: {row["k"]: row["gap"] for row in t["z"]}
        for t in doc["topologies"]}
worst = max((g[m], name) for name, g in gaps.items())
print(f"wrote {out_path}: deterministic={doc['deterministic']}, "
      f"largest k={m} correlation gap {worst[0]:+.4f} ({worst[1]}), "
      f"disjoint control gap {gaps['disjoint'][m]:+.1e}")
PY
