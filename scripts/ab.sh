#!/usr/bin/env bash
# Alternating A/B runs of one mcssbench workload: commit BASE against the
# working tree this script lives in (uncommitted edits included).
#
#   scripts/ab.sh BASE WORKLOAD PAIRS SEED [SECONDS]
#
#   BASE      any commit-ish, e.g. HEAD~1 or a sha
#   WORKLOAD  stream | section6 | churn | psim
#   PAIRS     number of (base, change) run pairs, e.g. 10
#   SEED      pair i runs both sides with seed SEED + i
#   SECONDS   per-run length passed to mcssbench/run.py (default 10)
#
# BASE is exported with `git archive` into a work directory, so the
# repository's own git metadata is never touched. Each tree builds
# mcssbench into its own CARGO_TARGET_DIR (AB_DIR/build-base and
# AB_DIR/build-change); AB_DIR defaults to a fresh mktemp directory and
# is kept, so a second call with the same AB_DIR rebuilds incrementally.
# Pairs alternate which side runs first, so a drift in host speed lands
# on both sides alike.
#
# Output: one text table, then one JSON line. For every end-to-end
# metric in BENCHMARK.json it prints the median and quartiles of each
# side, the median change, the pairs the change won, and a verdict:
#   better      won >= 90% of pairs, and the medians differ by more than
#               the base's quartile spread
#   worse       the change's median is worse than the base's by more
#               than the metric's bound
#   unresolved  the base's quartile spread exceeds the bound, so these
#               pairs cannot tell (unless every change run beats every
#               base run: that reads as within, never as better)
#   within      none of the above
# The script edits nothing under mcssbench/ and does not change
# BENCHMARK.json.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
  sed -n '2,11p' "$0" >&2
  exit 2
fi
base_rev="$1"
workload="$2"
pairs="$3"
seed="$4"
seconds="${5:-10}"

root="$(cd "$(dirname "$0")/.." && pwd)"
ab_dir="${AB_DIR:-$(mktemp -d -t mcss-ab.XXXXXX)}"
mkdir -p "$ab_dir"
base_sha="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")"
base_tree="$ab_dir/base-$base_sha"
if [[ ! -d "$base_tree" ]]; then
  mkdir -p "$base_tree.tmp"
  git -C "$root" archive "$base_sha" | tar -x -C "$base_tree.tmp"
  mv "$base_tree.tmp" "$base_tree"
fi

results="$ab_dir/results-$workload-$seed.jsonl"
: >"$results"

# run SIDE TREE BUILD_DIR SEED: one run; appends {"side", "seed", result}.
run_one() {
  local side="$1" tree="$2" build_dir="$3" run_seed="$4" out
  if ! out="$(CARGO_TARGET_DIR="$build_dir" python3 "$tree/mcssbench/run.py" \
                --workload "$workload" --seed "$run_seed" \
                --seconds "$seconds" --trace 0)"; then
    echo "ab: $side run (seed $run_seed) failed" >&2
  fi
  local last="${out##*$'\n'}"
  printf '{"side": "%s", "seed": %s, "result": %s}\n' \
    "$side" "$run_seed" "${last:-null}" >>"$results"
}

echo "ab: base $base_sha vs working tree $root" >&2
echo "ab: $workload, $pairs pairs from seed $((seed + 1)), ${seconds}s runs, in $ab_dir" >&2
for ((i = 1; i <= pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 1)); then
    run_one base "$base_tree" "$ab_dir/build-base" "$s"
    run_one change "$root" "$ab_dir/build-change" "$s"
  else
    run_one change "$root" "$ab_dir/build-change" "$s"
    run_one base "$base_tree" "$ab_dir/build-base" "$s"
  fi
  echo "ab: pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$results" "$base_sha" "$workload" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
rows = [json.loads(line) for line in open(sys.argv[2]) if line.strip()]
base_sha, workload = sys.argv[3], sys.argv[4]

by_seed = {}
for row in rows:
    by_seed.setdefault(row["seed"], {})[row["side"]] = row["result"]
pairs = [(v["base"], v["change"]) for _, v in sorted(by_seed.items())
         if isinstance(v.get("base"), dict) and isinstance(v.get("change"), dict)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def fail_frac(r):
    return r["failed"] / r["attempted"] if r.get("attempted") else 0.0

report = {"base": base_sha, "workload": workload, "pairs": len(pairs),
          "incorrect_runs": {side: sum(1 for p in pairs if not p[i]["correct"])
                             for i, side in enumerate(("base", "change"))},
          "fail_frac": {side: [fail_frac(p[i]) for p in pairs]
                        for i, side in enumerate(("base", "change"))},
          "metrics": {}}
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    value = lambda r: (r["metrics"].get(name) or {}).get("value")
    both = [(value(b), value(c)) for b, c in pairs]
    both = [(b, c) for b, c in both if b is not None and c is not None]
    if not both:
        continue
    base = [b for b, _ in both]
    change = [c for _, c in both]
    bq, cq = quartiles(base), quartiles(change)
    wins = sum(1 for b, c in both if (c < b if lower else c > b))
    iqr = bq[2] - bq[0]
    delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    worse = delta > m["bound"] if lower else -delta > m["bound"]
    spread = iqr / bq[1] if bq[1] else 0.0
    gain = bq[1] - cq[1] if lower else cq[1] - bq[1]
    dominates = (max(change) < min(base)) if lower else (min(change) > max(base))
    if worse:
        verdict = "worse"
    elif wins >= 0.9 * len(both) and gain > iqr:
        verdict = "better"
    elif spread > m["bound"] and not dominates:
        verdict = "unresolved"
    else:
        verdict = "within"
    report["metrics"][name] = {
        "unit": m["unit"], "better": m["better"], "bound": m["bound"],
        "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
        "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
        "delta": delta, "wins": wins, "n": len(both), "verdict": verdict}

print(f"ab: {workload}: base {base_sha[:10]} vs working tree, "
      f"{len(pairs)} pairs; incorrect runs base/change "
      f"{report['incorrect_runs']['base']}/{report['incorrect_runs']['change']}")
print(f"{'metric':<15} {'base median [q1, q3]':<28} "
      f"{'change median [q1, q3]':<28} {'delta':>8} {'wins':>6} "
      f"{'bound':>6}  verdict")
for name, r in report["metrics"].items():
    b, c = r["base"], r["change"]
    fmt = lambda q: f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"
    print(f"{name:<15} {fmt(b):<28} {fmt(c):<28} {100 * r['delta']:>+7.1f}% "
          f"{r['wins']:>3}/{r['n']:<2} {100 * r['bound']:>5.0f}%  {r['verdict']}")
print(json.dumps(report, sort_keys=True))
PY
