#!/usr/bin/env bash
# Alternating A/B runs of mcssbench workloads: commit BASE against the
# working tree this script lives in (uncommitted edits included).
#
#   scripts/ab.sh BASE WORKLOAD PAIRS SEED [SECONDS]
#
#   BASE      any commit-ish, e.g. HEAD~1 or a sha
#   WORKLOAD  stream | section6 | churn | psim, or `all` for every
#             workload BENCHMARK.json lists, with the same pairs and seeds
#   PAIRS     number of (base, change) run pairs per workload, e.g. 10
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
# With `all`, pair i runs every workload in turn (each side first on
# alternate pairs, as for one workload), so a regression on any workload
# shows in the same session as a gain on another.
#
# Output: one text table per workload, then one JSON line (with `all`,
# one line holding every workload's report and a list of the workloads
# with a `worse` metric). For every end-to-end metric in BENCHMARK.json
# each table prints the median and quartiles of each side, the median
# change, the pairs the change won, and a verdict:
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

if [[ "$workload" == all ]]; then
  workloads=($(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json"))
else
  workloads=("$workload")
fi
for w in "${workloads[@]}"; do
  : >"$ab_dir/results-$w-$seed.jsonl"
done

# run SIDE TREE BUILD_DIR WORKLOAD SEED: one run; appends
# {"side", "seed", result} to that workload's results file.
run_one() {
  local side="$1" tree="$2" build_dir="$3" w="$4" run_seed="$5" out
  if ! out="$(CARGO_TARGET_DIR="$build_dir" python3 "$tree/mcssbench/run.py" \
                --workload "$w" --seed "$run_seed" \
                --seconds "$seconds" --trace 0)"; then
    echo "ab: $side $w run (seed $run_seed) failed" >&2
  fi
  local last="${out##*$'\n'}"
  printf '{"side": "%s", "seed": %s, "result": %s}\n' \
    "$side" "$run_seed" "${last:-null}" >>"$ab_dir/results-$w-$seed.jsonl"
}

echo "ab: base $base_sha vs working tree $root" >&2
echo "ab: ${workloads[*]}, $pairs pairs from seed $((seed + 1)), ${seconds}s runs, in $ab_dir" >&2
for ((i = 1; i <= pairs; i++)); do
  s=$((seed + i))
  for w in "${workloads[@]}"; do
    if ((i % 2 == 1)); then
      run_one base "$base_tree" "$ab_dir/build-base" "$w" "$s"
      run_one change "$root" "$ab_dir/build-change" "$w" "$s"
    else
      run_one change "$root" "$ab_dir/build-change" "$w" "$s"
      run_one base "$base_tree" "$ab_dir/build-base" "$w" "$s"
    fi
  done
  echo "ab: pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$ab_dir" "$seed" "$base_sha" "$workload" \
  "${workloads[@]}" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
ab_dir, seed, base_sha, asked = sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def fail_frac(r):
    return r["failed"] / r["attempted"] if r.get("attempted") else 0.0

def analyse(workload):
    """Print one workload's verdict table and return its report."""
    rows = [json.loads(line) for line in
            open(f"{ab_dir}/results-{workload}-{seed}.jsonl") if line.strip()]
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], {})[row["side"]] = row["result"]
    pairs = [(v["base"], v["change"]) for _, v in sorted(by_seed.items())
             if isinstance(v.get("base"), dict) and isinstance(v.get("change"), dict)]

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
    return report

reports = {w: analyse(w) for w in sys.argv[6:]}
if asked == "all":
    print(json.dumps({"base": base_sha, "workloads": reports,
                      "worse": sorted(w for w, r in reports.items()
                                       if any(m["verdict"] == "worse"
                                              for m in r["metrics"].values()))},
                     sort_keys=True))
else:
    print(json.dumps(reports[asked], sort_keys=True))
PY
