#!/usr/bin/env bash
# Output-identity oracle: do the figure, ablation and evaluation benches
# print the same bytes at commit BASE and in the working tree this
# script lives in (uncommitted edits included)?
#
#   scripts/same_outputs.sh BASE
#
# BASE is exported with `git archive` into a work directory, so the
# repository's own git metadata is never touched. Both trees are built
# (Release, benches only) and each binary below runs once per tree, in
# a directory of its own, with MCSS_BENCH_JSONL pointing into it:
#
#   fig2_schedule_packing fig3_rate_identical fig3_rate_diverse
#   fig4_delay fig5_loss fig6_highbw_mu1 fig7_highbw_mu5
#   ablation_scheduler ablation_outage ablation_limited_schedule
#   reliability_eval topology_eval     stdout, exit status, JSONL and
#                                      every file the run writes
#   parallel_sim_eval                  fingerprints and its determinism
#                                      and completion FAIL: lines only;
#                                      run at --flows 4000 --large-flows
#                                      20000 --out psim.json
#
# parallel_sim_eval's stdout carries wall-clock timings, and its exit
# status includes the thread-speedup gate, which a loaded host can fail
# on byte-identical simulator output; neither is compared. Its gate
# lines (every `FAIL:` line but the speedup one) are, so a change that
# makes fingerprints differ across thread counts, or leaves flows
# incomplete, reads FAIL.
#
# Fingerprints (`fingerprint=` / `loss_fp=` on stdout and every
# "*fingerprint*" field of a JSON file the run writes) are collected
# for every binary. The script prints one OK or FAIL line per binary
# with the first differing lines on FAIL, and exits 1 if any binary
# differs. SAME_DIR=<dir> keeps the trees, builds and outputs for reuse
# (default: a fresh mktemp directory, kept). fig6 and fig7 take a
# minute or two each per tree.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  sed -n '2,6p' "$0" >&2
  exit 2
fi
base_rev="$1"

root="$(cd "$(dirname "$0")/.." && pwd)"
work="${SAME_DIR:-$(mktemp -d -t mcss-same.XXXXXX)}"
mkdir -p "$work"
base_sha="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")"
base_tree="$work/base-$base_sha"
if [[ ! -d "$base_tree" ]]; then
  mkdir -p "$base_tree.tmp"
  git -C "$root" archive "$base_sha" | tar -x -C "$base_tree.tmp"
  mv "$base_tree.tmp" "$base_tree"
fi

benches=(fig2_schedule_packing fig3_rate_identical fig3_rate_diverse
         fig4_delay fig5_loss fig6_highbw_mu1 fig7_highbw_mu5
         ablation_scheduler ablation_outage ablation_limited_schedule
         reliability_eval topology_eval parallel_sim_eval)

# build TREE BUILD_DIR
build() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DMCSS_BUILD_TESTS=OFF \
    -DMCSS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$2" -j "$(nproc)" --target "${benches[@]}" >/dev/null
}

echo "same_outputs: base $base_sha vs working tree $root, in $work" >&2
build "$base_tree" "$work/build-base-$base_sha"
build "$root" "$work/build-change"

# run SIDE BUILD_DIR BENCH: one run into $work/out-SIDE/BENCH/.
run() {
  local dir="$work/out-$1/$3" args=()
  rm -rf "$dir"
  mkdir -p "$dir"
  [[ "$3" == parallel_sim_eval ]] && args=(--flows 4000 --large-flows 20000 --out psim.json)
  local rc=0
  (cd "$dir" && MCSS_BENCH_JSONL="$dir/jsonl" \
     "$2/bench/$3" "${args[@]}" >stdout.txt 2>"$work/out-$1/$3.stderr") || rc=$?
  echo "$rc" >"$dir/exit_status"
  { grep -oE '(fingerprint|loss_fp)=[0-9a-f]+' "$dir/stdout.txt" || true
    python3 - "$dir" <<'PY'
import json, pathlib, sys

def walk(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            if "fingerprint" in key and not isinstance(value, (dict, list)):
                print(f"{path}{key}={value}")
            walk(value, f"{path}{key}.")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk(value, f"{path}{i}.")

for f in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    walk(json.loads(f.read_text()), f"{f.name}:")
PY
  } >"$dir/fingerprints.txt"
  { grep 'FAIL:' "$dir/stdout.txt" | grep -v 'speedup' || true; } >"$dir/gates.txt"
}

failed=0
for b in "${benches[@]}"; do
  run base "$work/build-base-$base_sha" "$b"
  run change "$work/build-change" "$b"
  a="$work/out-base/$b" c="$work/out-change/$b"
  if [[ "$b" == parallel_sim_eval ]]; then
    what="$(wc -l <"$a/fingerprints.txt") fingerprints and gate lines"
    same() { cmp -s "$a/fingerprints.txt" "$c/fingerprints.txt" &&
             cmp -s "$a/gates.txt" "$c/gates.txt"; }
    show() { diff "$a/fingerprints.txt" "$c/fingerprints.txt" | head -20
             diff "$a/gates.txt" "$c/gates.txt"; }
  else
    what="stdout, JSONL, files and $(wc -l <"$a/fingerprints.txt") fingerprints"
    same() { diff -r -q "$a" "$c" >/dev/null; }
    show() { diff -r "$a" "$c" | head -20; }
  fi
  if same; then
    echo "OK    $b ($what identical, exit $(cat "$a/exit_status"))"
  else
    echo "FAIL  $b (exit base $(cat "$a/exit_status"), change $(cat "$c/exit_status"))"
    show || true
    failed=1
  fi
done
exit "$failed"
