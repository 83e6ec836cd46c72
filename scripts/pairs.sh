#!/usr/bin/env bash
# pairs.sh — the alternating-pairs protocol behind every performance claim:
# the ledger (benchmark/run.sh, BENCHMARK.json) run on <rev> (the parent)
# and on this checkout (the change) in turn, the parent first on odd pairs
# and the change first on even ones, both sides of pair i on seed S+i-1.
#
# It prints, per end-to-end metric of BENCHMARK.json: each side's median
# [q1, q3] (Python's statistics.quantiles, as benchmark/stats.go), the
# change/parent ratio of the medians, the pairs the change won, and a
# verdict — "unresolved" when the ratio is within the larger of the two
# sides' relative quartile distances of 1, else "better" or "worse" ("worse,
# beyond bound" past the metric's bound). It exits non-zero when any run
# fails, is not correct or has failed > 0.
#
# <rev> is cloned (git clone --shared, no worktree is registered) into a
# directory under $TMPDIR, removed on exit. The change is this checkout's
# working tree, rebuilt by every run: do not edit it while a series runs.
# Result lines (one JSON object per run, tagged side/pair/seed and the tree
# it ran: the parent's short sha, or this checkout's HEAD plus "-dirty" when
# the tracked tree differs from it) and each run's log are kept under
# .bench_build/.
#
# Usage: scripts/pairs.sh <rev> <workload> [-n 10] [-seed S]
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
usage() { echo "usage: scripts/pairs.sh <rev> <workload> [-n 10] [-seed S]" >&2; exit 2; }
[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
n=10 seed=1
while [ $# -gt 0 ]; do
  case $1 in
    -n) n=${2:?}; shift 2 ;;
    -seed) seed=${2:?}; shift 2 ;;
    *) usage ;;
  esac
done
sha=$(git rev-parse --verify --quiet "$rev^{commit}") || { echo "pairs.sh: unknown revision $rev" >&2; exit 2; }

ptree=$(git rev-parse --short "$sha")
ctree=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- || ctree=$ctree-dirty

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git clone -q --shared --no-checkout "$root" "$parent"
git -C "$parent" checkout -q --detach "$sha"

logs=$root/.bench_build/pairs
mkdir -p "$logs"
out=$logs/$workload.jsonl
: >"$out"
bad=0
run() { # side dir pair seed tree
  local log=$logs/$workload-$1-$3.log line
  echo "pairs.sh: pair $3/$n, $1, seed $4" >&2
  if line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$4" --seconds 20 --trace 0 2>"$log" | tail -n 1) &&
    jq -ce --arg side "$1" --argjson pair "$3" --argjson seed "$4" --arg tree "$5" '{side: $side, pair: $pair, seed: $seed, tree: $tree} + .' <<<"$line" >>"$out" 2>/dev/null; then
    return
  fi
  echo "pairs.sh: $1 run of pair $3 failed; log: $log" >&2
  bad=1
}
for ((i = 1; i <= n; i++)); do
  s=$((seed + i - 1))
  if ((i % 2 == 1)); then
    run parent "$parent" "$i" "$s" "$ptree"
    run change "$root" "$i" "$s" "$ctree"
  else
    run change "$root" "$i" "$s" "$ctree"
    run parent "$parent" "$i" "$s" "$ptree"
  fi
done

echo "pairs.sh: $workload, $n pairs, seeds $seed–$((seed + n - 1)), parent $ptree vs change $ctree"
jq -r '"\(.side) \(.attempted) \(.failed) \(.correct)"' "$out" |
  awk '{runs[$1]++; att[$1] += $2; fail[$1] += $3; if ($4 != "true") wrong[$1]++}
    END {for (s in runs) printf "%s: %d runs, %.0f operations attempted, %.0f failed, %d not correct\n", s, runs[s], att[s], fail[s], wrong[s]}'
if [ "$(jq -s 'map(select(.correct != true or .failed > 0)) | length' "$out")" != 0 ]; then
  echo "pairs.sh: a run is not correct or has failed operations" >&2
  bad=1
fi

printf '%-16s | %-32s | %-32s | %-7s | %-5s | %s\n' metric parent change ratio won verdict
jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" | while read -r m better bound; do
  jq -r --arg m "$m" 'select(.metrics[$m] != null) | "\(.side) \(.pair) \(.metrics[$m].value)"' "$out" |
    awk -v m="$m" -v better="$better" -v bound="$bound" '
      function quart(v, k, q,    s, i, j, x, d) { # Python statistics.quantiles, exclusive
        for (i = 1; i <= k; i++) s[i] = v[i]
        for (i = 2; i <= k; i++) { x = s[i]; for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]; s[j + 1] = x }
        if (k == 1) { q[1] = q[2] = q[3] = s[1]; return }
        for (i = 1; i <= 3; i++) {
          j = int(i * (k + 1) / 4); if (j < 1) j = 1; if (j > k - 1) j = k - 1
          d = i * (k + 1) - 4 * j
          q[i] = (s[j] * (4 - d) + s[j + 1] * d) / 4
        }
      }
      function abs(x) { return x < 0 ? -x : x }
      { val[$1, $2] = $3; n[$1]++; v[$1, n[$1]] = $3; if ($2 > pairs) pairs = $2 }
      END {
        if (!n["parent"] || !n["change"]) { printf "%-16s | no runs on both sides\n", m; exit }
        for (i = 1; i <= n["parent"]; i++) pv[i] = v["parent", i]
        for (i = 1; i <= n["change"]; i++) cv[i] = v["change", i]
        quart(pv, n["parent"], p); quart(cv, n["change"], c)
        ratio = p[2] ? c[2] / p[2] : 0
        sp = p[2] ? (p[3] - p[1]) / abs(p[2]) : 0; sc = c[2] ? (c[3] - c[1]) / abs(c[2]) : 0
        spread = sp > sc ? sp : sc
        won = 0; both = 0
        for (i = 1; i <= pairs; i++) {
          if (!(("parent", i) in val) || !(("change", i) in val)) continue
          both++
          if (better == "higher" ? val["change", i] > val["parent", i] : val["change", i] < val["parent", i]) won++
        }
        gain = better == "higher" ? ratio - 1 : 1 - ratio
        if (abs(ratio - 1) <= spread) verdict = sprintf("unresolved (spread %.1f%%)", 100 * spread)
        else if (gain > 0) verdict = "better"
        else if (-gain > bound) verdict = "worse, beyond bound"
        else verdict = "worse"
        printf "%-16s | %-32s | %-32s | %.3fx  | %2d/%-2d | %s\n", m,
          sprintf("%.4g [%.4g, %.4g]", p[2], p[1], p[3]), sprintf("%.4g [%.4g, %.4g]", c[2], c[1], c[3]),
          ratio, won, both, verdict
      }'
done
exit $bad
