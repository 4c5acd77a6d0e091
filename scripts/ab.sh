#!/usr/bin/env bash
# Alternating parent/change pairs of the wall-clock benchmark — the evidence
# ROADMAP asks of every speed claim (choosing-metrics §8), so that no perf PR
# hand-rolls it.
#
#   scripts/ab.sh <parent-rev> [--pairs N] [--seconds T] [--workload W]... [--layer NAME]...
#
# The parent is `git archive <parent-rev>` unpacked in a temporary directory
# (under $TMPDIR; nothing is registered in .git, so an interrupted run leaves
# nothing behind but that directory); the change is this working tree as it
# stands. Each side builds into its own CARGO_TARGET_DIR there. Pair i runs
# every workload once per side with the same seed (a fresh one per pair), the
# parent first in even pairs and the change first in odd ones, each run being
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0
#
# from the side's own checkout: this script only calls benchmark/, it changes
# nothing there. Defaults: 10 pairs, and BENCHMARK.json's run_seconds and
# workloads.
#
# Prints every run, then per workload x end-to-end metric both sides' median
# and quartiles, the change's median relative to the parent's, the pairs the
# change won (ties count for neither side) and the §8 verdict: `gain` when
# the change wins at least 9 of every 10 pairs and the medians differ by more
# than the distance between the parent's quartiles, `LOSS` for the mirror
# image, `same` when every pair is bit-identical, `-` otherwise (with fewer
# than 10 pairs there is no verdict). Exits 1 when a run fails or reports
# `failed > 0`.
#
# With `--layer NAME` (repeatable; a per-layer metric of BENCHMARK.json) the
# pairs are followed by one `--trace 1` run per side and workload, all on one
# seed, and each named metric is printed side by side wherever a run measured
# it (`mixed_schedules  core.framed_ms.mpi  188.4 -> 41.5 ms`): where the
# end-to-end difference sits (choosing-metrics §6.6). One run a side, so a
# pointer, not a claim. A name no traced run printed is an error (exit 2)
# that lists the names they did print.
set -euo pipefail

die() { echo "ab.sh: $*" >&2; exit 2; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
parent_rev="" pairs=10 seconds="" workloads=() layers=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs N}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds T}"; shift 2 ;;
        --workload) workloads+=("${2:?--workload W}"); shift 2 ;;
        --layer) layers+=("${2:?--layer NAME}"); shift 2 ;;
        -*) die "unknown option $1" ;;
        *) [ -z "$parent_rev" ] || die "one parent revision, got '$parent_rev' and '$1'"
           parent_rev="$1"; shift ;;
    esac
done
[ -n "$parent_rev" ] || die "usage: ab.sh <parent-rev> [--pairs N] [--seconds T] [--workload W]... [--layer NAME]..."
[ "$pairs" -ge 1 ] 2>/dev/null || die "--pairs must be a positive integer"
[ -n "$seconds" ] || seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")
[ ${#workloads[@]} -gt 0 ] ||
    mapfile -t workloads < <(sed -n 's/^ *{"name": "\([a-z_0-9]*\)", "why".*/\1/p' "$spec")
# the end-to-end metrics: `name unit better`
metrics=$(sed -n 's/^ *{"name": "\([a-z_0-9]*\)", "unit": "\([^"]*\)", "better": "\([a-z]*\)", "bound".*/\1 \2 \3/p' "$spec")
[ -n "$seconds" ] && [ ${#workloads[@]} -gt 0 ] && [ -n "$metrics" ] || die "cannot read $spec"

parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}") || die "no commit '$parent_rev'"
work=$(mktemp -d "${TMPDIR:-/tmp}/hz-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"
change_name="$(git -C "$root" rev-parse --short HEAD)+worktree"
echo "ab.sh: parent ${parent_sha:0:7} vs $change_name; $pairs pairs x ${workloads[*]}, $seconds s per run"

runs="$work/runs.tsv" # pair side workload metric value
bad=0
# bench SIDE SEED WORKLOAD TRACE: the result object of one run of benchmark/run.sh
bench() {
    local dir commit
    if [ "$1" = parent ]; then dir="$work/parent" commit=$parent_sha; else dir="$root" commit=$change_name; fi
    (cd "$dir" && CARGO_TARGET_DIR="$work/target-$1" HZBENCH_COMMIT="$commit" \
        bash benchmark/run.sh --workload "$3" --seed "$2" --seconds "$seconds" --trace "$4" | tail -n 1)
}
# one_run SIDE PAIR SEED WORKLOAD
one_run() {
    local side=$1 pair=$2 seed=$3 w=$4 json failed line m v
    if ! json=$(bench "$side" "$seed" "$w" 0); then
        echo "run pair=$pair seed=$seed $side $w: benchmark/run.sh failed"
        bad=1
        return
    fi
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$json")
    [ "$failed" = 0 ] || bad=1
    line="run pair=$pair seed=$seed $side $w failed=${failed:-?}"
    while read -r m _; do
        v=$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$json")
        [ -n "$v" ] || { bad=1; v=nan; }
        printf '%s\t%s\t%s\t%s\t%s\n' "$pair" "$side" "$w" "$m" "$v" >>"$runs"
        line+=" $m=$v"
    done <<<"$metrics"
    echo "$line"
}

seed0=$(( $(date +%s) % 1000000 ))
for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for w in "${workloads[@]}"; do
        for side in $order; do
            one_run "$side" "$pair" $((seed0 + pair)) "$w"
        done
    done
done

echo
awk -F'\t' -v pairs="$pairs" -v metrics="$(tr '\n' ';' <<<"$metrics")" -v workloads="${workloads[*]}" '
    # linear-interpolated quantile of v[1..n], sorted ascending
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sorted(src, key, dst,    i, j, n, t) {
        n = 0
        for (i = 0; i < pairs; i++) if ((key, i) in src) dst[++n] = src[key, i]
        for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
        return n
    }
    { if ($2 == "parent") p[$3, $4, $1] = $5; else c[$3, $4, $1] = $5 }
    END {
        nm = split(metrics, mrow, ";") - 1; nw = split(workloads, wl, " ")
        printf "%-16s %-17s %-5s %34s %34s %8s %6s  %s\n", "workload", "metric", "unit", "parent median (q1 .. q3)", "change median (q1 .. q3)", "change", "won", "verdict"
        for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
            split(mrow[mi], f, " "); key = wl[wi] SUBSEP f[1]
            np = sorted(p, key, ps); nc = sorted(c, key, cs)
            if (np == 0 || nc == 0) continue
            won = lost = 0
            for (i = 0; i < pairs; i++) if ((key, i) in p && (key, i) in c) {
                d = c[key, i] - p[key, i]; if (f[3] == "higher") d = -d
                if (d < 0) won++; else if (d > 0) lost++
            }
            pm = quantile(ps, np, 0.5); cm = quantile(cs, nc, 0.5)
            iqr = quantile(ps, np, 0.75) - quantile(ps, np, 0.25)
            gap = cm - pm; if (f[3] == "higher") gap = -gap
            verdict = "-"
            if (won + lost == 0) verdict = "same"
            else if (pairs < 10) verdict = "n/a"
            else if (won >= 0.9 * pairs && gap < 0 && -gap > iqr) verdict = "gain"
            else if (lost >= 0.9 * pairs && gap > 0 && gap > iqr) verdict = "LOSS"
            printf "%-16s %-17s %-5s %12.6g (%8.6g .. %8.6g) %12.6g (%8.6g .. %8.6g) %+7.1f%% %3d/%-2d  %s\n", wl[wi], f[1], f[2], pm, quantile(ps, np, 0.25), quantile(ps, np, 0.75), cm, quantile(cs, nc, 0.25), quantile(cs, nc, 0.75), pm == 0 ? 0 : 100 * (cm - pm) / pm, won, pairs, verdict
        }
    }
' "$runs"

if [ ${#layers[@]} -gt 0 ]; then
    echo
    echo "per-layer metrics, one traced run per side (seed $seed0):"
    printed="" found=" "
    for w in "${workloads[@]}"; do
        pj=$(bench parent "$seed0" "$w" 1) && cj=$(bench change "$seed0" "$w" 1) ||
            { echo "traced run of $w: benchmark/run.sh failed"; bad=1; continue; }
        printed+=$(grep -o '"[a-z_0-9.]*":{"value"' <<<"$pj$cj" | cut -d'"' -f2)$'\n'
        for name in "${layers[@]}"; do
            pick="s/.*\"${name//./\\.}\":{\"value\":\([^,}]*\),\"unit\":\"\([^\"]*\)\".*/\1 \2/p"
            read -r pv unit < <(sed -n "$pick" <<<"$pj") || continue
            read -r cv _ < <(sed -n "$pick" <<<"$cj") || continue
            found+="$name "
            [[ "$pv$cv" =~ [1-9] ]] || continue # a layer this workload does not run
            printf '%-16s %-34s %12.6g -> %-12.6g %s\n' "$w" "$name" "$pv" "$cv" "$unit"
        done
    done
    for name in "${layers[@]}"; do
        [[ "$found" == *" $name "* ]] && continue
        echo "ab.sh: no traced run printed '$name'; they printed:" >&2
        sort -u <<<"$printed" | sed '/^$/d; s/^/  /' >&2
        exit 2
    done
fi
[ "$bad" = 0 ] || { echo "ab.sh: a run failed or reported failed > 0" >&2; exit 1; }
