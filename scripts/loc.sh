#!/usr/bin/env bash
# Per-crate size trend (ROADMAP items 5 and 3c): total Rust lines, and over
# the non-test lines (everything up to a file's first `#[cfg(test)]`) the
# line count, `pub` items, `unsafe` occurrences, thread-spawning sites
# (`thread::scope` / `thread::spawn`) and virtual clusters built
# (`SimBuilder::new` outside comments), so a new one of any is noticed:
# outside netsim and core the `sim` column is 1, `suite::run_case`. The last
# row is the `hzc` CLI (`src/bin/hzc`).
# Run from anywhere; pass a different checkout root as $1 to compare two trees.
#
#   scripts/loc.sh --check scripts/loc.baseline
#
# prints the same table and exits non-zero when a crate's `pub`, `unsafe`,
# `spawn` or `sim` counter is above the committed baseline (`crate pub unsafe
# spawn sim` per line; a crate the baseline does not list is held to zero) —
# ROADMAP 3(c) and 8(a): CI fails when a count rises. Lower the baseline when
# a count falls.
set -euo pipefail
baseline=""
if [ "${1:-}" = --check ]; then
    baseline="${2:?usage: loc.sh --check BASELINE}"
    shift 2
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
table=$(mktemp)
trap 'rm -f "$table"' EXIT
{
printf '%-12s %8s %9s %6s %7s %6s %4s\n' crate total non-test pub unsafe spawn sim
for dir in "$root"/crates/*/ "$root"/src/bin/hzc/; do
    files=$(find "$dir" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_tests = 0 }
        { total++ }
        !in_tests {
            code++
            if ($0 ~ /^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod|use|unsafe fn|async fn)[[:space:]]/) pubs++
            line = $0
            unsafes += gsub(/(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/, "", line)
            if ($0 ~ /thread::(scope|spawn)/) spawns++
            if ($0 ~ /SimBuilder::new/ && $0 !~ /^[[:space:]]*\/\//) sims++
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        END { printf "%-12s %8d %9d %6d %7d %6d %4d\n", crate, total, code, pubs, unsafes, spawns, sims }
    ' $files
done
} | tee "$table"
[ -n "$baseline" ] || exit 0
awk '
    NR == FNR { if ($1 !~ /^#/ && NF) for (c = 2; c <= 5; c++) limit[$1, c] = $c; next }
    FNR == 1 { for (c = 4; c <= 7; c++) name[c] = $c; next }
    {
        for (c = 4; c <= 7; c++) if ($c > limit[$1, c - 2] + 0) {
            printf "loc.sh: %s: %s %d > baseline %d\n", $1, name[c], $c, limit[$1, c - 2]
            bad = 1
        }
    }
    END { exit bad }
' "$baseline" "$table" >&2
