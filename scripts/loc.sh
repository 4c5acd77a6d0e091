#!/usr/bin/env bash
# Per-crate size trend (ROADMAP items 5 and 3c): total Rust lines, and over
# the non-test lines (everything up to a file's first `#[cfg(test)]`) the
# line count, `pub` items, `unsafe` occurrences, thread-spawning sites
# (`thread::scope` / `thread::spawn`) and virtual clusters built
# (`SimBuilder::new` outside comments), so a new one of any is noticed:
# outside netsim and core the `sim` column is 1, `suite::run_case`. The last
# row is the `hzc` CLI (`src/bin/hzc`).
# Run from anywhere; pass a different checkout root as $1 to compare two trees.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
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
