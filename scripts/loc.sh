#!/usr/bin/env bash
# Per-crate size trend (ROADMAP item 5): total Rust lines, non-test lines
# (everything up to a file's first `#[cfg(test)]`) and `pub` items. Run from
# anywhere; pass a different checkout root as $1 to compare two trees.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
printf '%-12s %8s %9s %6s\n' crate total non-test pub
for dir in "$root"/crates/*/; do
    files=$(find "$dir" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_tests = 0 }
        { total++ }
        !in_tests {
            code++
            if ($0 ~ /^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod|use|unsafe fn|async fn)[[:space:]]/) pubs++
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        END { printf "%-12s %8d %9d %6d\n", crate, total, code, pubs }
    ' $files
done
