#!/usr/bin/env bash
# Per-crate size trend (ROADMAP items 5, 3c and 8a): total Rust lines, and over
# the non-test lines the line count, `pub` items, `pub` items named nowhere outside their crate,
# `unsafe` occurrences, thread-spawning sites (`thread::scope` /
# `thread::spawn`) and virtual clusters built (`SimBuilder::new` outside
# comments), so a new one of any is noticed: outside netsim and core the `sim`
# column is 1, `suite::run_case`. The last row is the `hzc` CLI (`src/bin/hzc`).
#
# Test lines are item-scoped: a `#[cfg(test)]` attribute excludes itself and
# the one item it annotates, up to that item's outermost closing brace (or its
# `;`, for an item without a body); code after the item counts again. Braces
# in string and char literals and `//` comments are ignored, so the count is
# grep-level too.
#
# `unnamed` is a grep-level count: a `pub` item (a line the `pub` regex
# matches) whose identifier appears as a whole word in no `.rs` file outside
# the crate's directory, "outside" being the other `crates/*`, `src/bin/hzc`,
# `tests/`, `examples/` and `benchmark/src`. A `pub use` line counts as named
# when any name it re-exports is. Words in comments count, so the column is a
# floor: an item it misses may still be crate-private in fact.
# Run from anywhere; pass a different checkout root as $1 to compare two trees.
#
#   scripts/loc.sh --check scripts/loc.baseline
#
# prints the same table and exits non-zero when a crate's `pub`, `unnamed`,
# `unsafe`, `spawn` or `sim` counter is above the committed baseline (`crate
# pub unnamed unsafe spawn sim` per line; a crate the baseline does not list is
# held to zero) — ROADMAP 3(c) and 8(a): CI fails when a count rises. Lower the
# baseline when a count falls.
set -euo pipefail
baseline=""
if [ "${1:-}" = --check ]; then
    baseline="${2:?usage: loc.sh --check BASELINE}"
    shift 2
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Every word of every `.rs` file, tagged with the directory it lives in.
for dir in "$root"/crates/*/ "$root"/src/bin/hzc/ "$root"/tests/ "$root"/examples/ "$root"/benchmark/src/; do
    [ -d "$dir" ] || continue
    tag=${dir#"$root"/}
    find "$dir" -name '*.rs' -exec grep -ohE '[A-Za-z_][A-Za-z0-9_]*' {} + | sort -u | sed "s|^|$tag |"
done >"$tmp/words"
for dir in "$root"/crates/*/ "$root"/src/bin/hzc/; do
    [ -d "$dir" ] || continue
    files=$(find "$dir" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    # One row of counters per crate, and one `crate item dir identifier` line
    # per name each `pub` item declares.
    # shellcheck disable=SC2086
    awk -v crate="$(basename "$dir")" -v tag="${dir#"$root"/}" -v names="$tmp/names" -v q="'" '
        BEGIN { charlit = q "([^" q "\\\\]|\\\\.)" q }
        function declare(text,    n, parts, i, w) {
            gsub(/[{};]/, ",", text)
            n = split(text, parts, ",")
            for (i = 1; i <= n; i++) {
                w = parts[i]
                sub(/[[:space:]]+$/, "", w)
                sub(/.*[^[:alnum:]_]/, "", w)
                if (w != "" && w != "self") print crate, pubs, tag, w >> names
            }
        }
        # Scan one line of a `#[cfg(test)]` item (string and char literals
        # and `//` comments dropped) and clear `skip` where the item ends:
        # its outermost closing brace, or a `;` outside any bracket before
        # it opened one.
        function scan(text,    i, c) {
            gsub(/"([^"\\]|\\.)*"/, "", text)
            gsub(charlit, "", text)
            sub(/\/\/.*/, "", text)
            for (i = 1; i <= length(text); i++) {
                c = substr(text, i, 1)
                if (c == "{") { depth++; opened = 1 }
                else if (c == "}") { if (--depth == 0 && opened) { skip = 0; return } }
                else if (c == "(" || c == "[") nest++
                else if (c == ")" || c == "]") nest--
                else if (c == ";" && !opened && nest == 0) { skip = 0; return }
            }
        }
        FNR == 1 { skip = 0 }
        { total++ }
        !skip && /^[[:space:]]*#\[cfg\(test\)\]/ {
            skip = 1; depth = 0; nest = 0; opened = 0
            rest = $0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", rest)
            scan(rest)
            next
        }
        skip { scan($0); next }
        {
            code++
            if (in_use) {
                declare($0)
                if ($0 ~ /;/) in_use = 0
            } else if ($0 ~ /^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod|use|unsafe fn|async fn)[[:space:]]/) {
                pubs++
                if ($0 ~ /^[[:space:]]*pub use /) {
                    rest = $0
                    sub(/^[[:space:]]*pub use /, "", rest)
                    if (rest ~ /\{/) sub(/^[^{]*\{/, "", rest)
                    declare(rest)
                    in_use = rest !~ /;/
                } else {
                    line = $0
                    sub(/^[[:space:]]*pub ((const|unsafe|async) )?[a-z]+[[:space:]]+/, "", line)
                    match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
                    print crate, pubs, tag, substr(line, 1, RLENGTH) >> names
                }
            }
            line = $0
            unsafes += gsub(/(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/, "", line)
            if ($0 ~ /thread::(scope|spawn)/) spawns++
            if ($0 ~ /SimBuilder::new/ && $0 !~ /^[[:space:]]*\/\//) sims++
        }
        END { printf "%s %d %d %d %d %d %d\n", crate, total, code, pubs + 0, unsafes, spawns, sims }
    ' $files
done >"$tmp/rows"
touch "$tmp/names"
awk '
    # seen[word]: the directories the word occurs in, as " dir  dir "
    FILENAME == ARGV[1] { seen[$2] = seen[$2] " " $1 " "; next }
    FILENAME == ARGV[2] {
        # an item is named when one of its identifiers occurs in a directory other than its own
        if (!(($1, $2) in named)) named[$1, $2] = 0
        if (seen[$4] != "" && seen[$4] != " " $3 " ") named[$1, $2] = 1
        next
    }
    FNR == 1 { printf "%-12s %8s %9s %6s %8s %7s %6s %4s\n", "crate", "total", "non-test", "pub", "unnamed", "unsafe", "spawn", "sim" }
    {
        unnamed = 0
        for (k in named) { split(k, key, SUBSEP); if (key[1] == $1 && !named[k]) unnamed++ }
        printf "%-12s %8d %9d %6d %8d %7d %6d %4d\n", $1, $2, $3, $4, unnamed, $5, $6, $7
    }
' "$tmp/words" "$tmp/names" "$tmp/rows" | tee "$tmp/table"
[ -n "$baseline" ] || exit 0
awk '
    NR == FNR { if ($1 !~ /^#/ && NF) for (c = 2; c <= 6; c++) limit[$1, c] = $c; next }
    FNR == 1 { for (c = 4; c <= 8; c++) name[c] = $c; next }
    {
        for (c = 4; c <= 8; c++) if ($c > limit[$1, c - 2] + 0) {
            printf "loc.sh: %s: %s %d > baseline %d\n", $1, name[c], $c, limit[$1, c - 2]
            bad = 1
        }
    }
    END { exit bad }
' "$baseline" "$tmp/table" >&2
