#!/bin/sh
# Size of the workspace, per crate: the table ROADMAP re-anchors quote.
#
#   scripts/census.sh
#
# For every crate under crates/, the lines of its *.rs files split at each
# file's first `#[cfg(test)]` into code (above) and tests (from that line
# down; a file under the crate's tests/ is all tests), and the number of
# `pub struct *Config` / `*Params` it declares — each one a set of options
# somebody has to test. Then the same three numbers for the workspace, and
# the line counts of what sits beside crates/ (benchmark/, tests/,
# examples/). Informational: exits 0. Run from the repository root.
set -eu

# "code tests options" summed over every *.rs file under the given
# directories (POSIX awk and find only; no file name is word-split)
census() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = FILENAME ~ /\/tests\// }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        /pub struct [A-Za-z]*(Config|Params)([^A-Za-z0-9_]|$)/ { options++ }
        { if (in_tests) tests++; else code++ }
        END { print code + 0, tests + 0, options + 0 }' {} + |
        awk '{ c += $1; t += $2; o += $3 } END { print c + 0, t + 0, o + 0 }'
}

row() {
    name=$1
    shift
    # three integers: splitting them is the point
    # shellcheck disable=SC2046
    set -- $(census "$@")
    printf '%-14s %7d %7d %7d %8d\n' "$name" "$1" "$2" $(($1 + $2)) "$3"
}

printf '%-14s %7s %7s %7s %8s\n' crate code tests total options
for dir in crates/*/; do
    row "$(basename "$dir")" "$dir"
done
row workspace crates

echo
for dir in benchmark/src benchmark/tests tests examples src; do
    printf '%-14s %7d lines\n' "$dir" "$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
done
