#!/bin/sh
# Size of the workspace, per crate: the table ROADMAP re-anchors quote.
#
#   scripts/census.sh
#
# For every crate — each directory under crates/, and the root package
# `lightwave` in src/ — the lines of its *.rs files split at each file's
# first `#[cfg(test)]` in column 0 into code (above) and tests (from that
# line down; a file under the crate's tests/ is all tests; an indented one
# gates an item inside an impl, not the test module), the number of `pub struct
# *Config` / `*Params` it declares — each one a set of options somebody has
# to test — and the number of its `pub fn`s nothing calls: whose name is on
# no line above `#[cfg(test)]` in crates/*/src, src/, examples/ or
# benchmark/src other than as a definition
# (`fn NAME`) or inside a `//` comment line. By name, so an accessor that
# shares its name with a called one counts as called: a lower bound.
# Last, `deps`: the workspace crates its manifest's [dependencies] names
# (dev-dependencies are not edges of the build graph).
# Then the same five numbers for the workspace (`deps` is the edge count
# of the crate graph), the uncalled names, the line counts of what sits
# beside it (benchmark/, tests/, examples/), and the byte counts of the
# three documents a reader is pointed at (DESIGN, README, EXPERIMENTS)
# with their sum.
# Informational: exits 0. Run from the repository root.
set -eu

# "code tests options" summed over every *.rs file under the given
# directories (POSIX awk and find only; no file name is word-split)
census() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = FILENAME ~ /\/tests\// }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        /pub struct [A-Za-z]*(Config|Params)([^A-Za-z0-9_]|$)/ { options++ }
        { if (in_tests) tests++; else code++ }
        END { print code + 0, tests + 0, options + 0 }' {} + |
        awk '{ c += $1; t += $2; o += $3 } END { print c + 0, t + 0, o + 0 }'
}

# "crate name" for every uncalled `pub fn`, sorted: the first awk prints
# `D crate name` for each `pub fn` defined on a non-test line of a crate and
# `U name` for every other identifier on a non-test line of the corpus; the
# second keeps the definitions no use names.
uncalled=$(find crates/*/src src examples benchmark/src -name '*.rs' -exec awk '
    FNR == 1 {
        in_tests = 0
        crate = ""
        if (FILENAME ~ /^src\//) crate = "lightwave"
        else if (FILENAME ~ /^crates\/[^\/]+\/src\//) { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) }
    }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[ \t]*\/\// { next }
    {
        is_pub = $0 ~ /(^|[^A-Za-z0-9_])pub (const )?fn /
        line = $0
        prev = ""
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (prev != "fn") print "U", word
            else if (is_pub && crate != "") print "D", crate, word
            prev = word
        }
    }' {} + |
    awk '
        $1 == "U" { used[$2] = 1 }
        $1 == "D" { def[$2 " " $3] = 1 }
        END { for (d in def) { split(d, part, " "); if (!(part[2] in used)) print d } }' |
    sort)

# workspace-internal [dependencies] entries of the given manifests
deps() {
    awk '/^\[/ { on = ($0 == "[dependencies]") } on && /^lightwave(-[a-z]+)? *=/ { n++ } END { print n + 0 }' "$@"
}

# how many of them the named crate defines; all of them for `workspace`
uncalled_of() {
    echo "$uncalled" | awk -v crate="$1" 'NF && (crate == "workspace" || $1 == crate) { n++ } END { print n + 0 }'
}

# NAME MANIFESTS DIR...: the row of crate NAME (or `workspace`)
row() {
    name=$1
    manifests=$2
    shift 2
    # five integers: splitting them (and the manifest list) is the point
    # shellcheck disable=SC2046,SC2086
    set -- $(census "$@") $(uncalled_of "$name") $(deps $manifests)
    printf '%-14s %7d %7d %7d %8d %8d %5d\n' "$name" "$1" "$2" $(($1 + $2)) "$3" "$4" "$5"
}

printf '%-14s %7s %7s %7s %8s %8s %5s\n' crate code tests total options uncalled deps
for dir in crates/*/; do
    row "$(basename "$dir")" "${dir}Cargo.toml" "$dir"
done
row lightwave Cargo.toml src
row workspace "crates/*/Cargo.toml Cargo.toml" crates src

echo
echo "$uncalled" | awk '
    $1 != crate { if (crate != "") print names; crate = $1; names = "uncalled " crate ":" }
    { names = names " " $2 }
    END { if (crate != "") print names }'

echo
for dir in benchmark/src benchmark/tests tests examples; do
    printf '%-14s %7d lines\n' "$dir" "$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
done

echo
total=0
for doc in DESIGN.md README.md EXPERIMENTS.md; do
    bytes=$(wc -c < "$doc")
    total=$((total + bytes))
    printf '%-14s %7d bytes\n' "$doc" "$bytes"
done
printf '%-14s %7d bytes\n' documents "$total"
