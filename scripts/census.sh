#!/bin/sh
# Size of the workspace, per crate: the table ROADMAP re-anchors quote.
#
#   scripts/census.sh
#
# For every crate — each directory under crates/, and the root package
# `lightwave` in src/ — the lines of its *.rs files split at each file's
# first `#[cfg(test)]` (or `#![cfg(test)]`, a module built under test only)
# in column 0 into code (above) and tests (from that
# line down; a file under the crate's tests/ is all tests; an indented one
# gates an item inside an impl, not the test module), the number of `pub struct
# *Config` / `*Params` it declares — each one a set of options somebody has
# to test — and the number of its `pub fn`s nothing calls: whose name is on
# no line above `#[cfg(test)]` in crates/*/src, src/, examples/ or
# benchmark/src other than as a definition
# (`fn NAME`) or inside a `//` comment line. By name, so an accessor that
# shares its name with a called one counts as called: a lower bound.
# Then `unnamed`: its `pub` items (fn, method, const, static, struct,
# enum, trait, type, mod) on non-test lines whose name no other crate's
# source, no bin, example, root or crate test, no `benchmark/` file and no
# doc-test names — an item only its own crate names is `pub(crate)` or
# private, where rustc's dead-code lint sees it. By name as well, and
# less the exemptions listed below with their reason.
# Last, `deps`: the workspace crates its manifest's [dependencies] names
# (dev-dependencies are not edges of the build graph).
# Then the same six numbers for the workspace (`deps` is the edge count
# of the crate graph), the uncalled and unnamed names, the line counts of
# the shims (counted apart: upstream's API, not ours) and of what sits
# beside the crates (benchmark/, tests/, examples/), and the byte counts
# of the three documents a reader is pointed at (DESIGN, README,
# EXPERIMENTS) with their sum.
# Informational: exits 0. Run from the repository root.
set -eu

# "code tests options" summed over every *.rs file under the given
# directories (POSIX awk and find only; no file name is word-split)
census() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = FILENAME ~ /\/tests\// }
        /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
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
    /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
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

# `pub` items nothing outside their crate names that stay `pub`, as
# "crate reason name...": `signature` — a type or trait in the signature
# of a `pub` item another crate uses, which an outside caller reads
# without naming it (made private, it trips rustc's `private_interfaces`);
# `survivor` — a capability CONTRIBUTING names, with its reason there.
exempt='
availability signature GoodputPoint PreemptReport TimelineError TimelineReport
bench signature Check ExperimentResult ManifestRow
chaos signature HuntReport ShrinkResult SwitchModel Violation
dcn signature CampusReport EpochReport RefreshEpoch
fabric signature MaintenancePlan Rows SwitchDelta SwitchReports
fec signature ConcatGain TooManyErrors WaterfallError
fec survivor decode_frame encode_frame kp4_output_at_threshold
lightwave signature CircuitHealth DcnPlan LinkReport ModelPlacement PlacementError PodLinkCensus TracedRecovery
mlperf signature Infeasible Mapping StepTime
ocs signature AlignmentKernel Convergence CostClass DieYieldError DriftChange FruHealth FruSlot MappingDelta MemsDie OcsTechnology Telemetry
optics signature LinkBudgetError MpiContribution WdmLane
scheduler signature DeploymentOutcome
service signature ClassScope ClassScopeSnapshot ClassSnapshot ClassStats CriticalPath CriticalPathSnapshot DistSnapshot Observer PhaseSnapshot ScopeDist ScopeTimeline ShardObserver Step TimelineSnapshot
superpod signature CubeIter HybridAllReduce LinkBandwidth PhysicalCircuit SimOutcome
telemetry signature BurnReport BurnStatus Exemplar ExemplarBucket FleetHealthReport MaintenanceAction MaintenanceKind MetricCell MetricKey NodeHealth ObjectSlo PodRow SloReport SwitchHealth SwitchRow TimeSeries TrendTrip
trace signature InstantRecord TraceStats
transceiver signature BringupEvent
units signature Milliwatts
'

# "crate name" for every `pub` item no file outside its crate names,
# sorted: the first awk prints `D crate name` for each `pub` item defined
# on a non-test line of a crate, and `U crate name` for every identifier on
# a line of any file (crate empty outside the crates: a bin, an example, a
# test, the benchmark; `doc` inside a doc comment's code block, which
# rustdoc compiles as a crate of its own); the second keeps the
# definitions no other crate's use names.
unnamed=$(find crates src examples tests benchmark -name target -prune -o -name '*.rs' -exec awk '
    FNR == 1 {
        in_tests = 0
        fence = 0
        crate = ""
        if (FILENAME ~ /^src\//) crate = "lightwave"
        else if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /\/src\/bin\//) { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) }
    }
    /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
    {
        line = $0
        tag = crate
        if (line ~ /^[ \t]*\/\/[\/!]/) {
            sub(/^[ \t]*\/\/[\/!][ \t]*/, "", line)
            if (line ~ /^```/) { fence = !fence; next }
            if (!fence) next
            tag = "doc"
        } else if (line ~ /^[ \t]*\/\//) next
        else if (crate != "" && !in_tests && match(line, /^[ \t]*pub (const |unsafe |async |extern "C" )*(fn|const|static|struct|enum|trait|type|mod|union) [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", def)
            print "D", crate, def
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            print "U", (tag == "" ? "-" : tag), substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
        }
    }' {} + |
    awk -v exempt="$exempt" '
        BEGIN {
            n = split(exempt, rows, "\n")
            for (i = 1; i <= n; i++) {
                m = split(rows[i], f, " ")
                for (j = 3; j <= m; j++) skip[f[1] " " f[j]] = 1
            }
        }
        $1 == "U" { if (!($3 in by)) by[$3] = $2; else if (by[$3] != $2) by[$3] = "*" }
        $1 == "D" { def[$2 " " $3] = 1 }
        END {
            for (d in def) {
                split(d, part, " ")
                if (d in skip) continue
                if (!(part[2] in by) || by[part[2]] == part[1]) print d
            }
        }' |
    sort)

# workspace-internal [dependencies] entries of the given manifests
deps() {
    awk '/^\[/ { on = ($0 == "[dependencies]") } on && /^lightwave(-[a-z]+)? *=/ { n++ } END { print n + 0 }' "$@"
}

# how many of the "crate name" rows in $1 the named crate ($2) defines;
# all of them for `workspace`
count_of() {
    echo "$1" | awk -v crate="$2" 'NF && (crate == "workspace" || $1 == crate) { n++ } END { print n + 0 }'
}

# NAME MANIFESTS DIR...: the row of crate NAME (or `workspace`)
row() {
    name=$1
    manifests=$2
    shift 2
    # six integers: splitting them (and the manifest list) is the point
    # shellcheck disable=SC2046,SC2086
    set -- $(census "$@") $(count_of "$uncalled" "$name") $(count_of "$unnamed" "$name") $(deps $manifests)
    printf '%-14s %7d %7d %7d %8d %8d %8d %5d\n' "$name" "$1" "$2" $(($1 + $2)) "$3" "$4" "$5" "$6"
}

printf '%-14s %7s %7s %7s %8s %8s %8s %5s\n' crate code tests total options uncalled unnamed deps
for dir in crates/*/; do
    row "$(basename "$dir")" "${dir}Cargo.toml" "$dir"
done
row lightwave Cargo.toml src
row workspace "crates/*/Cargo.toml Cargo.toml" crates src

# "crate name" rows as one line per crate: LABEL crate: name...
by_crate() {
    echo "$2" | awk -v label="$1" '
        !NF { next }
        $1 != crate { if (crate != "") print names; crate = $1; names = label " " crate ":" }
        { names = names " " $2 }
        END { if (crate != "") print names }'
}

echo
by_crate uncalled "$uncalled"
by_crate unnamed "$unnamed"
echo "$exempt" | awk 'NF { n[$2] += NF - 2 } END { printf "pub, exempt from unnamed: %d signature, %d survivor\n", n["signature"], n["survivor"] }'

echo
# shellcheck disable=SC2046
row shims "$(echo shims/*/Cargo.toml)" shims

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
