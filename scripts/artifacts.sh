#!/bin/sh
# Every versioned artifact, at LIGHTWAVE_THREADS 1 and 4, against a baseline.
#
#   scripts/artifacts.sh OUT [--against DIR]
#
# Writes OUT/t1 and OUT/t4 (fifteen artifact files and three captured
# stdouts each), validates the postmortem pair, and fails unless the two
# widths are byte-identical. With --against DIR (the OUT of a run of this
# script on another checkout, e.g. the parent commit) it also fails unless
# DIR/t1 equals OUT/t1. Run from the repository root.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 OUT [--against DIR]" >&2; exit 2; }
out=$1
against=
[ "${2:-}" != --against ] || against=${3:?--against needs a directory}

cargo build --release --quiet --examples
cargo build --release --quiet -p lightwave-bench --bin repro --bin validate_trace

for t in 1 4; do
    d=$out/t$t
    rm -rf "$d"
    mkdir -p "$d"
    export LIGHTWAVE_THREADS=$t
    target/release/examples/trace_postmortem --out-dir "$d" >/dev/null
    target/release/validate_trace "$d/trace.json" "$d/flight.jsonl" >/dev/null
    for e in chaos_hunt fleet_health fabric_service request_scope campus_health; do
        target/release/examples/$e --smoke --out-dir "$d" >/dev/null
    done
    target/release/examples/observability >"$d/observability.stdout"
    target/release/examples/fault_recovery >"$d/fault_recovery.stdout"
    cp target/trace/fault_recovery_trace.json "$d/"
    target/release/repro --quick >"$d/repro_quick.stdout"
done

diff -r "$out/t1" "$out/t4"
[ -z "$against" ] || diff -r "$against/t1" "$out/t1"
echo "artifacts: $(ls "$out/t1" | wc -l) files identical at 1 and 4 threads${against:+ and to $against}"
