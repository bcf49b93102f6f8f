#!/bin/sh
# Every versioned artifact, at LIGHTWAVE_THREADS 1 and 4, against a baseline.
#
#   scripts/artifacts.sh OUT [--against DIR]
#
# Writes OUT/t1 and OUT/t4; `validate_trace` reads each back from its bytes
# (the closed set of names, every `schema`, every join) and the rows it
# prints (file, schema, length, hash) are stored as run_manifest.json. Fails
# unless OUT/t1 equals OUT/t4 and, with --against DIR (the OUT of this script
# on another checkout, e.g. the parent commit), DIR/t1: manifests first, so
# the files that differ are named before `diff -r` shows how.
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
    for e in chaos_hunt fleet_health fabric_service request_scope campus_health; do
        target/release/examples/$e --smoke --out-dir "$d" >/dev/null
    done
    target/release/examples/observability >"$d/observability.stdout"
    target/release/examples/fault_recovery >"$d/fault_recovery.stdout"
    target/release/repro --quick >"$d/repro_quick.stdout"
    target/release/validate_trace "$d" >"$d/run_manifest.json"
done
same() { diff "$1/run_manifest.json" "$2/run_manifest.json" || :; diff -r "$1" "$2"; }
same "$out/t1" "$out/t4"
[ -z "$against" ] || same "$against/t1" "$out/t1"
echo "artifacts: $(grep -c '"name"' "$out/t1/run_manifest.json") manifest rows identical at 1 and 4 threads${against:+ and to $against}"
