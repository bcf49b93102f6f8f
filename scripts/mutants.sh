#!/bin/sh
# The mutation ledger (ROADMAP 2f): one seeded fault per kernel rule, each
# with the one test that is supposed to notice it.
#
#   scripts/mutants.sh [PATCH ...]        (default: tests/mutants/*.patch)
#
# A patch opens with two header lines —
#
#   rule: the rule of the model the mutant breaks
#   kill: the command whose failure kills it
#
# — followed by a unified diff against the working tree. For each patch:
# apply it, run its `kill` command, expect a test failure, revert it. A
# mutant whose command passes is a *survivor*: the rule is not held by the
# test the ledger says holds it. A patch that no longer applies, or whose
# command fails without a test having failed (it did not build), is
# *stale*: the code moved and the ledger did not. Either exits non-zero
# after every patch has run; DESIGN §6.8 has the table. Run from the
# repository root on a tree that builds; one incremental build a mutant.
set -u

[ $# -gt 0 ] || set -- tests/mutants/*.patch
killed=0
bad=0
for patch in "$@"; do
    rule=$(sed -n 's/^rule: //p' "$patch")
    kill=$(sed -n 's/^kill: //p' "$patch")
    if [ -z "$kill" ] || ! git apply --check "$patch" 2>/dev/null; then
        echo "STALE     $patch"
        bad=$((bad + 1))
        continue
    fi
    git apply "$patch"
    trap 'git apply -R "$patch"' EXIT
    trap 'exit 130' INT TERM
    if out=$(sh -c "$kill" 2>&1); then
        echo "SURVIVED  $patch — $rule — passes: $kill"
        bad=$((bad + 1))
    elif echo "$out" | grep -q 'test result: FAILED'; then
        echo "killed    $patch — $rule"
        killed=$((killed + 1))
    else
        echo "STALE     $patch — no test ran: $kill"
        bad=$((bad + 1))
    fi
    git apply -R "$patch"
    trap - EXIT INT TERM
done
echo "mutants: $killed of $# killed"
[ "$bad" -eq 0 ]
