#!/usr/bin/env bash
# alloc_gate.sh — hard allocation-regression gate for the zero-GC hot
# path. Runs the reduced-scale alloc-bound scenario benchmarks
# (BenchmarkAllocGate* in bench_test.go) once and FAILS (exit 1) when
# any of them regresses allocs/op by more than the threshold against
# the committed baseline, scripts/alloc_gate_baseline.txt. The gate
# also fails when that file is missing, when a gate benchmark has no
# baseline entry, or when a baseline entry names a benchmark that did
# not run.
#
#   threshold: ALLOC_GATE_THRESHOLD, default 10 (percent). allocs/op is
#   deterministic up to map/slice growth timing, so 10% headroom
#   absorbs benign growth-pattern shifts while catching any real
#   reintroduction of per-event/per-frame allocation.
#
# The benchmarks run at a fixed GOMAXPROCS (-cpu 2) in both modes: the
# sharded city's allocs/op depend on it (7006, 6261, 6479 and 6922 at
# GOMAXPROCS 1, 2, 4 and 8 on one commit), so a baseline is only
# comparable at the GOMAXPROCS it was measured at.
#
# Usage:
#   scripts/alloc_gate.sh                  # gate the working tree
#   scripts/alloc_gate.sh -baseline REV    # rewrite the baseline file,
#                                          # measured on a clean export of REV
set -euo pipefail

cd "$(dirname "$0")/.."

threshold=${ALLOC_GATE_THRESHOLD:-10}
baseline=scripts/alloc_gate_baseline.txt
cpu=2

# run_gate_benchmarks DIR prints the benchmark output for the tree in DIR.
run_gate_benchmarks() {
    (cd "$1" && go test -run '^$' -bench 'BenchmarkAllocGate' -benchtime 1x -benchmem -cpu "$cpu" .)
}

if [ "${1:-}" = "-baseline" ]; then
    rev=$(git rev-parse --short "${2:?usage: scripts/alloc_gate.sh -baseline REV}")
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git archive "$rev" | tar -x -C "$tree"
    echo "alloc-gate: measuring the AllocGate benchmarks at $rev"
    out=$(run_gate_benchmarks "$tree")
    echo "$out"
    {
        echo "# allocs/op of each BenchmarkAllocGate* benchmark, the baseline"
        echo "# scripts/alloc_gate.sh gates against. Rewrite it with"
        echo "# scripts/alloc_gate.sh -baseline REV."
        echo "commit $rev"
        echo "go $(go env GOVERSION)"
        echo "cpu $cpu"
        echo "$out" | awk '/^BenchmarkAllocGate/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 4; i <= NF; i++) if ($(i) == "allocs/op") print name, $(i-1)
        }'
    } > "$baseline"
    echo "alloc-gate: wrote $baseline"
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "alloc-gate: FAIL — no baseline file $baseline (write one with scripts/alloc_gate.sh -baseline REV)"
    exit 1
fi

base_go=$(awk '$1 == "go" { print $2 }' "$baseline")
if [ "$base_go" != "$(go env GOVERSION)" ]; then
    echo "alloc-gate: note: baseline measured with $base_go, running $(go env GOVERSION); toolchains can shift allocs/op by a few percent"
fi

echo "alloc-gate: running AllocGate benchmarks (fail at >+${threshold}% allocs/op vs $baseline, measured at $(awk '$1 == "commit" { print $2 }' "$baseline"))"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
run_gate_benchmarks . | tee "$raw"

awk -v thr="$threshold" '
FILENAME == ARGV[1] {
    if ($1 ~ /^BenchmarkAllocGate/) base[$1] = $2
    next
}
/^BenchmarkAllocGate/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    allocs = ""
    for (i = 4; i <= NF; i++) if ($(i) == "allocs/op") allocs = $(i-1)
    if (allocs == "") next
    ran[name] = 1
    if (!(name in base)) { printf "alloc-gate: %-35s %12d allocs/op (no baseline entry)\n", name, allocs; bad = 1; next }
    delta = (allocs - base[name]) / base[name] * 100
    printf "alloc-gate: %-35s %12d allocs/op vs %d baseline (%+.1f%%)\n", name, allocs, base[name], delta
    if (delta > thr) { bad = 1 }
}
END {
    for (name in base) if (!(name in ran)) { printf "alloc-gate: %-35s in the baseline but did not run\n", name; bad = 1 }
    exit bad ? 1 : 0
}
' "$baseline" "$raw" || { echo "alloc-gate: FAIL — allocs/op regressed past +${threshold}%, or the baseline does not match the gate benchmarks"; exit 1; }

echo "alloc-gate: PASS"
