#!/bin/sh
# Pre-PR gate: lint + tier-1 tests.  Run from anywhere; exits non-zero
# on the first failure.  Ends with a ledger of every gate: passed,
# skipped (and why) or FAILED, with its duration.
#
#   scripts/check.sh            # fast path (skips tests marked slow)
#   scripts/check.sh --full     # everything, slow tests included
#   scripts/check.sh --no-lint  # tests only
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

run_lint=1
marker='not slow'
for arg in "$@"; do
    case "$arg" in
        --no-lint) run_lint=0 ;;
        --full) marker='' ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

PYTHONPATH=src
export PYTHONPATH

ledger=$(mktemp "${TMPDIR:-/tmp}/check-ledger.XXXXXX")

now() {
    python -c 'import time; print(time.time())'
}

# gate NAME COMMAND...: run one gate, record it, stop on failure.
gate() {
    name=$1
    shift
    echo "== $name =="
    start=$(now)
    if "$@"; then status=passed; else status=FAILED; fi
    seconds=$(python -c "print('%.1f' % ($(now) - $start))")
    printf '%s|%s|%s|\n' "$name" "$status" "$seconds" >> "$ledger"
    if [ "$status" = FAILED ]; then
        exit 1
    fi
}

# skip NAME REASON: record a gate that cannot run here.
skip() {
    echo "== $1: SKIPPED ($2) =="
    printf '%s|skipped|-|%s\n' "$1" "$2" >> "$ledger"
}

print_ledger() {
    echo
    echo "== gate ledger =="
    printf '%-30s %-8s %8s  %s\n' "gate" "status" "seconds" "skip reason"
    while IFS='|' read -r name status seconds reason; do
        printf '%-30s %-8s %8s  %s\n' "$name" "$status" "$seconds" "$reason"
    done < "$ledger"
    skipped=$(grep -c '|skipped|' "$ledger" || true)
    if [ "$skipped" -gt 0 ]; then
        echo "($skipped gate(s) skipped: not checked by this run)"
    fi
    if grep -q '|FAILED|' "$ledger"; then
        echo "(stopped at the first failure: later gates did not run)"
    fi
    rm -f "$ledger"
}
trap print_ledger EXIT

if [ "$run_lint" = 1 ]; then
    if command -v ruff >/dev/null 2>&1; then
        gate "ruff check" ruff check src tests benchmarks
    elif python -c "import ruff" >/dev/null 2>&1; then
        gate "ruff check (module)" python -m ruff check src tests benchmarks
    else
        skip "ruff check" "ruff not installed"
    fi
    if command -v mypy >/dev/null 2>&1; then
        gate "mypy --strict" env MYPYPATH=src \
            mypy --strict -p repro.analysis -p repro.kernels
    elif python -c "import mypy" >/dev/null 2>&1; then
        gate "mypy --strict (module)" env MYPYPATH=src \
            python -m mypy --strict -p repro.analysis -p repro.kernels
    else
        skip "mypy --strict" "mypy not installed"
    fi
else
    skip "ruff check" "--no-lint"
    skip "mypy --strict" "--no-lint"
fi

# The diagnostics engine must stay clean — errors AND warnings — on
# the whole compiled/optimized/laid-out benchmark corpus.  Info-level
# findings (unreachable code, hoisting candidates) never fail.
gate "IR diagnostics (lint)" python -m repro lint --strict

# Fast path deselects tests marked slow; --full runs them too.
# Coverage gate when pytest-cov is available (the container may not
# ship it; the plain run is the same test suite either way).
tests_name="tier-1 tests"
if [ -z "$marker" ]; then tests_name="tier-1 tests (--full)"; fi
if python -c "import pytest_cov" >/dev/null 2>&1; then
    gate "$tests_name + coverage" python -m pytest -x -q -m "$marker" \
        --cov=repro --cov-report=term-missing:skip-covered \
        --cov-fail-under=70
else
    gate "$tests_name" python -m pytest -x -q -m "$marker"
    skip "coverage >= 70%" "pytest-cov not installed"
fi

# The fast path above deselected -m 'not slow'; verify the convention
# held: every *_battery test is slow-marked and the marker actually
# deselects something (an unregistered marker deselects nothing).
gate "marker audit" python scripts/marker_audit.py

# Black-box parameter recovery: every known configuration (including
# the paper's 256-entry SBTB/CBTB) must be recovered exactly from
# PredictionStats alone, and a deliberately mis-declared predictor
# must be flagged — exits non-zero on either failure mode.
gate "characterize self-test" python -m repro characterize --self-test

# Small seed budget: differential replay of every predictor against
# its reference oracle plus the golden-table regression.  The full
# battery is `repro-branches conformance --seeds 200`.
gate "conformance smoke" python -m repro conformance --seeds 25

# Seeded recovery matrix: every fault class (torn write, bit flip,
# ENOSPC, worker crash, worker hang, corrupt manifest, plus the
# service-level shard crash, queue overflow, deadline storm, and
# slow client) is injected deterministically and must end in a
# verified recovery — the gate fails if any injected fault is
# silently swallowed.
gate "fault-injection smoke" python -m repro faults --seeds 10

# Cross-process tracing: a 2-worker supervised sweep (with one
# crash-and-retry worker) must merge into a single complete trace
# tree — every attempt under its shard span, killed attempts adopted —
# and the disabled-telemetry hot path must stay allocation-free.
gate "trace gate" python scripts/trace_gate.py

# Campaign-service crash recovery: launch `repro-branches serve`,
# submit a campaign, SIGKILL the server mid-flight, restart it over
# the same cache dir — the journalled campaign must resume to tables
# byte-identical to a clean run with zero duplicated shard
# executions (asserted via the executions log and dedup telemetry).
gate "chaos gate" python scripts/chaos_gate.py

# Scalar-vs-vector engines on the headline workload: fails on any
# stats mismatch, a headline speedup under 25x, CBTB under 15x, the
# vector cycle sim under 10x, vector throughput regressing >25%
# against the committed BENCH_kernels.json baseline, or a chunked
# multi-worker run that is not bit-identical (the 1->4 worker scaling
# floor additionally applies on hosts with >= 4 CPUs).
gate "kernel bench gate" python -m pytest -q \
    benchmarks/test_simulator_performance.py -k kernel

echo "== all checks passed =="
