#!/usr/bin/env bash
# End-to-end adaptive-policy smoke: run the committed Fig. 4 miniature
# spec through the offline profile→re-run loop and gate on the two
# promises EXPERIMENTS.md makes for it — the greedy demand-budget
# policy improves energy-per-flit over the static baseline on every
# grid point, and the whole loop is reproducible: a second run against
# the same record and profile stores must be served entirely from
# cache and print a byte-identical CSV. A plain (non-policy) spec of
# Section V mixes, scenarios/table3.json, is held to the same promise.
set -euo pipefail

SPEC="${SPEC:-scenarios/fig4_policy.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/experiments" ./cmd/experiments

echo "== policy loop, first pass (simulates phase A + phase B)"
"$TMP/experiments" -spec "$SPEC" \
    -results "$TMP/records.jsonl" -profiles "$TMP/profiles.jsonl" \
    > "$TMP/run1.csv"
cat "$TMP/run1.csv"

echo "== gate: greedy beats static on energy-per-flit at every point"
awk -F, '
    NR == 1 { next }
    $2 == "static" && $6 + 0 != 0 {
        printf "FAIL: static row %s has nonzero energy delta %s\n", $1, $6
        bad = 1
    }
    $2 == "greedy" {
        greedy++
        if ($6 + 0 >= 0) {
            printf "FAIL: greedy on %s does not improve energy (%s%%)\n", $1, $6
            bad = 1
        } else {
            printf "   greedy on %s: %s%% energy-per-flit vs static\n", $1, $6
        }
    }
    END {
        if (greedy < 2) {
            printf "FAIL: expected >= 2 greedy rows, saw %d\n", greedy
            bad = 1
        }
        exit bad
    }
' "$TMP/run1.csv"

echo "== policy loop, second pass (must be served from cache)"
"$TMP/experiments" -spec "$SPEC" \
    -results "$TMP/records.jsonl" -profiles "$TMP/profiles.jsonl" \
    > "$TMP/run2.csv"

echo "== gate: re-run output is byte-identical"
if ! diff -u "$TMP/run1.csv" "$TMP/run2.csv"; then
    echo "FAIL: cached policy re-run produced different output"
    exit 1
fi

echo "== plain mix spec (scenarios/table3.json), twice against one record store"
"$TMP/experiments" -spec scenarios/table3.json -results "$TMP/table3.jsonl" > "$TMP/table3-1.csv" 2> "$TMP/table3-1.log"
cat "$TMP/table3-1.csv"
cp "$TMP/table3.jsonl" "$TMP/table3.after-run1"
"$TMP/experiments" -spec scenarios/table3.json -results "$TMP/table3.jsonl" > "$TMP/table3-2.csv" 2> "$TMP/table3-2.log"

echo "== gate: the re-run is byte-identical and fully cached"
if ! diff -u "$TMP/table3-1.csv" "$TMP/table3-2.csv"; then
    echo "FAIL: cached table3 re-run produced different output"
    exit 1
fi
if ! grep -q '^experiments: 7 jobs, 7 served from cache, 0 failed$' "$TMP/table3-2.log"; then
    echo "FAIL: table3 re-run was not served entirely from cache:"
    cat "$TMP/table3-2.log"
    exit 1
fi
if ! cmp "$TMP/table3.after-run1" "$TMP/table3.jsonl"; then
    echo "FAIL: the cached re-run grew or rewrote the record store"
    exit 1
fi

echo "OK: greedy improves every point and the loop reproduces bit for bit ($(($(wc -l < "$TMP/run1.csv") - 1)) comparison rows)"
