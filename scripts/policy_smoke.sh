#!/usr/bin/env bash
# End-to-end adaptive-policy smoke: run the committed Fig. 4 miniature
# spec — a policy study, two waves of ordinary campaign jobs (profile
# every grid point, then re-run it under each policy) — and gate on the
# two promises EXPERIMENTS.md makes for it: the greedy demand-budget
# policy improves energy-per-flit over the static baseline on every
# grid point, and the study is reproducible: a second run against the
# same record store must be served entirely from cache, leave the store
# byte-unchanged and print a byte-identical CSV. A plain spec of
# Section V mixes, scenarios/table3.json, is held to the same promise.
# nocsim's one-invocation -policy, run on the spec's tornado point, must
# pin as many flows as the study's greedy row for that point.
set -euo pipefail

SPEC="${SPEC:-scenarios/fig4_policy.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/experiments" ./cmd/experiments
go build -o "$TMP/nocsim" ./cmd/nocsim

# twice SPEC NAME: run SPEC twice against one record store and gate the
# second pass: byte-identical stdout, a stderr line counting every job
# as served from cache, and the store as the first pass left it.
twice() {
    local spec="$1" name="$2"
    echo "== $name, first pass (simulates every job)"
    "$TMP/experiments" -spec "$spec" -results "$TMP/$name.jsonl" > "$TMP/$name-1.csv" 2> "$TMP/$name-1.log"
    cat "$TMP/$name-1.csv" "$TMP/$name-1.log"
    cp "$TMP/$name.jsonl" "$TMP/$name.after-run1"
    echo "== $name, second pass (must be served from cache)"
    "$TMP/experiments" -spec "$spec" -results "$TMP/$name.jsonl" > "$TMP/$name-2.csv" 2> "$TMP/$name-2.log"
    cat "$TMP/$name-2.log"

    echo "== gate: the $name re-run is byte-identical and fully cached"
    if ! diff -u "$TMP/$name-1.csv" "$TMP/$name-2.csv"; then
        echo "FAIL: cached $name re-run produced different output"
        exit 1
    fi
    if ! grep -Eq '^experiments: ([0-9]+) jobs, \1 served from cache, 0 failed$' "$TMP/$name-2.log"; then
        echo "FAIL: $name re-run was not served entirely from cache"
        exit 1
    fi
    if ! cmp "$TMP/$name.after-run1" "$TMP/$name.jsonl"; then
        echo "FAIL: the cached $name re-run grew or rewrote the record store"
        exit 1
    fi
}

twice "$SPEC" policy

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
' "$TMP/policy-1.csv"

if [ "$SPEC" = scenarios/fig4_policy.json ]; then
    echo "== gate: nocsim -policy decides as the study does (tornado point)"
    nocsim_out="$("$TMP/nocsim" -mode tdm -pattern tornado -rate 0.2 -warmup 2000 -cycles 8000 -policy greedy)"
    nocsim_line="${nocsim_out%%$'\n'*}"
    echo "   $nocsim_line"
    nocsim_pins="$(sed -nE 's/^policy greedy: ([0-9]+) pinned flows,.*/\1/p' <<< "$nocsim_line")"
    study_pins="$(awk -F, '$1 ~ /\/TOR\// && $2 == "greedy" { print $3 }' "$TMP/policy-1.csv")"
    if [ -z "$nocsim_pins" ] || [ "$nocsim_pins" != "$study_pins" ]; then
        echo "FAIL: nocsim -policy greedy pinned '${nocsim_pins}' flows, the study's greedy row '${study_pins}'"
        exit 1
    fi
fi

twice scenarios/table3.json table3

echo "OK: greedy improves every point and both specs reproduce bit for bit from cache ($(($(wc -l < "$TMP/policy-1.csv") - 1)) comparison rows)"
