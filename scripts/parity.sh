#!/usr/bin/env bash
# Parent parity for changes that must not move a simulated number:
# build nocsim and experiments from revision REV (a clean export of the
# commit in a temp dir) and from the working tree, run every
# `experiments -exp NAME -quick` and a fixed set of nocsim runs on both
# (one of them replays a trace the working tree's tracegen writes), and
# cmp their stdout. Every line marked "not a result" is dropped
# before comparing: nocsim's `barrier waits` (host timing), and its
# `packet pool`, `arenas` and `event rings` lines (simulator memory:
# struct sizes, and a pool population that under -workers 2 depends on
# scheduling). Exits 1 on any difference.
#
#   scripts/parity.sh HEAD~1
#
# A change that moves the model on purpose fails this by design, so it is
# a hand check, not a CI step.
set -euo pipefail

REV="${1:?usage: scripts/parity.sh REV}"
cd "$(git rev-parse --show-toplevel)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== build $REV and the working tree"
mkdir -p "$TMP/src" "$TMP/base" "$TMP/head"
git archive "$REV" | tar -x -C "$TMP/src"
(cd "$TMP/src" && go build -o "$TMP/base/nocsim" ./cmd/nocsim && go build -o "$TMP/base/experiments" ./cmd/experiments)
go build -o "$TMP/head/nocsim" ./cmd/nocsim
go build -o "$TMP/head/experiments" ./cmd/experiments
go build -o "$TMP/head/tracegen" ./cmd/tracegen

fail=0
# same NAME CMD ARGS...: run CMD ARGS with both builds and compare stdout.
same() {
    local name="$1" cmd="$2"
    shift 2
    local side
    for side in base head; do
        { "$TMP/$side/$cmd" "$@" 2>/dev/null || echo "exit $?"; } |
            grep -v 'not a result' > "$TMP/$side/$name.out" || true
    done
    if cmp -s "$TMP/base/$name.out" "$TMP/head/$name.out"; then
        echo "same    $name"
    else
        echo "DIFFERS $name: $cmd $*"
        diff "$TMP/base/$name.out" "$TMP/head/$name.out" | head -20 || true
        fail=1
    fi
}

for exp in table1 fig4 fig5 fig6 fig8 fig9 table3 ablation granularity; do
    same "exp-$exp" experiments -exp "$exp" -quick
done

run=(-warmup 2000 -cycles 8000)
same tdm-sharing-vcgating nocsim -mode tdm -sharing -vcgating "${run[@]}"
same tdm-staticslots-check nocsim -mode tdm -staticslots -check "${run[@]}"
same policy-greedy nocsim -mode tdm -policy greedy "${run[@]}"
# Pins nothing, so its RestrictSetups never reaches an NI: the re-run is
# the static run under another key.
same policy-threshold-inert nocsim -mode tdm -pattern tornado -rate 0.05 -policy threshold:1000000 "${run[@]}"
same hetero-workers2-check nocsim -hetero -workers 2 -check "${run[@]}"
same sdm nocsim -mode sdm "${run[@]}"
same packet-vcgating nocsim -mode packet -vcgating "${run[@]}"
# One trace, written once, replayed by both builds.
"$TMP/head/tracegen" -out "$TMP/t.trace" -width 4 -height 4 -cycles 3000 -pattern transpose -rate 0.2 > /dev/null
same replay nocsim -replay "$TMP/t.trace"

if [ "$fail" -ne 0 ]; then
    echo "FAIL: the working tree's output differs from $REV"
    exit 1
fi
echo "parity with $REV: every output identical"
