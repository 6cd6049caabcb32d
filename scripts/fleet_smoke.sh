#!/usr/bin/env bash
# End-to-end fleet fabric smoke: a coordinator (with a campaign
# journal) and two workers on localhost run a sweep; mid-sweep the
# coordinator is SIGKILLed, a half-written line is left at the end of
# its journal and of one store shard (what a kill mid-append really
# leaves), and it is restarted (the journal must bring back the campaign,
# the workers' renews must take their leased shards back, and both files
# must be appendable again), then one worker is SIGKILLed while it holds
# a lease (its shard expires and migrates) — and the fleet CSV must still
# match the single-process CSV bit for bit. With worker 1 back, the committed Fig. 4 policy study
# runs on the two workers (both waves of a shard inside its one lease)
# and its policy CSV must match a local run. Finally the coordinator is
# stopped and started once more and both campaigns re-fetched: the files
# written after the torn trailers must still open, with no dead lines
# and the same CSVs. Last, plain nocsimd — standalone, the same
# coordinator with an in-process worker — must print the local
# scenarios/table3.json CSV and the local `experiments -exp fig8 -quick
# -mixes 4` figure, and a policy study cancelled on it mid-run
# must, once resubmitted, finish with the local policy CSV. This is the
# determinism + durability contract of DESIGN.md §10, exercised through
# real processes, real sockets and a real kill -9.
set -euo pipefail

COORD_PORT="${COORD_PORT:-18080}"
BASE="http://localhost:${COORD_PORT}"
TMP="$(mktemp -d)"
BIN="$TMP/bin"
mkdir -p "$BIN"
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

SPEC="$TMP/sweep.json"
cat > "$SPEC" <<'EOF'
{
  "name": "fleet-smoke",
  "modes": ["tdm"],
  "patterns": ["tornado"],
  "meshes": [{"width": 10, "height": 10}],
  "rates": [0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20],
  "warmup_cycles": 8000,
  "measure_cycles": 72000
}
EOF

echo "== build"
go build -o "$BIN/nocsimd" ./cmd/nocsimd
go build -o "$BIN/experiments" ./cmd/experiments

POLICY_SPEC=scenarios/fig4_policy.json

echo "== serial reference runs"
"$BIN/experiments" -spec "$SPEC" > "$TMP/serial.csv"
"$BIN/experiments" -spec "$POLICY_SPEC" > "$TMP/policy-serial.csv" 2>/dev/null

JOURNAL="$TMP/coord/fleet.journal"
start_coordinator() {
    "$BIN/nocsimd" -coordinator -addr ":${COORD_PORT}" -data "$TMP/coord" \
        -journal "$JOURNAL" -shard-size 1 -lease-ttl 3s -pprof=false &
    COORD_PID=$!
    PIDS+=("$COORD_PID")
}

wait_healthy() { # $1 = base URL (default: the coordinator's)
    for _ in $(seq 50); do
        curl -sf "${1:-$BASE}/healthz" >/dev/null && return 0
        sleep 0.2
    done
    echo "${1:-$BASE} never came up"
    exit 1
}

# One job slot per worker, so a worker holds at most one lease and
# fleet_leases_active = 2 means each worker holds one.
start_worker() { # $1 = worker number
    "$BIN/nocsimd" -worker "$BASE" -addr ":$((COORD_PORT + $1))" \
        -data "$TMP/w$1" -workers 1 -pprof=false &
    PIDS+=($!)
}

echo "== start coordinator + 2 workers"
start_coordinator
start_worker 1
WORKER1_PID="${PIDS[1]}"
start_worker 2

wait_healthy

metric() {
    curl -sf "$BASE/fleet/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

echo "== fleet run (coordinator restarts, then worker 1 dies, mid-sweep)"
"$BIN/experiments" -spec "$SPEC" -fleet "$BASE" > "$TMP/fleet.csv" &
SWEEP_PID=$!

# Wait until both workers hold a lease, then SIGKILL the coordinator
# mid-sweep — no drain, no flush beyond the journal's own fsyncs — and
# restart it on the same journal. The sweep client and both workers
# retry through the outage. Leases are not replayed: the restarted
# coordinator brings the campaign back from the journal with every shard
# the store lacks queued, and each worker's next renew takes its shard
# back off the queue. A lost campaign hangs or fails the sweep.
leased=0
for _ in $(seq 150); do
    if ! kill -0 "$SWEEP_PID" 2>/dev/null; then
        break
    fi
    if [ "$(metric fleet_leases_active || echo 0)" = "2" ]; then
        leased=1
        break
    fi
    sleep 0.2
done
if [ "$leased" != 1 ]; then
    echo "never saw both workers leased; cannot exercise the restart path"
    exit 1
fi
echo "== SIGKILL coordinator (pid $COORD_PID) mid-sweep, restart on journal"
kill -9 "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
# The crash artefact: an append cut short. The restart must cut both
# fragments off, or the next record appended fuses with them into a
# corrupt line that fails every later open.
SHARD="$(ls -S "$TMP"/coord/fleet/shard-*.jsonl | head -1)"
printf '{"op":"grant","campaign":"c0001","lea' >> "$JOURNAL"
printf '{"key":"0abc","resu' >> "$SHARD"
echo "   left torn trailers on $(basename "$JOURNAL") and $(basename "$SHARD")"
start_coordinator
wait_healthy
replayed="$(metric fleet_journal_replayed_records || echo 0)"
echo "   restarted coordinator replayed $replayed journal records"
if [ "${replayed:-0}" -lt 1 ]; then
    echo "FAIL: restarted coordinator replayed no journal records"
    exit 1
fi

# Now kill a worker outright while it holds a lease in the restarted
# coordinator; its shard must expire and migrate to the survivor. Worker
# 1 is stopped before the count is read, so it cannot complete its shard
# between the read and the kill; if it holds no lease it is resumed and
# the check repeats.
killed=0
for _ in $(seq 150); do
    if ! kill -0 "$SWEEP_PID" 2>/dev/null; then
        break
    fi
    kill -STOP "$WORKER1_PID"
    if [ "$(metric fleet_leases_active || echo 0)" = "2" ]; then
        echo "== SIGKILL worker 1 (pid $WORKER1_PID) while it holds a lease"
        kill -9 "$WORKER1_PID"
        killed=1
        break
    fi
    kill -CONT "$WORKER1_PID"
    sleep 0.2
done
if [ "$killed" != 1 ]; then
    echo "never saw both workers leased after restart; cannot exercise the death path"
    exit 1
fi

wait "$SWEEP_PID"

verify() { # $1 = the serial CSV, $2 = the fleet CSV to hold against it
    dead="$(metric fleet_store_dead_lines)"
    echo "   store dead lines: $dead"
    if [ "${dead:-0}" != 0 ]; then
        echo "FAIL: sharded store contains duplicate or torn lines"
        exit 1
    fi
    if ! diff -u "$1" "$2"; then
        echo "FAIL: fleet results differ from the single-process run"
        exit 1
    fi
}

echo "== verify"
expired="$(metric fleet_leases_expired_total)"
echo "   leases expired: $expired"
if [ "${expired:-0}" -lt 1 ]; then
    echo "FAIL: killed worker's lease never expired"
    exit 1
fi
verify "$TMP/serial.csv" "$TMP/fleet.csv"

echo "== restart worker 1; policy study ($POLICY_SPEC) on the fleet"
wait "$WORKER1_PID" 2>/dev/null || true
start_worker 1
"$BIN/experiments" -spec "$POLICY_SPEC" -fleet "$BASE" > "$TMP/policy-fleet.csv"
verify "$TMP/policy-serial.csv" "$TMP/policy-fleet.csv"

# Second restart, this time a clean stop: everything appended since the
# torn trailers must read back. The resubmitted sweep is served from the
# store (every shard fast-completes at admission), so its CSV is the
# summary re-fetched through the reopened files.
echo "== stop coordinator (pid $COORD_PID), restart, re-fetch"
kill "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
start_coordinator
wait_healthy
"$BIN/experiments" -spec "$SPEC" -fleet "$BASE" > "$TMP/fleet2.csv"
verify "$TMP/serial.csv" "$TMP/fleet2.csv"
"$BIN/experiments" -spec "$POLICY_SPEC" -fleet "$BASE" > "$TMP/policy-fleet2.csv" 2> "$TMP/policy-fleet2.log"
if ! grep -q 'shards, 2 cached)$' "$TMP/policy-fleet2.log"; then
    echo "FAIL: the resubmitted policy study did not fast-complete every shard:"
    cat "$TMP/policy-fleet2.log"
    exit 1
fi
verify "$TMP/policy-serial.csv" "$TMP/policy-fleet2.csv"
echo "== standalone nocsimd: table3 through the in-process worker"
SBASE="http://localhost:$((COORD_PORT + 3))"
"$BIN/experiments" -spec scenarios/table3.json > "$TMP/table3-serial.csv"
"$BIN/nocsimd" -addr ":$((COORD_PORT + 3))" -data "$TMP/standalone" -shard-size 1 -workers 1 -pprof=false &
PIDS+=($!)
wait_healthy "$SBASE"
"$BIN/experiments" -spec scenarios/table3.json -fleet "$SBASE" > "$TMP/table3-standalone.csv"
if ! diff -u "$TMP/table3-serial.csv" "$TMP/table3-standalone.csv"; then
    echo "FAIL: standalone table3 differs from the local run"
    exit 1
fi
echo "== standalone nocsimd: the fig8 figure, as its committed spec"
"$BIN/experiments" -exp fig8 -quick -mixes 4 > "$TMP/fig8-serial.txt"
"$BIN/experiments" -exp fig8 -quick -mixes 4 -fleet "$SBASE" > "$TMP/fig8-standalone.txt"
if ! cmp "$TMP/fig8-serial.txt" "$TMP/fig8-standalone.txt"; then
    diff -u "$TMP/fig8-serial.txt" "$TMP/fig8-standalone.txt" || true
    echo "FAIL: fig8 on standalone nocsimd differs from the local run"
    exit 1
fi

echo "== standalone nocsimd: cancel $POLICY_SPEC mid-run, then resubmit"
sub="$(printf '{"spec":%s}' "$(cat "$POLICY_SPEC")" | curl -sf -X POST -d @- "$SBASE/fleet/campaigns")"
id="$(echo "$sub" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
for _ in $(seq 100); do
    curl -sf "$SBASE/fleet/campaigns/$id" | grep -q '"shards_leased": 1' && break
    sleep 0.1
done
if ! curl -sf -X POST "$SBASE/fleet/campaigns/$id/cancel" | grep -q '"state": "cancelled"'; then
    echo "FAIL: campaign $id did not cancel mid-run"
    exit 1
fi
"$BIN/experiments" -spec "$POLICY_SPEC" -fleet "$SBASE" > "$TMP/policy-standalone.csv"
if ! curl -sf "$SBASE/fleet/campaigns/$id" | grep -q '"state": "cancelled"'; then
    echo "FAIL: the cancelled campaign $id ran its queued shard"
    exit 1
fi
if ! diff -u "$TMP/policy-serial.csv" "$TMP/policy-standalone.csv"; then
    echo "FAIL: the resubmitted policy study differs from the local run"
    exit 1
fi
echo "OK: fleet output is bit-identical to the serial run ($(wc -l < "$TMP/fleet.csv") CSV lines, $(wc -l < "$TMP/policy-fleet.csv") policy CSV lines), through a crash with torn trailers and a restart; standalone nocsimd matches too (table3, fig8), through a cancel"
