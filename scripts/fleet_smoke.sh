#!/usr/bin/env bash
# End-to-end fleet fabric smoke: a coordinator (with a write-ahead
# journal) and two workers on localhost run a sweep; mid-sweep the
# coordinator is SIGKILLed, a half-written line is left at the end of
# its journal and of one store shard (what a kill mid-append really
# leaves), and it is restarted (the journal must bring back every queued
# campaign and active lease, and both files must be appendable again),
# then one worker is SIGKILLed while it holds a lease (its shard expires
# and migrates) — and the fleet CSV must still match the single-process
# CSV bit for bit. Finally the coordinator is stopped and started once
# more and the sweep re-fetched: the files written after the torn
# trailers must still open, with no dead lines and the same CSV. This is
# the determinism + durability contract of DESIGN.md §10, exercised
# through real processes, real sockets and a real kill -9.
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

echo "== serial reference run"
"$BIN/experiments" -spec "$SPEC" > "$TMP/serial.csv"

JOURNAL="$TMP/coord/fleet.journal"
start_coordinator() {
    "$BIN/nocsimd" -coordinator -addr ":${COORD_PORT}" -data "$TMP/coord" \
        -journal "$JOURNAL" -shard-size 1 -lease-ttl 3s -pprof=false &
    COORD_PID=$!
    PIDS+=("$COORD_PID")
}

wait_healthy() {
    for _ in $(seq 50); do
        curl -sf "$BASE/healthz" >/dev/null && return 0
        sleep 0.2
    done
    echo "coordinator never came up"
    exit 1
}

echo "== start coordinator + 2 workers"
start_coordinator
for i in 1 2; do
    "$BIN/nocsimd" -worker "$BASE" -addr ":$((COORD_PORT + i))" \
        -data "$TMP/w$i" -pprof=false &
    PIDS+=($!)
done
WORKER1_PID="${PIDS[1]}"

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
# retry through the outage; the restarted coordinator must replay the
# campaign, the queue and both active leases or the sweep hangs/fails.
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
# coordinator; its shard must expire and migrate to the survivor.
killed=0
for _ in $(seq 150); do
    if ! kill -0 "$SWEEP_PID" 2>/dev/null; then
        break
    fi
    if [ "$(metric fleet_leases_active || echo 0)" = "2" ]; then
        echo "== SIGKILL worker 1 (pid $WORKER1_PID) while it holds a lease"
        kill -9 "$WORKER1_PID"
        killed=1
        break
    fi
    sleep 0.2
done
if [ "$killed" != 1 ]; then
    echo "never saw both workers leased after restart; cannot exercise the death path"
    exit 1
fi

wait "$SWEEP_PID"

verify() { # $1 = the fleet CSV to hold against the serial run
    dead="$(metric fleet_store_dead_lines)"
    echo "   store dead lines: $dead"
    if [ "${dead:-0}" != 0 ]; then
        echo "FAIL: sharded store contains duplicate or torn lines"
        exit 1
    fi
    if ! diff -u "$TMP/serial.csv" "$1"; then
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
verify "$TMP/fleet.csv"

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
verify "$TMP/fleet2.csv"
echo "OK: fleet output is bit-identical to the serial run ($(wc -l < "$TMP/fleet.csv") CSV lines), through a crash with torn trailers and a restart"
