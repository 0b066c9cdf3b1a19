#!/usr/bin/env bash
# serve_smoke -- end-to-end check of the serving stack, run by CTest.
#
#   serve_smoke.sh <rebudgetd> <rebudgetctl> <trace>
#
# Part A drives a live daemon over a Unix-domain socket: create a
# market, tick, read the allocation back, exercise one typed-error
# path, then shut the daemon down cleanly through the protocol.  The
# daemon's log must show the catalog profile before the socket (boot
# order, DESIGN.md section 3.9).
#
# Part B replays the committed trace at --jobs 1, --jobs 2 and the
# hardware default and asserts all three digests are bit-identical --
# the daemon's determinism contract.

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: serve_smoke.sh <rebudgetd> <rebudgetctl> <trace>" >&2
    exit 2
fi
DAEMON=$1
CTL=$2
TRACE=$3

TMPDIR_SMOKE=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    # Bounded: a wedged daemon gets SIGTERM, five seconds to drain,
    # then SIGKILL -- the cleanup path must never hang the test run.
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        for _ in $(seq 1 50); do
            kill -0 "$DAEMON_PID" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    exit 1
}

# ----------------------------------------------------------------
# Part A: live daemon round-trip over a Unix socket.
# ----------------------------------------------------------------
SOCK=$TMPDIR_SMOKE/rebudget.sock
LOG=$TMPDIR_SMOKE/daemon.log
# A stale socket file from a crashed previous run would make the
# "daemon is up" probe below pass before bind(); clear it first.
rm -f "$SOCK"
"$DAEMON" --socket "$SOCK" --shards 4 --jobs 2 --tick-ms 0 > "$LOG" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
    sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon never created $SOCK"

"$CTL" --socket "$SOCK" create 42 mcf,vpr,twolf,art \
    || fail "create rejected"
"$CTL" --socket "$SOCK" demand 42 1 2.5 || fail "demand rejected"
"$CTL" --socket "$SOCK" tick || fail "tick rejected"

GET_OUT=$("$CTL" --socket "$SOCK" get 42) || fail "get rejected"
echo "$GET_OUT" | grep -q "market 42" || fail "allocation missing market id"
echo "$GET_OUT" | grep -q "tenant 3" || fail "allocation missing tenant 3"

# Typed-error path: unknown market must fail the client (exit 1) but
# leave the daemon serving.
if "$CTL" --socket "$SOCK" get 999 2>/dev/null; then
    fail "get on unknown market should exit non-zero"
fi
"$CTL" --socket "$SOCK" stats | grep -q "rebudget.serve_stats.v1" \
    || fail "stats reply missing schema tag"

"$CTL" --socket "$SOCK" shutdown || fail "shutdown rejected"
WAITED=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    WAITED=$((WAITED + 1))
    [ "$WAITED" -le 100 ] || fail "daemon ignored protocol Shutdown"
    sleep 0.1
done
wait "$DAEMON_PID" || fail "daemon exited non-zero after Shutdown"
DAEMON_PID=""

# Boot order: the profile line comes before the listening line.  An
# order check only; how long the profile took is not bounded here.
PROFILED=$(grep -n 'rebudgetd: profiled' "$LOG" | head -n 1 | cut -d: -f1)
LISTENING=$(grep -n 'rebudgetd: listening on' "$LOG" | head -n 1 | cut -d: -f1)
[ -n "$PROFILED" ] || fail "daemon log has no profile line: $(cat "$LOG")"
[ -n "$LISTENING" ] || fail "daemon log has no listening line: $(cat "$LOG")"
[ "$PROFILED" -lt "$LISTENING" ] \
    || fail "daemon listened before it profiled: $(cat "$LOG")"
echo "serve_smoke: part A (socket round-trip, boot order) OK"

# ----------------------------------------------------------------
# Part B: deterministic replay, digest stable across --jobs.
# ----------------------------------------------------------------
digest_at() {
    "$DAEMON" --replay "$TRACE" --shards 4 "$@" \
        | awk '/^digest/ { print $2 }'
}

D1=$(digest_at --jobs 1)
D2=$(digest_at --jobs 2)
DHW=$(digest_at)
[ -n "$D1" ] || fail "replay printed no digest"
[ "$D1" = "$D2" ] || fail "digest differs --jobs 1 ($D1) vs 2 ($D2)"
[ "$D1" = "$DHW" ] || fail "digest differs --jobs 1 ($D1) vs hw ($DHW)"
echo "serve_smoke: part B (replay determinism) OK: digest $D1"
