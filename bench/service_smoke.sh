#!/usr/bin/env bash
# Integration smoke for the rascd solve service (DESIGN.md §10).
#
# Usage: bench/service_smoke.sh
#
# Drills the full robustness cycle end to end against the real
# binaries (CI runs this with ASan+UBSan builds):
#
#   1. boot rascd on an ephemeral port, serve concurrent load
#   2. SIGTERM drain: exit 0, final .rsnap flushed for every system
#   3. kill -9 under live load, restart, verify every *acknowledged*
#      LOAD/ADD survived (zero accepted-work loss)
#   4. rasctool --checkpoint --certify on the recovered snapshot: the
#      independent certifier accepts the state the daemon wrote
#   5. RETRACT round-trip: withdraw a constraint online (incremental
#      re-solve), kill -9, restart — the retraction survives because
#      the durable text gained a "retract N;" statement before the Ok
#   6. rasctool SIGINT: cooperative cancel (exit 14, or 0 if the solve
#      won the race), snapshot flushed, rerun resumes to exit 0
#   7. proof logging across the trust boundary: SOLVE proof=1 streams
#      a derivation log the standalone rasccheck accepts, kill -9
#      under live load + a simulated torn tail is truncated on warm
#      boot, and the re-solved log passes the checker again
#
# The binaries must already be built (cmake --build build -j).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$REPO_ROOT/build}"
RASCD="$BUILD/examples/rascd"
CLIENT="$BUILD/examples/rascdclient"
RASCTOOL="$BUILD/examples/rasctool"
RASCCHECK="$BUILD/examples/rasccheck"

for B in "$RASCD" "$CLIENT" "$RASCTOOL" "$RASCCHECK"; do
  [ -x "$B" ] || { echo "error: $B not built" >&2; exit 1; }
done

WORK="$(mktemp -d)"
DATA="$WORK/data"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
pass() { echo "ok: $*"; }

start_daemon() {
  rm -f "$WORK/port"
  "$RASCD" --data "$DATA" --port 0 --port-file "$WORK/port" \
           --max-sessions 4 --session-deadline 30 \
           2>"$WORK/rascd.log" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on boot: $(cat "$WORK/rascd.log")"
    sleep 0.1
  done
  fail "daemon never wrote its port file"
}

rpc() { "$CLIENT" --port-file "$WORK/port" "$@"; }

# --- 1. boot + concurrent load -----------------------------------------

start_daemon
rpc ping >/dev/null || fail "ping"
rpc load smoke "$REPO_ROOT/examples/privilege.rasc" >/dev/null || fail "load"
rpc solve smoke >/dev/null || fail "solve (status in stderr above)"
rpc bench --connections 4 --ops 12 --json >"$WORK/bench1.json" \
  || fail "concurrent bench"
grep -q '"errors": *0' "$WORK/bench1.json" \
  || fail "bench reported errors: $(cat "$WORK/bench1.json")"
pass "boot + concurrent load ($(grep -o '"ops_ok": *[0-9]*' "$WORK/bench1.json"))"

# --- 2. SIGTERM drain ---------------------------------------------------

kill -TERM "$DAEMON_PID"
RC=0; wait "$DAEMON_PID" || RC=$?
DAEMON_PID=""
[ "$RC" -eq 0 ] || fail "drain exit code $RC: $(cat "$WORK/rascd.log")"
[ -f "$DATA/smoke.rsnap" ] || fail "no final snapshot after drain"
pass "SIGTERM drain (exit 0, snapshots flushed)"

# --- 3. kill -9 under live load, restart, verify acknowledged work ------

start_daemon
# An acknowledged system: the text hit disk before the Ok came back.
printf 'language regex "g*";\nconstant c;\nvar X0 X1;\nc <= X0;\nX0 <= X1;\nquery c in X1;\n' \
  >"$WORK/dur.rasc"
rpc load dur "$WORK/dur.rasc" >/dev/null || fail "load dur"
rpc solve dur >/dev/null || fail "solve dur"
# Live load when the axe falls. The client is started directly, not
# through rpc(): a backgrounded shell function runs in a subshell, so
# $! would name the subshell and the kill below would miss the client.
"$CLIENT" --port-file "$WORK/port" bench --connections 4 --ops 200 \
  >/dev/null 2>&1 &
BENCH_PID=$!
sleep 0.5
{ kill -9 "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
kill "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true

start_daemon
grep -q "systems resident" "$WORK/rascd.log" || fail "no warm-boot banner"
OUT="$(rpc entail dur "c in X1")" || fail "entail after recovery"
echo "$OUT" | grep -q "holds=true" || fail "acknowledged work lost: $OUT"
pass "kill -9 + restart recovered acknowledged state"

# --- 4. independent certification of the recovered snapshot -------------

kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" || fail "second drain failed"
DAEMON_PID=""
[ -f "$DATA/dur.rsnap" ] || fail "no recovered snapshot to certify"
# --incremental: the daemon always tracks provenance for RETRACT, and
# snapshot options are semantic — the certifying solver must match.
"$RASCTOOL" --incremental --checkpoint "$DATA/dur.rsnap" \
    --certify "$DATA/dur.rasc" \
  >/dev/null || fail "certifier rejected the daemon's snapshot"
pass "rasctool --certify accepts the recovered snapshot"

# --- 5. RETRACT round-trip surviving kill -9 ----------------------------

start_daemon
OUT="$(rpc entail dur "c in X1")" || fail "entail before retract"
echo "$OUT" | grep -q "holds=true" || fail "unexpected pre-retract state: $OUT"
# Withdraw "X0 <= X1" (constraint 1 of dur.rasc): the answer flips
# without a from-scratch solve.
OUT="$(rpc retract dur 1)" || fail "retract"
echo "$OUT" | grep -q "mode=incremental" \
  || fail "retract did not take the incremental path: $OUT"
OUT="$(rpc entail dur "c in X1")" || fail "entail after retract"
echo "$OUT" | grep -q "holds=false" || fail "retract had no effect: $OUT"
OUT="$(rpc entail dur "c in X0")" || fail "entail X0 after retract"
echo "$OUT" | grep -q "holds=true" || fail "retract removed too much: $OUT"
# The axe again: the acknowledged retraction must ride the durable
# text ("retract 1;" was appended before the Ok) through a hard kill.
{ kill -9 "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
start_daemon
OUT="$(rpc entail dur "c in X1")" || fail "entail after retract+kill"
echo "$OUT" | grep -q "holds=false" || fail "acknowledged RETRACT lost: $OUT"
kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" || fail "post-retract drain failed"
DAEMON_PID=""
pass "RETRACT round-trip (incremental re-solve, survived kill -9)"

# --- 6. rasctool SIGINT: cancel, flush, resume --------------------------

# A banded chain: ~6n constraints whose transitive closure has O(n^2)
# derived edges, so the solve runs long enough for the signal to land.
python3 - "$WORK/big.rasc" <<'EOF'
import sys
n = 700
with open(sys.argv[1], "w") as f:
    f.write('language regex "g*";\nconstant c;\n')
    f.write("var " + " ".join(f"V{i}" for i in range(n)) + ";\n")
    f.write("c <= V0;\n")
    for i in range(n):
        for d in range(1, 7):
            if i + d < n:
                f.write(f"V{i} <= [g] V{i+d};\n")
    f.write(f"query c in V{n-1};\n")
EOF
"$RASCTOOL" --checkpoint "$WORK/big.rsnap" "$WORK/big.rasc" >/dev/null &
TOOL_PID=$!
sleep 0.05
kill -INT "$TOOL_PID" 2>/dev/null || true
RC=0; wait "$TOOL_PID" || RC=$?
# 14 = cancelled by the signal; 0 = the solve won the race. Both fine,
# and either way the checkpoint must exist and the rerun must finish.
{ [ "$RC" -eq 14 ] || [ "$RC" -eq 0 ]; } || fail "SIGINT exit code $RC"
[ -f "$WORK/big.rsnap" ] || fail "no snapshot after SIGINT"
"$RASCTOOL" --checkpoint "$WORK/big.rsnap" --certify "$WORK/big.rasc" \
  >/dev/null || fail "resume after SIGINT failed"
pass "rasctool SIGINT cancel (exit $RC) + snapshot + clean resume"

# --- 7. proof logging across the trust boundary -------------------------

start_daemon
OUT="$(rpc solve dur --proof)" || fail "solve --proof"
echo "$OUT" | grep -q "proof=streaming" || fail "proof not streaming: $OUT"
[ -f "$DATA/dur.rprf" ] || fail "no proof log on disk"
# The daemon fsyncs a sealed trailer after every proof-enabled solve,
# so the standalone checker can validate the log while rascd is live.
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "rasccheck rejected the live daemon's log"
# The axe under live load, then make the torn tail deterministic: a
# hard kill can leave a half-written frame, which we simulate so the
# truncation path is exercised on every run, not only on lucky races.
"$CLIENT" --port-file "$WORK/port" bench --connections 4 --ops 200 \
  >/dev/null 2>&1 &
BENCH_PID=$!
sleep 0.3
{ kill -9 "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
kill "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true
printf 'PRFC-half-a-frame' >>"$DATA/dur.rprf"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null 2>&1 \
  && fail "rasccheck accepted a torn log"

start_daemon
grep -q "truncated torn tail" "$WORK/rascd.log" \
  || fail "warm boot did not truncate the torn proof tail: $(cat "$WORK/rascd.log")"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "truncated log no longer checks"
# Re-opt-in: the restarted daemon rebuilds the proof from provenance.
OUT="$(rpc solve dur --proof)" || fail "solve --proof after recovery"
echo "$OUT" | grep -q "proof=streaming" || fail "proof not rebuilt: $OUT"
"$RASCCHECK" "$DATA/dur.rprf" >/dev/null \
  || fail "rasccheck rejected the rebuilt log"
kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" || fail "final drain failed"
DAEMON_PID=""
pass "proof log: streamed, torn tail truncated, rebuilt, checker-clean"

echo "service smoke: all checks passed"
