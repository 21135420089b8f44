#!/usr/bin/env bash
# End-to-end wire smoke test: pipe the checked-in JSONL request file
# through chatpattern-serve and assert that (a) every output line is
# valid JSON with a non-null id and an Ok/Err outcome, (b) the set
# of response ids exactly matches the set of request ids, a packed
# Legalize answers as its `bits` twin does and a malformed topology is
# a typed refusal, (c) a
# burst of duplicate requests performs exactly one backend execution
# while still answering every id, (d) an interactive session
# round-trips (open, turns, close, typed error on the closed id),
# (e) with --session-dir capacity eviction spills (a format-3 file,
# topologies packed) and rehydrates (while a *closed* id stays
# SessionNotFound), and (f) a session snapshot exported from one serve
# process (format 3 again) restores into another and the conversation
# continues (cross-process handoff), (g) the TCP
# transport (`--listen`) answers the same fixture payload-identical to
# stdio and flushes --stats, connection counters included, on client
# disconnect, (h) a 2-worker
# router fleet routes a session, survives draining its host worker
# (a live session move), answers an ill-typed and a packed line once each
# under their ids, and aggregates fleet stats, and (i) a tenant that
# floods past its --tenant-quota collects typed Overloaded envelopes
# with a retry_after_ms hint while a calm tenant on the same server
# still completes, with the rejection counted in the per-tenant stats
# ledger. Run from anywhere; needs jq and built (or buildable) release
# binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${CHATPATTERN_SERVE:-target/release/chatpattern-serve}
IN=tests/data/smoke_requests.jsonl

if [ ! -x "$BIN" ]; then
    cargo build --release --bin chatpattern-serve
fi

OUT=$("$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 4 --stats < "$IN")

# (a) every line parses with the envelope shape (jq aborts on bad JSON).
echo "$OUT" | jq -es '
    all(.[]; (.id != null) and ((.outcome | has("Ok")) or (.outcome | has("Err"))))
' > /dev/null || { echo "wire smoke FAILED: malformed response line" >&2; exit 1; }

# (b) response ids are exactly the request ids (order-insensitive:
# out-of-order completion is allowed by the protocol).
WANT=$(jq -r '.id' "$IN" | sort)
GOT=$(echo "$OUT" | jq -r '.id' | sort)
if [ "$WANT" != "$GOT" ]; then
    echo "wire smoke FAILED: id mismatch" >&2
    diff <(echo "$WANT") <(echo "$GOT") >&2 || true
    exit 1
fi

# The fixture spells one Legalize twice, r6 as `bits` and r10 packed:
# one request, so one payload. r11's `bits` is short of rows x cols:
# refused by the line decoder under its own id, not by a worker panic.
[ "$(echo "$OUT" | jq -c 'select(.id == "r10") | .outcome.Ok.payload')" = \
  "$(echo "$OUT" | jq -c 'select(.id == "r6") | .outcome.Ok.payload')" ] \
    && echo "$OUT" | jq -es 'any(.[]; .id == "r6" and (.outcome.Ok.payload | has("Legalize")))' > /dev/null \
    || { echo "wire smoke FAILED: the packed Legalize (r10) and its bits twin (r6) disagree" >&2; exit 1; }
echo "$OUT" | jq -es 'any(.[]; .id == "r11" and .outcome.Err.kind == "InvalidRequest"
    and (.outcome.Err.message | contains("bits is not rows x cols long")))' > /dev/null \
    || { echo "wire smoke FAILED: the short-bits Legalize (r11) is not a typed InvalidRequest" >&2; exit 1; }

echo "wire smoke OK: $(echo "$OUT" | wc -l | tr -d ' ') responses, ids all matched, packed = bits, short bits refused"

# (c) Coalescing burst: N identical requests under distinct ids must
# produce exactly one backend execution (cache_misses=1 for the single
# key — later duplicates either coalesce onto the in-flight execution
# or hit the result cache) and exactly N replies, one per id.
N=6
BURST=$(for i in $(seq 1 $N); do
    printf '{"id":"dup%d","request":{"Generate":{"style":"Layer10003","rows":16,"cols":16,"count":2,"seed":424242}}}\n' "$i"
done)
BURST_ERR=$(mktemp)
BURST_OUT=$(echo "$BURST" | "$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 4 --stats 2> "$BURST_ERR")

REPLIES=$(echo "$BURST_OUT" | jq -r '.id' | sort)
WANT_IDS=$(echo "$BURST" | jq -r '.id' | sort)
if [ "$REPLIES" != "$WANT_IDS" ]; then
    echo "wire smoke FAILED: duplicate burst did not answer every id" >&2
    diff <(echo "$WANT_IDS") <(echo "$REPLIES") >&2 || true
    rm -f "$BURST_ERR"
    exit 1
fi
echo "$BURST_OUT" | jq -es 'all(.[]; .outcome | has("Ok"))' > /dev/null \
    || { echo "wire smoke FAILED: duplicate burst reply errored" >&2; rm -f "$BURST_ERR"; exit 1; }

MISSES=$(grep -o 'cache_misses=[0-9]*' "$BURST_ERR" | cut -d= -f2)
COALESCED=$(grep -o 'coalesced=[0-9]*' "$BURST_ERR" | cut -d= -f2)
HITS=$(grep -o 'cache_hits=[0-9]*' "$BURST_ERR" | cut -d= -f2)
rm -f "$BURST_ERR"
if [ "$MISSES" != "1" ]; then
    echo "wire smoke FAILED: $N duplicate requests caused $MISSES executions (want 1)" >&2
    exit 1
fi
if [ $((COALESCED + HITS)) -ne $((N - 1)) ]; then
    echo "wire smoke FAILED: coalesced=$COALESCED + cache_hits=$HITS != $((N - 1))" >&2
    exit 1
fi

echo "wire smoke OK: duplicate burst of $N → 1 execution ($COALESCED coalesced, $HITS cache hits), $N replies"

# (d) Session round-trip: open, two turns, close, then a turn on the
# closed id asserting the typed error envelope. Driven interactively
# over fifos — one request in flight at a time, the documented way to
# order session turns on the async wire (docs/SESSIONS.md).
SESS_DIR=$(mktemp -d)
mkfifo "$SESS_DIR/in" "$SESS_DIR/out"
"$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 2 \
    --max-sessions 4 --session-ttl-secs 600 --stats \
    < "$SESS_DIR/in" > "$SESS_DIR/out" 2> "$SESS_DIR/err" &
SERVE_PID=$!
exec 3> "$SESS_DIR/in" 4< "$SESS_DIR/out"

session_exchange() {
    printf '%s\n' "$1" >&3
    # Bounded read: a hung serve binary must fail this step with a
    # diagnostic, not stall CI until the job-level timeout.
    if ! IFS= read -t 120 -r SESSION_REPLY <&4; then
        SESSION_REPLY="(no reply within 120s)"
        session_fail "no reply to: $1"
    fi
}

session_fail() {
    echo "wire smoke FAILED: $1" >&2
    echo "reply was: $SESSION_REPLY" >&2
    exec 3>&- 4<&- || true
    kill "$SERVE_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
}

session_exchange '{"id":"s-open","request":{"SessionOpen":{"session":"smoke","seed":7}}}'
echo "$SESSION_REPLY" | jq -e '.outcome | has("Ok")' > /dev/null \
    || session_fail "session open errored"
session_exchange '{"id":"s-t1","request":{"SessionTurn":{"session":"smoke","utterance":"Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10001."}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || session_fail "first turn did not report turn 1"
session_exchange '{"id":"s-t2","request":{"SessionTurn":{"session":"smoke","utterance":"Now make them denser."}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || session_fail "follow-up turn did not report turn 2"
session_exchange '{"id":"s-close","request":{"SessionClose":{"session":"smoke"}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || session_fail "session close errored"
session_exchange '{"id":"s-late","request":{"SessionTurn":{"session":"smoke","utterance":"one more"}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Err.kind == "SessionNotFound"' > /dev/null \
    || session_fail "turn on a closed session must yield the SessionNotFound envelope"

exec 3>&- 4<&-
wait "$SERVE_PID" || { echo "wire smoke FAILED: serve exited non-zero" >&2; rm -rf "$SESS_DIR"; exit 1; }
TURNS=$(grep -o 'turns=[0-9]*' "$SESS_DIR/err" | cut -d= -f2)
OPEN=$(grep -o 'sessions_open=[0-9]*' "$SESS_DIR/err" | cut -d= -f2)
rm -rf "$SESS_DIR"
if [ "$TURNS" != "2" ] || [ "$OPEN" != "0" ]; then
    echo "wire smoke FAILED: session stats turns=$TURNS sessions_open=$OPEN (want 2 and 0)" >&2
    exit 1
fi

echo "wire smoke OK: session round-trip (open, 2 turns, close, typed error on closed id)"

# (e) Durability: with --session-dir, capacity eviction *spills* —
# a turn on the evicted id rehydrates and succeeds — while an
# explicitly *closed* id stays a SessionNotFound envelope. The two
# cases were previously conflated; they pin different behaviors.
SESS_DIR=$(mktemp -d)
mkfifo "$SESS_DIR/in" "$SESS_DIR/out"
"$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 2 \
    --max-sessions 1 --session-ttl-secs 600 --session-dir "$SESS_DIR/spill" --stats \
    < "$SESS_DIR/in" > "$SESS_DIR/out" 2> "$SESS_DIR/err" &
SERVE_PID=$!
exec 3> "$SESS_DIR/in" 4< "$SESS_DIR/out"

session_exchange '{"id":"d-open1","request":{"SessionOpen":{"session":"first","seed":7}}}'
echo "$SESSION_REPLY" | jq -e '.outcome | has("Ok")' > /dev/null \
    || session_fail "durable open errored"
session_exchange '{"id":"d-t1","request":{"SessionTurn":{"session":"first","utterance":"Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, style Layer-10001."}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || session_fail "durable first turn failed"
# Capacity 1: this open evicts "first" — which must spill, not die.
session_exchange '{"id":"d-open2","request":{"SessionOpen":{"session":"second","seed":8}}}'
echo "$SESSION_REPLY" | jq -e '.outcome | has("Ok")' > /dev/null \
    || session_fail "second open errored"
# What now rests on disk is format 3: its topology packed, not `bits`.
SPILL_FILE=$(find "$SESS_DIR/spill" -name 'first.session.json')
{ grep -q '"format":3' "$SPILL_FILE" && grep -q '"packed":"' "$SPILL_FILE" \
    && ! grep -q '"bits"' "$SPILL_FILE"; } \
    || session_fail "the spilled file is not a packed format-3 snapshot"
session_exchange '{"id":"d-t2","request":{"SessionTurn":{"session":"first","utterance":"1 more pattern."}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || session_fail "turn on the spilled (evicted) id must rehydrate and report turn 2"
session_exchange '{"id":"d-close","request":{"SessionClose":{"session":"first"}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || session_fail "close of the rehydrated session errored"
session_exchange '{"id":"d-late","request":{"SessionTurn":{"session":"first","utterance":"more"}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Err.kind == "SessionNotFound"' > /dev/null \
    || session_fail "turn on an explicitly closed id must stay SessionNotFound"
session_exchange '{"id":"d-close2","request":{"SessionClose":{"session":"second"}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || session_fail "close of the second session errored"

exec 3>&- 4<&-
wait "$SERVE_PID" || { echo "wire smoke FAILED: durable serve exited non-zero" >&2; rm -rf "$SESS_DIR"; exit 1; }
EVICTED=$(grep -o 'sessions_evicted=[0-9]*' "$SESS_DIR/err" | cut -d= -f2)
SPILLED=$(grep -o 'sessions_spilled=[0-9]*' "$SESS_DIR/err" | cut -d= -f2)
RESTORED=$(grep -o 'sessions_restored=[0-9]*' "$SESS_DIR/err" | cut -d= -f2)
rm -rf "$SESS_DIR"
if [ "$EVICTED" != "0" ] || [ "$SPILLED" = "0" ] || [ "$RESTORED" = "0" ]; then
    echo "wire smoke FAILED: durable stats evicted=$EVICTED spilled=$SPILLED restored=$RESTORED (want 0, >0, >0)" >&2
    exit 1
fi

echo "wire smoke OK: spill-on-evict rehydrates (spilled=$SPILLED restored=$RESTORED), closed id stays SessionNotFound"

# (f) Two-process handoff: snapshot a live session out of serve A,
# kill A (simulated crash), restore the snapshot into serve B and
# continue the conversation there.
SESS_DIR=$(mktemp -d)
mkfifo "$SESS_DIR/in" "$SESS_DIR/out"
"$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 2 --seed 3 \
    < "$SESS_DIR/in" > "$SESS_DIR/out" 2> /dev/null &
SERVE_PID=$!
exec 3> "$SESS_DIR/in" 4< "$SESS_DIR/out"

session_exchange '{"id":"h-open","request":{"SessionOpen":{"session":"hand","seed":7}}}'
echo "$SESSION_REPLY" | jq -e '.outcome | has("Ok")' > /dev/null \
    || session_fail "handoff open errored"
session_exchange '{"id":"h-t1","request":{"SessionTurn":{"session":"hand","utterance":"Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10003."}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || session_fail "handoff first turn failed"
session_exchange '{"id":"h-snap","request":{"SessionSnapshot":{"session":"hand"}}}'
SNAPSHOT=$(echo "$SESSION_REPLY" | jq -ce '.outcome.Ok.payload.SessionSnapshot') \
    || session_fail "snapshot export errored"
case "$SNAPSHOT" in
    *'"bits"'*) session_fail "the exported snapshot spells a topology as bits" ;;
    *'"packed":"'*'"format":3'*) ;;
    *) session_fail "the exported snapshot is not a packed format-3 snapshot" ;;
esac
exec 3>&- 4<&-
kill -9 "$SERVE_PID" 2> /dev/null || true
wait "$SERVE_PID" 2> /dev/null || true

# Serve B: same model configuration (snapshots carry session state,
# not the trained model), fresh process.
mkfifo "$SESS_DIR/in2" "$SESS_DIR/out2"
"$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 2 --seed 3 \
    < "$SESS_DIR/in2" > "$SESS_DIR/out2" 2> /dev/null &
SERVE_PID=$!
exec 3> "$SESS_DIR/in2" 4< "$SESS_DIR/out2"

session_exchange "$(jq -cn --argjson snap "$SNAPSHOT" '{id:"h-restore",request:{SessionRestore:{snapshot:$snap}}}')"
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionRestore.session == "hand"' > /dev/null \
    || session_fail "snapshot restore into serve B errored"
session_exchange '{"id":"h-t2","request":{"SessionTurn":{"session":"hand","utterance":"1 more pattern."}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || session_fail "restored session must continue at turn 2 in serve B"
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.library | length == 3' > /dev/null \
    || session_fail "restored session must keep the donor's library (2 + 1 patterns)"
session_exchange '{"id":"h-close","request":{"SessionClose":{"session":"hand"}}}'
echo "$SESSION_REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || session_fail "handoff close errored"

exec 3>&- 4<&-
wait "$SERVE_PID" || { echo "wire smoke FAILED: serve B exited non-zero" >&2; rm -rf "$SESS_DIR"; exit 1; }
rm -rf "$SESS_DIR"

echo "wire smoke OK: two-process handoff (snapshot from A, crash, restore into B, conversation continues)"

# (g) TCP transport equivalence: the same fixture served over
# --listen must be payload-identical (timing stripped; out-of-order
# completion allowed, so sort by id) to a stdio run with the same
# flags, and --stats must flush to stderr when the client disconnects,
# carrying the connection counters of this run's one client.
SESS_DIR=$(mktemp -d)
FLAGS=(--window 16 --training-patterns 8 --diffusion-steps 6 --workers 4 --seed 3)
N_REQ=$(wc -l < "$IN" | tr -d ' ')

normalize() {
    jq -cS 'del(.outcome.Ok.timing)' | sort
}

"$BIN" "${FLAGS[@]}" --stats --listen 127.0.0.1:0 2> "$SESS_DIR/err" &
TCP_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^chatpattern-serve: listening on //p' "$SESS_DIR/err" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "wire smoke FAILED: serve --listen never announced its address" >&2
    kill "$TCP_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
fi

exec 5<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"
cat "$IN" >&5
TCP_OUT=""
for _ in $(seq 1 "$N_REQ"); do
    if ! IFS= read -t 120 -r LINE <&5; then
        echo "wire smoke FAILED: TCP serve did not answer all $N_REQ requests" >&2
        kill "$TCP_PID" 2> /dev/null || true
        rm -rf "$SESS_DIR"
        exit 1
    fi
    TCP_OUT+="$LINE"$'\n'
done
exec 5<&- 5>&-

STDIO_OUT=$("$BIN" "${FLAGS[@]}" < "$IN" 2> /dev/null)
if ! diff <(printf '%s' "$TCP_OUT" | normalize) <(echo "$STDIO_OUT" | normalize); then
    echo "wire smoke FAILED: TCP and stdio transports disagree on the same fixture" >&2
    kill "$TCP_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
fi

# The disconnect above must flush a stats line (a client going away
# is a clean close that still reports): this run's one client peaked
# the gauge at 1 and closed cleanly.
CONN_LINE=""
for _ in $(seq 1 100); do
    CONN_LINE=$(grep -o 'conns_peak=[0-9]* disconnects_clean=[0-9]*' "$SESS_DIR/err" | head -n 1)
    [ -n "$CONN_LINE" ] && break
    sleep 0.1
done
kill "$TCP_PID" 2> /dev/null || true
wait "$TCP_PID" 2> /dev/null || true
rm -rf "$SESS_DIR"
if [ "$CONN_LINE" != "conns_peak=1 disconnects_clean=1" ]; then
    echo "wire smoke FAILED: --stats on client disconnect read '$CONN_LINE' (want conns_peak=1 disconnects_clean=1)" >&2
    exit 1
fi

echo "wire smoke OK: TCP transport payload-identical to stdio ($N_REQ responses), stats and connection counters flushed on disconnect"

# (h) Router fleet: 2 spawned workers behind one address. A session is
# pinned to one worker by the stable routing hash; draining that
# worker live-migrates it (snapshot → restore → re-route) and the
# conversation continues with zero SessionNotFound. The fleet Stats
# view aggregates both workers.
ROUTER=${CHATPATTERN_ROUTER:-target/release/chatpattern-router}
if [ ! -x "$ROUTER" ]; then
    cargo build --release --bin chatpattern-router
fi

SESS_DIR=$(mktemp -d)
"$ROUTER" --listen 127.0.0.1:0 --workers 2 --serve-bin "$BIN" \
    --serve-arg --window --serve-arg 16 \
    --serve-arg --training-patterns --serve-arg 8 \
    --serve-arg --diffusion-steps --serve-arg 6 \
    --serve-arg --workers --serve-arg 2 \
    --serve-arg --seed --serve-arg 3 \
    2> "$SESS_DIR/err" &
ROUTER_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's/^chatpattern-router: listening on //p' "$SESS_DIR/err" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "wire smoke FAILED: router never announced its address" >&2
    cat "$SESS_DIR/err" >&2 || true
    kill "$ROUTER_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
fi

exec 6<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"

router_exchange() {
    printf '%s\n' "$1" >&6
    if ! IFS= read -t 120 -r ROUTER_REPLY <&6; then
        ROUTER_REPLY="(no reply within 120s)"
        router_fail "no reply to: $1"
    fi
}

router_fail() {
    echo "wire smoke FAILED: $1" >&2
    echo "reply was: $ROUTER_REPLY" >&2
    echo "--- router stderr ---" >&2
    cat "$SESS_DIR/err" >&2 || true
    exec 6<&- 6>&- || true
    kill "$ROUTER_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
}

router_exchange '{"id":"f-open","request":{"SessionOpen":{"session":"fleet-smoke","seed":7}}}'
echo "$ROUTER_REPLY" | jq -e '.outcome | has("Ok")' > /dev/null \
    || router_fail "fleet session open errored"
router_exchange '{"id":"f-t1","request":{"SessionTurn":{"session":"fleet-smoke","utterance":"Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10001."}}}'
echo "$ROUTER_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || router_fail "fleet first turn did not report turn 1"

router_exchange '{"id":"f-fleet","control":"Fleet"}'
HOST_WORKER=$(echo "$ROUTER_REPLY" \
    | jq -e '[.control.Fleet.workers[] | select(.sessions == 1)][0].index') \
    || router_fail "fleet view did not show the session pinned to one worker"

router_exchange "{\"id\":\"f-drain\",\"control\":{\"Drain\":{\"worker\":$HOST_WORKER}}}"
echo "$ROUTER_REPLY" | jq -e '.control.Drained.moved == 1' > /dev/null \
    || router_fail "draining worker $HOST_WORKER did not move the session"

router_exchange '{"id":"f-t2","request":{"SessionTurn":{"session":"fleet-smoke","utterance":"1 more pattern."}}}'
echo "$ROUTER_REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || router_fail "the migrated session must continue at turn 2 (zero SessionNotFound)"
router_exchange '{"id":"f-close","request":{"SessionClose":{"session":"fleet-smoke"}}}'
echo "$ROUTER_REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || router_fail "fleet session close errored"

# The router passes a request's text on unread: what is wrong with it
# is the worker's to say, under the client's id, and a topology the
# client packed goes through as packed. Two lines in, two replies out —
# the `Stats` exchange after them must read its own reply, not a third.
printf '%s\n' \
    '{"id":"f-ill","request":{"Legalize":{"topology":{"rows":4,"cols":4,"bits":[1,1,0]},"width_nm":2048,"height_nm":2048,"seed":1}}}' \
    '{"id":"f-packed","request":{"Legalize":{"topology":{"rows":3,"cols":6,"packed":"f8cc84"},"width_nm":2048,"height_nm":2048,"seed":1}}}' >&6
ROUTER_REPLY=""
for _ in 1 2; do
    IFS= read -t 120 -r LINE <&6 || router_fail "the fleet did not answer the ill-typed and the packed line"
    ROUTER_REPLY+="$LINE"$'\n'
done
echo "$ROUTER_REPLY" | jq -es '
    (map(.id) | sort) == ["f-ill", "f-packed"]
    and any(.[]; .id == "f-ill" and .outcome.Err.kind == "InvalidRequest"
        and (.outcome.Err.message | contains("bits is not rows x cols long")))
    and any(.[]; .id == "f-packed" and (.outcome.Ok.payload | has("Legalize")))' > /dev/null \
    || router_fail "an ill-typed line must be the worker's typed refusal and a packed one served, each id once"

router_exchange '{"id":"f-stats","request":"Stats"}'
echo "$ROUTER_REPLY" | jq -e '.id == "f-stats"' > /dev/null \
    || router_fail "a reply nobody asked for came ahead of the Stats reply"
echo "$ROUTER_REPLY" | jq -e '.outcome.Ok.payload.Stats.turns == 2' > /dev/null \
    || router_fail "fleet Stats must aggregate both workers (want turns=2)"
echo "$ROUTER_REPLY" | jq -e '.outcome.Ok.payload.Stats.queue_depths | length == 2' > /dev/null \
    || router_fail "fleet Stats must report one queue per worker"

router_exchange '{"id":"f-bye","control":"Shutdown"}'
echo "$ROUTER_REPLY" | jq -e '.control == "ShuttingDown"' > /dev/null \
    || router_fail "router shutdown control errored"
exec 6<&- 6>&-
wait "$ROUTER_PID" || { echo "wire smoke FAILED: router exited non-zero" >&2; rm -rf "$SESS_DIR"; exit 1; }
rm -rf "$SESS_DIR"

echo "wire smoke OK: router fleet (pin, drain, live migration, refusal and packed line pass through, aggregated stats, shutdown)"

# (i) QoS overload burst: tenant "flood" has an in-flight quota of 1.
# A pipelined burst holds the quota with one slow request, so the
# follow-ups must be answered immediately with the typed Overloaded
# envelope (retry_after_ms present) — while tenant "calm" on the same
# server completes untouched, and the per-tenant stats ledger counts
# the rejections.
SESS_DIR=$(mktemp -d)
"$BIN" --window 16 --training-patterns 8 --diffusion-steps 6 --workers 2 --seed 3 \
    --tenant-quota flood:inflight=1 --cache-capacity 0 --stats \
    --listen 127.0.0.1:0 2> "$SESS_DIR/err" &
QOS_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^chatpattern-serve: listening on //p' "$SESS_DIR/err" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "wire smoke FAILED: QoS serve never announced its address" >&2
    kill "$QOS_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
fi

qos_fail() {
    echo "wire smoke FAILED: $1" >&2
    echo "replies were:" >&2
    printf '%s' "$QOS_OUT" >&2
    kill "$QOS_PID" 2> /dev/null || true
    rm -rf "$SESS_DIR"
    exit 1
}

exec 7<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"
# q-f1 is deliberately heavy (count=512, ≈ 25 ms) so it holds flood's
# single in-flight slot while the rest of the burst is read — at
# count=16 it ran 0.8 ms, and on a busy 2-CPU host the loop thread was
# off the CPU that long one run in five; distinct seeds keep the
# requests out of the coalescer.
printf '%s\n' \
    '{"id":"q-f1","tenant":"flood","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":512,"seed":90001}}}' \
    '{"id":"q-f2","tenant":"flood","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":1,"seed":90002}}}' \
    '{"id":"q-f3","tenant":"flood","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":1,"seed":90003}}}' \
    '{"id":"q-calm","tenant":"calm","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":1,"seed":90004}}}' >&7
QOS_OUT=""
for _ in $(seq 1 4); do
    if ! IFS= read -t 120 -r LINE <&7; then
        exec 7<&- 7>&- || true
        qos_fail "QoS serve did not answer the whole burst"
    fi
    QOS_OUT+="$LINE"$'\n'
done
exec 7<&- 7>&-

echo "$QOS_OUT" | jq -es 'map(select(.id == "q-f1")) | first | .outcome | has("Ok")' > /dev/null \
    || qos_fail "the in-quota flood request must complete"
echo "$QOS_OUT" | jq -es 'map(select(.id == "q-calm")) | first | .outcome | has("Ok")' > /dev/null \
    || qos_fail "the calm tenant must complete despite the flood"
REJECTED_WIRE=$(echo "$QOS_OUT" | jq -es '
    [.[] | select(.outcome.Err.kind == "Overloaded")] | length')
echo "$QOS_OUT" | jq -es '
    [.[] | select(.outcome.Err.kind == "Overloaded")]
    | length >= 1 and all(.[]; .outcome.Err.retry_after_ms != null)' > /dev/null \
    || qos_fail "the over-quota burst must yield typed Overloaded envelopes with retry_after_ms"

# The disconnect flushes --stats; the flood tenant's standard-lane row
# must account the wire-visible rejections.
LEDGER_REJECTED=""
for _ in $(seq 1 100); do
    LEDGER_REJECTED=$(sed -n 's/.*tenant=flood lane=standard .*rejected=\([0-9]*\).*/\1/p' \
        "$SESS_DIR/err" | head -n 1)
    [ -n "$LEDGER_REJECTED" ] && break
    sleep 0.1
done
kill "$QOS_PID" 2> /dev/null || true
wait "$QOS_PID" 2> /dev/null || true
rm -rf "$SESS_DIR"
if [ "$LEDGER_REJECTED" != "$REJECTED_WIRE" ]; then
    echo "wire smoke FAILED: ledger rejected=$LEDGER_REJECTED but the wire saw $REJECTED_WIRE Overloaded replies" >&2
    exit 1
fi

echo "wire smoke OK: QoS overload burst ($REJECTED_WIRE typed Overloaded with retry hint, calm tenant unharmed, ledger matches)"
