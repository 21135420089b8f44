#!/usr/bin/env bash
# End-to-end wire smoke test: send the checked-in JSONL request file
# to chatpattern-serve over TCP and assert that (a) every reply line is
# valid JSON with a non-null id and an Ok/Err outcome, (b) the set
# of response ids exactly matches the set of request ids, a packed
# Legalize answers as its `bits` twin does, a malformed topology is
# a typed refusal, and the Stats request reads the connection
# counters: the one client peaked the gauge at 1, and a second
# connection sees the first one's close counted clean, a Generate
# reply's timing stages sum to its micros, (c) a
# burst of duplicate requests performs exactly one backend execution
# while still answering every id, (d) an interactive session
# round-trips (open, turns, close, typed error on the closed id),
# (e) with --session-dir capacity eviction spills (a format-3 file,
# topologies packed) and rehydrates (while a *closed* id stays
# SessionNotFound), (f) a session snapshot exported from one serve
# process (format 3 again) restores into another and the conversation
# continues (cross-process handoff), (g) a 2-worker
# router fleet routes a session, keeps no pin for an open a worker
# refused (its fleet view agrees with the workers' own session
# counts), survives draining its host worker
# (a live session move), answers an ill-typed and a packed line once each
# under their ids, sends a repeated keyed line to the worker that
# cached it, and aggregates fleet stats, and (h) a tenant that
# floods past its --tenant-quota collects typed Overloaded envelopes
# with a retry_after_ms hint while a calm tenant on the same server
# still completes, with the rejection counted in the per-tenant stats
# ledger. Every serve runs through `serve_start` (--listen on an
# OS-assigned port, one connection on fd 5), and every counter is read
# in-band, from a Stats reply, with jq. Run from anywhere; needs
# jq and built (or buildable) release binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${CHATPATTERN_SERVE:-target/release/chatpattern-serve}
ROUTER=${CHATPATTERN_ROUTER:-target/release/chatpattern-router}
IN=tests/data/smoke_requests.jsonl
SMALL=(--window 16 --training-patterns 8 --diffusion-steps 6)

if [ ! -x "$BIN" ]; then
    cargo build --release --bin chatpattern-serve
fi

WORK=$(mktemp -d)
SERVE_PID=""
ROUTER_PID=""
REPLY=""
cleanup() {
    for pid in $SERVE_PID $ROUTER_PID; do
        kill "$pid" 2> /dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "wire smoke FAILED: $1" >&2
    [ -z "$REPLY" ] || echo "reply was: $REPLY" >&2
    [ -z "$ROUTER_PID" ] || { echo "--- router stderr ---"; cat "$WORK/err"; } >&2
    exit 1
}

# Waits for NAME's `listening on HOST:PORT` line in $WORK/err, sets
# ADDR to it and connects fd 5 to it.
connect() {
    ADDR=""
    for _ in $(seq 1 300); do
        ADDR=$(sed -n "s/^$1: listening on //p" "$WORK/err" | head -n 1)
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || { cat "$WORK/err" >&2; fail "$1 never announced its address"; }
    exec 5<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"
}

# Starts serve with the given flags and connects fd 5 to it.
serve_start() {
    "$BIN" "$@" --listen 127.0.0.1:0 2> "$WORK/err" &
    SERVE_PID=$!
    connect chatpattern-serve
}

# Serve has no exit of its own: this is a crash (SIGKILL). The
# connection on fd 5 is closed first.
serve_kill() {
    exec 5<&- 5>&-
    kill -9 "$SERVE_PID" 2> /dev/null || true
    wait "$SERVE_PID" 2> /dev/null || true
    SERVE_PID=""
}

# Reads N reply lines from fd 5 into OUT.
recv() {
    OUT=""
    for _ in $(seq 1 "$1"); do
        IFS= read -t 120 -r LINE <&5 || fail "serve did not answer all $1 requests"
        OUT+="$LINE"$'\n'
    done
}

# One request, one reply (REPLY): the documented way to order session
# turns on the async wire (docs/SESSIONS.md). The read is bounded, so a
# hung serve fails this step with a diagnostic instead of stalling CI.
exchange() {
    printf '%s\n' "$1" >&5
    IFS= read -t 120 -r REPLY <&5 || { REPLY="(no reply within 120s)"; fail "no reply to: $1"; }
}

# Asks for the engine counters on fd 5; sets STATS to the Stats payload.
serve_stats() {
    exchange '{"id":"stats","request":"Stats"}'
    STATS=$(echo "$REPLY" | jq -ce '.outcome.Ok.payload.Stats') \
        || fail "the Stats request did not answer a Stats payload"
}

# Reads one counter off STATS: a jq filter under the Stats payload.
stat() {
    echo "$STATS" | jq -r ".$1"
}

# (a) every line parses with the envelope shape (jq aborts on bad JSON).
N_REQ=$(wc -l < "$IN" | tr -d ' ')
serve_start "${SMALL[@]}" --workers 4
cat "$IN" >&5
recv "$N_REQ"
# Read before fd 5 closes: this run's one client peaked the gauge at 1.
serve_stats
PEAK=$(stat connections_peak)
exec 5<&- 5>&-
# A second connection polls until the first one's close is counted: a
# client going away is a clean close.
exec 5<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"
for _ in $(seq 1 100); do
    serve_stats
    [ "$(stat disconnects_clean)" = 1 ] && break
    sleep 0.1
done
serve_kill
REPLY=""
echo "$OUT" | jq -es '
    all(.[]; (.id != null) and ((.outcome | has("Ok")) or (.outcome | has("Err"))))
' > /dev/null || fail "malformed response line"
# A Generate reply says where its micros went: `timing.stages`, one
# number a stage in the order of docs/WIRE_PROTOCOL.md, summing to
# `micros` exactly, its prediction (index 4, `predict_x0`) among them.
echo "$OUT" | jq -es '
    [.[] | select(.id == "r8") | .outcome.Ok.timing]
    | length == 1 and all(.[];
        (.stages | length) == 15 and .stages[4] > 0
        and (.stages | add) == .micros)
' > /dev/null || fail "a Generate reply's timing.stages do not sum to its micros: $(echo "$OUT" | grep '"r8"' | jq -c .outcome.Ok.timing)"

# (b) response ids are exactly the request ids (order-insensitive:
# out-of-order completion is allowed by the protocol).
WANT=$(jq -r '.id' "$IN" | sort)
GOT=$(echo "$OUT" | jq -r '.id' | sort)
if [ "$WANT" != "$GOT" ]; then
    diff <(echo "$WANT") <(echo "$GOT") >&2 || true
    fail "id mismatch"
fi

# The fixture spells one Legalize twice, r6 as `bits` and r10 packed:
# one request, so one payload. r11's `bits` is short of rows x cols:
# refused by the line decoder under its own id, not by a worker panic.
[ "$(echo "$OUT" | jq -c 'select(.id == "r10") | .outcome.Ok.payload')" = \
  "$(echo "$OUT" | jq -c 'select(.id == "r6") | .outcome.Ok.payload')" ] \
    && echo "$OUT" | jq -es 'any(.[]; .id == "r6" and (.outcome.Ok.payload | has("Legalize")))' > /dev/null \
    || fail "the packed Legalize (r10) and its bits twin (r6) disagree"
echo "$OUT" | jq -es 'any(.[]; .id == "r11" and .outcome.Err.kind == "InvalidRequest"
    and (.outcome.Err.message | contains("bits is not rows x cols long")))' > /dev/null \
    || fail "the short-bits Legalize (r11) is not a typed InvalidRequest"

[ "$PEAK $(stat disconnects_clean)" = "1 1" ] \
    || fail "Stats read connections_peak=$PEAK, then $STATS (want connections_peak=1, disconnects_clean=1)"

echo "wire smoke OK: $N_REQ responses, ids all matched, packed = bits, short bits refused, clean disconnect counted"

# (c) Coalescing burst: N identical requests under distinct ids must
# produce exactly one backend execution (cache_misses=1 for the single
# key — later duplicates either coalesce onto the in-flight execution
# or hit the result cache) and exactly N replies, one per id.
N=6
BURST=$(for i in $(seq 1 $N); do
    printf '{"id":"dup%d","request":{"Generate":{"style":"Layer10003","rows":16,"cols":16,"count":2,"seed":424242}}}\n' "$i"
done)
serve_start "${SMALL[@]}" --workers 4
echo "$BURST" >&5
recv "$N"
serve_stats
serve_kill
REPLY=""

REPLIES=$(echo "$OUT" | jq -r '.id' | sort)
WANT_IDS=$(echo "$BURST" | jq -r '.id' | sort)
if [ "$REPLIES" != "$WANT_IDS" ]; then
    diff <(echo "$WANT_IDS") <(echo "$REPLIES") >&2 || true
    fail "duplicate burst did not answer every id"
fi
echo "$OUT" | jq -es 'all(.[]; .outcome | has("Ok"))' > /dev/null \
    || fail "duplicate burst reply errored"

MISSES=$(stat cache_misses)
COALESCED=$(stat coalesced)
HITS=$(stat cache_hits)
[ "$MISSES" = "1" ] || fail "$N duplicate requests caused $MISSES executions (want 1)"
[ $((COALESCED + HITS)) -eq $((N - 1)) ] \
    || fail "coalesced=$COALESCED + cache_hits=$HITS != $((N - 1))"

echo "wire smoke OK: duplicate burst of $N → 1 execution ($COALESCED coalesced, $HITS cache hits), $N replies"

# (d) Session round-trip: open, two turns, close, then a turn on the
# closed id asserting the typed error envelope.
serve_start "${SMALL[@]}" --workers 2 --max-sessions 4 --session-ttl-secs 600

exchange '{"id":"s-open","request":{"SessionOpen":{"session":"smoke","seed":7}}}'
echo "$REPLY" | jq -e '.outcome | has("Ok")' > /dev/null || fail "session open errored"
exchange '{"id":"s-t1","request":{"SessionTurn":{"session":"smoke","utterance":"Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10001."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || fail "first turn did not report turn 1"
exchange '{"id":"s-t2","request":{"SessionTurn":{"session":"smoke","utterance":"Now make them denser."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || fail "follow-up turn did not report turn 2"
exchange '{"id":"s-close","request":{"SessionClose":{"session":"smoke"}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || fail "session close errored"
exchange '{"id":"s-late","request":{"SessionTurn":{"session":"smoke","utterance":"one more"}}}'
echo "$REPLY" | jq -e '.outcome.Err.kind == "SessionNotFound"' > /dev/null \
    || fail "turn on a closed session must yield the SessionNotFound envelope"

serve_stats
serve_kill
REPLY=""
[ "$(stat turns) $(stat sessions_open)" = "2 0" ] \
    || fail "session stats turns=$(stat turns) sessions_open=$(stat sessions_open) (want 2 and 0)"

echo "wire smoke OK: session round-trip (open, 2 turns, close, typed error on closed id)"

# (e) Durability: with --session-dir, capacity eviction *spills* —
# a turn on the evicted id rehydrates and succeeds — while an
# explicitly *closed* id stays a SessionNotFound envelope. The two
# cases were previously conflated; they pin different behaviors.
serve_start "${SMALL[@]}" --workers 2 --max-sessions 1 --session-ttl-secs 600 \
    --session-dir "$WORK/spill"

exchange '{"id":"d-open1","request":{"SessionOpen":{"session":"first","seed":7}}}'
echo "$REPLY" | jq -e '.outcome | has("Ok")' > /dev/null || fail "durable open errored"
exchange '{"id":"d-t1","request":{"SessionTurn":{"session":"first","utterance":"Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, style Layer-10001."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || fail "durable first turn failed"
# Capacity 1: this open evicts "first" — which must spill, not die.
exchange '{"id":"d-open2","request":{"SessionOpen":{"session":"second","seed":8}}}'
echo "$REPLY" | jq -e '.outcome | has("Ok")' > /dev/null || fail "second open errored"
# What now rests on disk is format 3: its topology packed, not `bits`.
SPILL_FILE=$(find "$WORK/spill" -name 'first.session.json')
{ grep -q '"format":3' "$SPILL_FILE" && grep -q '"packed":"' "$SPILL_FILE" \
    && ! grep -q '"bits"' "$SPILL_FILE"; } \
    || fail "the spilled file is not a packed format-3 snapshot"
exchange '{"id":"d-t2","request":{"SessionTurn":{"session":"first","utterance":"1 more pattern."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || fail "turn on the spilled (evicted) id must rehydrate and report turn 2"
exchange '{"id":"d-close","request":{"SessionClose":{"session":"first"}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || fail "close of the rehydrated session errored"
exchange '{"id":"d-late","request":{"SessionTurn":{"session":"first","utterance":"more"}}}'
echo "$REPLY" | jq -e '.outcome.Err.kind == "SessionNotFound"' > /dev/null \
    || fail "turn on an explicitly closed id must stay SessionNotFound"
exchange '{"id":"d-close2","request":{"SessionClose":{"session":"second"}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || fail "close of the second session errored"

serve_stats
serve_kill
REPLY=""
EVICTED=$(stat sessions_evicted)
SPILLED=$(stat sessions_spilled)
RESTORED=$(stat sessions_restored)
if [ "$EVICTED" != "0" ] || [ "$SPILLED" = "0" ] || [ "$RESTORED" = "0" ]; then
    fail "durable stats evicted=$EVICTED spilled=$SPILLED restored=$RESTORED (want 0, >0, >0)"
fi

echo "wire smoke OK: spill-on-evict rehydrates (spilled=$SPILLED restored=$RESTORED), closed id stays SessionNotFound"

# (f) Two-process handoff: snapshot a live session out of serve A,
# kill A (simulated crash), restore the snapshot into serve B and
# continue the conversation there.
serve_start "${SMALL[@]}" --workers 2 --seed 3

exchange '{"id":"h-open","request":{"SessionOpen":{"session":"hand","seed":7}}}'
echo "$REPLY" | jq -e '.outcome | has("Ok")' > /dev/null || fail "handoff open errored"
exchange '{"id":"h-t1","request":{"SessionTurn":{"session":"hand","utterance":"Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10003."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || fail "handoff first turn failed"
exchange '{"id":"h-snap","request":{"SessionSnapshot":{"session":"hand"}}}'
SNAPSHOT=$(echo "$REPLY" | jq -ce '.outcome.Ok.payload.SessionSnapshot') \
    || fail "snapshot export errored"
case "$SNAPSHOT" in
    *'"bits"'*) fail "the exported snapshot spells a topology as bits" ;;
    *'"packed":"'*'"format":3'*) ;;
    *) fail "the exported snapshot is not a packed format-3 snapshot" ;;
esac
serve_kill

# Serve B: same model configuration (snapshots carry session state,
# not the trained model), fresh process.
serve_start "${SMALL[@]}" --workers 2 --seed 3

exchange "$(jq -cn --argjson snap "$SNAPSHOT" '{id:"h-restore",request:{SessionRestore:{snapshot:$snap}}}')"
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionRestore.session == "hand"' > /dev/null \
    || fail "snapshot restore into serve B errored"
exchange '{"id":"h-t2","request":{"SessionTurn":{"session":"hand","utterance":"1 more pattern."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || fail "restored session must continue at turn 2 in serve B"
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.library | length == 3' > /dev/null \
    || fail "restored session must keep the donor's library (2 + 1 patterns)"
exchange '{"id":"h-close","request":{"SessionClose":{"session":"hand"}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || fail "handoff close errored"

serve_kill
REPLY=""

echo "wire smoke OK: two-process handoff (snapshot from A, crash, restore into B, conversation continues)"

# (g) Router fleet: 2 spawned workers behind one address. A session is
# pinned to one worker by the stable routing hash; draining that
# worker live-migrates it (snapshot → restore → re-route) and the
# conversation continues with zero SessionNotFound. The fleet Stats
# view aggregates both workers.
if [ ! -x "$ROUTER" ]; then
    cargo build --release --bin chatpattern-router
fi

"$ROUTER" --listen 127.0.0.1:0 --workers 2 --serve-bin "$BIN" \
    --serve-arg --window --serve-arg 16 \
    --serve-arg --training-patterns --serve-arg 8 \
    --serve-arg --diffusion-steps --serve-arg 6 \
    --serve-arg --workers --serve-arg 2 \
    --serve-arg --seed --serve-arg 3 \
    2> "$WORK/err" &
ROUTER_PID=$!
connect chatpattern-router

exchange '{"id":"f-open","request":{"SessionOpen":{"session":"fleet-smoke","seed":7}}}'
echo "$REPLY" | jq -e '.outcome | has("Ok")' > /dev/null \
    || fail "fleet session open errored"
exchange '{"id":"f-t1","request":{"SessionTurn":{"session":"fleet-smoke","utterance":"Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10001."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 1' > /dev/null \
    || fail "fleet first turn did not report turn 1"

# A repeated keyed line finds the worker that cached it: the router
# places it by the hash of its text, so one Legalize sent twice in
# sequence costs the fleet exactly one cache miss and the second answer
# is a hit. (Before the drain below, while both workers take new work.)
serve_stats
MISSES_BEFORE=$(stat cache_misses)
HITS_BEFORE=$(stat cache_hits)
REPEAT='{"id":"f-again","request":{"Legalize":{"topology":{"rows":4,"cols":4,"bits":[1,1,0,0,1,1,0,0,0,0,1,1,0,0,1,1]},"width_nm":2048,"height_nm":2048,"seed":11}}}'
exchange "$REPEAT"
echo "$REPLY" | jq -e '.outcome.Ok.payload | has("Legalize")' > /dev/null \
    || fail "the keyed Legalize errored"
exchange "$REPEAT"
serve_stats
MISSES=$(( $(stat cache_misses) - MISSES_BEFORE ))
HITS=$(( $(stat cache_hits) - HITS_BEFORE ))
[ "$MISSES" -eq 1 ] && [ "$HITS" -ge 1 ] \
    || fail "one keyed line sent twice through the fleet cost $MISSES misses and $HITS hits (want 1 miss, at least 1 hit)"

# A refused open leaves no pin behind: every worker's `sessions` in the
# fleet view is what the worker itself counts open.
LONG_ID=$(head -c 240 /dev/zero | tr '\0' x)
exchange "{\"id\":\"f-long\",\"request\":{\"SessionOpen\":{\"session\":\"$LONG_ID\",\"seed\":7}}}"
echo "$REPLY" | jq -e '.outcome.Err.kind == "InvalidRequest"' > /dev/null \
    || fail "an open with a 240-byte session id must be refused"

exchange '{"id":"f-fleet","control":"Fleet"}'
echo "$REPLY" | jq -e 'all(.control.Fleet.workers[]; .sessions == .stats.sessions_open)' > /dev/null \
    || fail "the fleet view's sessions disagree with its workers' sessions_open"
HOST_WORKER=$(echo "$REPLY" \
    | jq -e '[.control.Fleet.workers[] | select(.sessions == 1)][0].index') \
    || fail "fleet view did not show the session pinned to one worker"

exchange "{\"id\":\"f-drain\",\"control\":{\"Drain\":{\"worker\":$HOST_WORKER}}}"
echo "$REPLY" | jq -e '.control.Drained.moved == 1' > /dev/null \
    || fail "draining worker $HOST_WORKER did not move the session"

exchange '{"id":"f-t2","request":{"SessionTurn":{"session":"fleet-smoke","utterance":"1 more pattern."}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload.SessionTurn.turn == 2' > /dev/null \
    || fail "the migrated session must continue at turn 2 (zero SessionNotFound)"
exchange '{"id":"f-close","request":{"SessionClose":{"session":"fleet-smoke"}}}'
echo "$REPLY" | jq -e '.outcome.Ok.payload | has("SessionClose")' > /dev/null \
    || fail "fleet session close errored"

# The router passes a request's text on unread: what is wrong with it
# is the worker's to say, under the client's id, and a topology the
# client packed goes through as packed. Two lines in, two replies out —
# the `Stats` exchange after them must read its own reply, not a third.
printf '%s\n' \
    '{"id":"f-ill","request":{"Legalize":{"topology":{"rows":4,"cols":4,"bits":[1,1,0]},"width_nm":2048,"height_nm":2048,"seed":1}}}' \
    '{"id":"f-packed","request":{"Legalize":{"topology":{"rows":3,"cols":6,"packed":"f8cc84"},"width_nm":2048,"height_nm":2048,"seed":1}}}' >&5
recv 2
REPLY=$OUT
echo "$OUT" | jq -es '
    (map(.id) | sort) == ["f-ill", "f-packed"]
    and any(.[]; .id == "f-ill" and .outcome.Err.kind == "InvalidRequest"
        and (.outcome.Err.message | contains("bits is not rows x cols long")))
    and any(.[]; .id == "f-packed" and (.outcome.Ok.payload | has("Legalize")))' > /dev/null \
    || fail "an ill-typed line must be the worker's typed refusal and a packed one served, each id once"

exchange '{"id":"f-stats","request":"Stats"}'
echo "$REPLY" | jq -e '.id == "f-stats"' > /dev/null \
    || fail "a reply nobody asked for came ahead of the Stats reply"
echo "$REPLY" | jq -e '.outcome.Ok.payload.Stats.turns == 2' > /dev/null \
    || fail "fleet Stats must aggregate both workers (want turns=2)"
echo "$REPLY" | jq -e '.outcome.Ok.payload.Stats.queue_depths | length == 2' > /dev/null \
    || fail "fleet Stats must report one queue per worker"

exchange '{"id":"f-bye","control":"Shutdown"}'
echo "$REPLY" | jq -e '.control == "ShuttingDown"' > /dev/null \
    || fail "router shutdown control errored"
exec 5<&- 5>&-
wait "$ROUTER_PID" || fail "router exited non-zero"
ROUTER_PID=""
REPLY=""

echo "wire smoke OK: router fleet (pin, no pin for a refused open, drain, live migration, refusal and packed line pass through, a repeated keyed line hits its worker's cache, aggregated stats, shutdown)"

# (h) QoS overload burst: tenant "flood" has an in-flight quota of 1.
# A pipelined burst holds the quota with one slow request, so the
# follow-ups must be answered immediately with the typed Overloaded
# envelope (retry_after_ms present) — while tenant "calm" on the same
# server completes untouched, and the per-tenant stats ledger counts
# the rejections.
serve_start "${SMALL[@]}" --workers 2 --seed 3 \
    --tenant-quota flood:inflight=1 --cache-capacity 0
# q-f1 is deliberately heavy (count=512, ≈ 25 ms) so it holds flood's
# single in-flight slot while the rest of the burst is read — at
# count=16 it ran 0.8 ms, and on a busy 2-CPU host the loop thread was
# off the CPU that long one run in five; distinct seeds keep the
# requests out of the coalescer.
printf '%s\n' \
    '{"id":"q-f1","tenant":"flood","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":512,"seed":90001}}}' \
    '{"id":"q-f2","tenant":"flood","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":1,"seed":90002}}}' \
    '{"id":"q-f3","tenant":"flood","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":1,"seed":90003}}}' \
    '{"id":"q-calm","tenant":"calm","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":1,"seed":90004}}}' >&5
recv 4
serve_stats
serve_kill
REPLY=$OUT

echo "$OUT" | jq -es 'map(select(.id == "q-f1")) | first | .outcome | has("Ok")' > /dev/null \
    || fail "the in-quota flood request must complete"
echo "$OUT" | jq -es 'map(select(.id == "q-calm")) | first | .outcome | has("Ok")' > /dev/null \
    || fail "the calm tenant must complete despite the flood"
REJECTED_WIRE=$(echo "$OUT" | jq -es '
    [.[] | select(.outcome.Err.kind == "Overloaded")] | length')
echo "$OUT" | jq -es '
    [.[] | select(.outcome.Err.kind == "Overloaded")]
    | length >= 1 and all(.[]; .outcome.Err.retry_after_ms != null)' > /dev/null \
    || fail "the over-quota burst must yield typed Overloaded envelopes with retry_after_ms"

# The flood tenant's standard-lane row in the Stats reply must account
# the wire-visible rejections.
LEDGER_REJECTED=$(stat 'tenants[] | select(.tenant == "flood" and .lane == "standard") | .rejected')
[ "$LEDGER_REJECTED" = "$REJECTED_WIRE" ] \
    || fail "ledger rejected=$LEDGER_REJECTED but the wire saw $REJECTED_WIRE Overloaded replies"

echo "wire smoke OK: QoS overload burst ($REJECTED_WIRE typed Overloaded with retry hint, calm tenant unharmed, ledger matches)"
