#!/usr/bin/env bash
# End-to-end smoke test of the trajdp service layer, driving the real
# binary over TCP: serve in the background, chunked `submit --file
# --data`, poll `status`, `fetch` the stored result, and diff it against
# the inline CLI output. Then exercise the storage lifecycle at the
# dataset cap (LRU eviction, `delete` freeing a slot, re-upload),
# restart the server on the same --state-dir and check that the
# compacted journal still resolves the finished job and its stored
# result; delete that result, restart once more, and check that its id
# is not reissued to fresh uploads. A hostile 20 KB line of nested brackets must get an error
# answer and leave the server up. A two-tenant phase spends a dataset's ε budget to the
# brim, kills the server, and proves the replayed ledger still refuses
# further spend. A last phase reads a result over 1 MiB back from the
# journal before and after a kill. A state-dir phase deletes a charged dataset, survives a
# kill -9, and checks that the journal alone decides what comes back: the deleted handle
# stays gone, ids move on, `datasets/` holds only blobs, and a state dir an older server
# wrote is refused. Exercises the code paths `cargo test` cannot: the
# actual process boundary, CLI flag plumbing, and journal
# replay/compaction across a process death.
#
# Usage: scripts/smoke.sh   (expects target/release/trajdp to exist)
set -euo pipefail

BIN=${BIN:-target/release/trajdp}
ADDR=${ADDR:-127.0.0.1:7943}
ADDR2=${ADDR2:-127.0.0.1:7944} # restart on a fresh port: no TIME_WAIT races
ADDR3=${ADDR3:-127.0.0.1:7945} # tenancy phase
ADDR4=${ADDR4:-127.0.0.1:7946} # tenancy phase, after the kill
ADDR5=${ADDR5:-127.0.0.1:7947} # second restart of the first state dir
ADDR6=${ADDR6:-127.0.0.1:7948} # large-result phase
ADDR7=${ADDR7:-127.0.0.1:7949} # large-result phase, after the kill
ADDR8=${ADDR8:-127.0.0.1:7950} # state-dir phase
ADDR9=${ADDR9:-127.0.0.1:7951} # state-dir phase, after the kill -9
ADDR10=${ADDR10:-127.0.0.1:7952} # state-dir phase, an older server's dir
TMP=$(mktemp -d)
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

wait_healthy() {
    for _ in $(seq 1 100); do
        if echo '{"cmd":"health"}' | "$BIN" submit --addr "$1" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: server at $1 never became healthy" >&2
    exit 1
}

# Reference: the offline CLI pipeline.
"$BIN" gen --size 40 --len 60 --seed 7 --out "$TMP/private.csv"
"$BIN" anonymize --model gl --m 4 --seed 9 --input "$TMP/private.csv" \
    --out "$TMP/inline.csv"

# A tiny --max-datasets cap so the lifecycle phase below can hit it with
# a handful of uploads.
"$BIN" serve --addr "$ADDR" --workers 2 --state-dir "$TMP/state" \
    --max-datasets 4 &
SERVER_PID=$!
wait_healthy "$ADDR"

# Async anonymize with the dataset spliced in from --data; the tiny
# --chunk-threshold forces the upload/chunk/commit path, and store:true
# keeps the release server-side for a chunked fetch.
printf '%s\n' '{"cmd":"anonymize","model":"gl","m":4,"seed":9,"async":true,"store":true}' \
    > "$TMP/req.json"
RESP=$("$BIN" submit --addr "$ADDR" --file "$TMP/req.json" \
    --data "$TMP/private.csv" --chunk-threshold 1000)
JOB=$(printf '%s' "$RESP" | grep -o '"job":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$JOB" ] || { echo "FAIL: no job id in: $RESP" >&2; exit 1; }

# Journal-by-handle: the submit event must reference the uploaded
# handle, not re-record the multi-KB CSV text.
grep -q '"dataset":"ds-1"' "$TMP/state/jobs.jsonl" \
    || { echo "FAIL: submit event does not journal the dataset handle" >&2; exit 1; }
JOURNAL_BYTES=$(wc -c < "$TMP/state/jobs.jsonl")
CSV_BYTES=$(wc -c < "$TMP/private.csv")
[ "$JOURNAL_BYTES" -lt "$CSV_BYTES" ] \
    || { echo "FAIL: journal ($JOURNAL_BYTES B) re-records the CSV ($CSV_BYTES B)" >&2; exit 1; }

STATUS=""
for i in $(seq 1 600); do
    STATUS=$(echo "{\"cmd\":\"status\",\"job\":\"$JOB\"}" | "$BIN" submit --addr "$ADDR")
    STATE=$(printf '%s' "$STATUS" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)
    [ "$STATE" = done ] && break
    [ "$i" = 600 ] && { echo "FAIL: job never finished: $STATUS" >&2; exit 1; }
    sleep 0.1
done
DS=$(printf '%s' "$STATUS" | grep -o '"dataset":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$DS" ] || { echo "FAIL: no result dataset in: $STATUS" >&2; exit 1; }

"$BIN" fetch --addr "$ADDR" --dataset "$DS" --out "$TMP/remote.csv"
cmp "$TMP/inline.csv" "$TMP/remote.csv" \
    || { echo "FAIL: chunked service output differs from inline CLI output" >&2; exit 1; }

# ---- storage lifecycle at the cap -----------------------------------
# State: ds-1 (input upload, cold) + $DS (result, warm from the fetch).
# Fill the two remaining slots with pending uploads.
P3=$(echo '{"cmd":"upload"}' | "$BIN" submit --addr "$ADDR" \
    | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
P4=$(echo '{"cmd":"upload"}' | "$BIN" submit --addr "$ADDR" \
    | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
[ -n "$P3" ] && [ -n "$P4" ] || { echo "FAIL: uploads below the cap must succeed" >&2; exit 1; }

# At the cap, the next upload evicts the LRU unpinned committed handle —
# the cold input ds-1 — and succeeds; the warm result survives.
EVICT=$(echo '{"cmd":"upload"}' | "$BIN" submit --addr "$ADDR")
printf '%s' "$EVICT" | grep -q '"ok":true' \
    || { echo "FAIL: upload at the cap must LRU-evict and succeed: $EVICT" >&2; exit 1; }
GONE=$(echo '{"cmd":"download","dataset":"ds-1"}' | "$BIN" submit --addr "$ADDR")
printf '%s' "$GONE" | grep -q 'unknown dataset' \
    || { echo "FAIL: cold input should have been evicted: $GONE" >&2; exit 1; }

# `delete` frees a slot explicitly: abort one pending upload, and the
# next upload succeeds without evicting anything committed.
echo "{\"cmd\":\"delete\",\"dataset\":\"$P3\"}" | "$BIN" submit --addr "$ADDR" \
    | grep -q '"ok":true' || { echo "FAIL: delete of a pending upload refused" >&2; exit 1; }
echo '{"cmd":"upload"}' | "$BIN" submit --addr "$ADDR" | grep -q '"ok":true' \
    || { echo "FAIL: upload after delete must reuse the freed slot" >&2; exit 1; }
"$BIN" fetch --addr "$ADDR" --dataset "$DS" --out "$TMP/survivor.csv"
cmp "$TMP/inline.csv" "$TMP/survivor.csv" \
    || { echo "FAIL: stored result was disturbed by the lifecycle churn" >&2; exit 1; }

# ---- restart: compaction + replay -----------------------------------
# Kill the server and restart on the same state dir: startup compacts
# the journal to snapshot form, the finished job must still resolve and
# the persisted result must still fetch byte-identically.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" serve --addr "$ADDR2" --workers 2 --state-dir "$TMP/state" \
    --max-datasets 4 &
SERVER_PID=$!
wait_healthy "$ADDR2"

grep -q '"event":"snapshot"' "$TMP/state/jobs.jsonl" \
    || { echo "FAIL: restart did not compact the journal" >&2; exit 1; }
grep -q '"event":"finish"' "$TMP/state/jobs.jsonl" \
    && { echo "FAIL: compacted journal still carries raw finish events" >&2; exit 1; }

STATUS=$(echo "{\"cmd\":\"status\",\"job\":\"$JOB\"}" | "$BIN" submit --addr "$ADDR2")
printf '%s' "$STATUS" | grep -q '"state":"done"' \
    || { echo "FAIL: replayed status wrong: $STATUS" >&2; exit 1; }
"$BIN" fetch --addr "$ADDR2" --dataset "$DS" --out "$TMP/remote2.csv"
cmp "$TMP/inline.csv" "$TMP/remote2.csv" \
    || { echo "FAIL: restarted server serves different bytes" >&2; exit 1; }
"$BIN" delete --addr "$ADDR2" --dataset "$DS" \
    || { echo "FAIL: delete CLI verb failed on the restarted server" >&2; exit 1; }

# ---- second restart: a deleted result's id is never reissued --------
# $DS is gone but job $JOB's retained record still names it. After a
# real process death, fresh uploads must take other ids, `status` must
# still name $DS, and `download` must still report it unknown.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" serve --addr "$ADDR5" --workers 2 --state-dir "$TMP/state" \
    --max-datasets 4 &
SERVER_PID=$!
wait_healthy "$ADDR5"
for _ in 1 2; do
    FRESH=$(echo '{"cmd":"upload"}' | "$BIN" submit --addr "$ADDR5" \
        | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
    [ -n "$FRESH" ] && [ "$FRESH" != "$DS" ] \
        || { echo "FAIL: the restart reissued $DS to a fresh upload (got '$FRESH')" >&2; exit 1; }
done
STATUS=$(echo "{\"cmd\":\"status\",\"job\":\"$JOB\"}" | "$BIN" submit --addr "$ADDR5")
printf '%s' "$STATUS" | grep -q "\"dataset\":\"$DS\"" \
    || { echo "FAIL: status of $JOB must still name $DS: $STATUS" >&2; exit 1; }
GONE=$(echo "{\"cmd\":\"download\",\"dataset\":\"$DS\",\"v\":2}" | "$BIN" submit --addr "$ADDR5")
printf '%s' "$GONE" | grep -q '"code":"dataset-not-found"' \
    || { echo "FAIL: deleted result $DS must stay unknown: $GONE" >&2; exit 1; }

# ---- protocol v2: envelope, id echo, stable error codes -------------
V2OK=$(echo '{"cmd":"health","v":2,"id":"smoke-1"}' | "$BIN" submit --addr "$ADDR5")
printf '%s' "$V2OK" | grep -q '"id":"smoke-1"' && printf '%s' "$V2OK" | grep -q '"ok":true' \
    || { echo "FAIL: v2 success must echo the id: $V2OK" >&2; exit 1; }
V2MISS=$(echo '{"cmd":"download","dataset":"ds-404","v":2,"id":"smoke-2"}' \
    | "$BIN" submit --addr "$ADDR5")
printf '%s' "$V2MISS" | grep -q '"code":"dataset-not-found"' \
    && printf '%s' "$V2MISS" | grep -q '"id":"smoke-2"' \
    || { echo "FAIL: v2 error must carry code + id: $V2MISS" >&2; exit 1; }
V2VERB=$(echo '{"cmd":"bogus","v":2,"id":"smoke-3"}' | "$BIN" submit --addr "$ADDR5")
printf '%s' "$V2VERB" | grep -q '"code":"unknown-verb"' \
    || { echo "FAIL: unknown verb must code unknown-verb: $V2VERB" >&2; exit 1; }
# The same failure without "v":2 keeps the bare v1 string shape.
V1MISS=$(echo '{"cmd":"download","dataset":"ds-404"}' | "$BIN" submit --addr "$ADDR5")
printf '%s' "$V1MISS" | grep -q '"error":"unknown dataset' \
    || { echo "FAIL: v1 error shape changed: $V1MISS" >&2; exit 1; }

# ---- info: discoverable caps drive the download chunk size ----------
INFO=$("$BIN" info --addr "$ADDR5")
MAXCHUNK=$(printf '%s\n' "$INFO" | grep '^max_download_chunk_bytes=' | cut -d= -f2)
DEFCHUNK=$(printf '%s\n' "$INFO" | grep '^default_download_chunk_bytes=' | cut -d= -f2)
printf '%s\n' "$INFO" | grep -q '^protocol_versions=1,2$' \
    || { echo "FAIL: info must report protocol versions 1,2: $INFO" >&2; exit 1; }
[ -n "$MAXCHUNK" ] && [ -n "$DEFCHUNK" ] && [ "$MAXCHUNK" -ge "$DEFCHUNK" ] \
    || { echo "FAIL: info must report usable chunk caps: $INFO" >&2; exit 1; }
# A fresh upload, then a download sized by the info-reported cap.
DS2=$(echo '{"cmd":"upload","v":2,"id":"smoke-4"}' | "$BIN" submit --addr "$ADDR5" \
    | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
echo "{\"cmd\":\"chunk\",\"dataset\":\"$DS2\",\"data\":\"traj_id,x,y,t\\n\",\"v\":2,\"id\":\"smoke-5\"}" \
    | "$BIN" submit --addr "$ADDR5" | grep -q '"ok":true' \
    || { echo "FAIL: v2 chunk refused" >&2; exit 1; }
echo "{\"cmd\":\"commit\",\"dataset\":\"$DS2\",\"v\":2,\"id\":\"smoke-6\"}" \
    | "$BIN" submit --addr "$ADDR5" | grep -q '"ok":true' \
    || { echo "FAIL: v2 commit refused" >&2; exit 1; }
V2DL=$(echo "{\"cmd\":\"download\",\"dataset\":\"$DS2\",\"max_bytes\":$MAXCHUNK,\"v\":2,\"id\":\"smoke-7\"}" \
    | "$BIN" submit --addr "$ADDR5")
printf '%s' "$V2DL" | grep -q '"eof":true' && printf '%s' "$V2DL" | grep -q '"id":"smoke-7"' \
    || { echo "FAIL: info-cap-sized download failed: $V2DL" >&2; exit 1; }

# ---- metrics: the v2 session above must be visible in the scrape ----
METRICS=$("$BIN" metrics --addr "$ADDR5")
printf '%s\n' "$METRICS" | grep -q '^trajdp_uptime_seconds ' \
    || { echo "FAIL: metrics must report uptime: $METRICS" >&2; exit 1; }
HEALTHN=$(printf '%s\n' "$METRICS" | grep '^trajdp_requests_total{verb="health"}' \
    | grep -o '[0-9]*$')
[ -n "$HEALTHN" ] && [ "$HEALTHN" -ge 1 ] \
    || { echo "FAIL: health requests of this session must be counted" >&2; exit 1; }
NOTFOUND=$(printf '%s\n' "$METRICS" | grep '^trajdp_errors_total{code="dataset-not-found"}' \
    | grep -o '[0-9]*$')
# smoke-2 and the v1 replay of the same failure each hit this code.
[ -n "$NOTFOUND" ] && [ "$NOTFOUND" -ge 2 ] \
    || { echo "FAIL: dataset-not-found rejections must be counted (got ${NOTFOUND:-none})" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep '^trajdp_errors_total{code="unknown-verb"}' \
    | grep -q ' [1-9]' || { echo "FAIL: unknown-verb rejection must be counted" >&2; exit 1; }
# Every family of PROTOCOL.md's table is in the shipped binary's scrape,
# except those labelled by tenant or dataset (this server has neither
# rows yet). A histogram shows up as <family>_bucket.
FAMILIES=$(grep '^| `trajdp_' "$(dirname "$0")/../PROTOCOL.md" \
    | grep -v 'labelled by `tenant`\|labelled by `dataset`' \
    | awk -F'`' '{ print ($0 ~ /\| histogram \|/) ? $2 "_bucket" : $2 }')
[ "$(printf '%s\n' "$FAMILIES" | wc -l)" -ge 20 ] \
    || { echo "FAIL: PROTOCOL.md metric-family table not found" >&2; exit 1; }
for family in $FAMILIES; do
    printf '%s\n' "$METRICS" | grep -q "^$family[{ ]" \
        || { echo "FAIL: scrape lacks documented family $family" >&2; exit 1; }
done
# The JSON exposition parses and carries the same sections.
"$BIN" metrics --addr "$ADDR5" --json | grep -q '"requests":' \
    || { echo "FAIL: metrics --json must emit the wire shape" >&2; exit 1; }

# ---- parallel burst: the reactor serves concurrent clients ----------
# A thread-per-connection server with a small worker cap serializes (or
# refuses) this; the readiness loop must answer every one.
BURST=24
: > "$TMP/burst.out"
BURST_PIDS=""
for _ in $(seq 1 "$BURST"); do
    ( echo '{"cmd":"health"}' | "$BIN" submit --addr "$ADDR5" >> "$TMP/burst.out" 2>&1 ) &
    BURST_PIDS="$BURST_PIDS $!"
done
for pid in $BURST_PIDS; do
    wait "$pid" || { echo "FAIL: a burst client exited non-zero" >&2; exit 1; }
done
OKS=$(grep -c '"ok":true' "$TMP/burst.out" || true)
[ "$OKS" = "$BURST" ] \
    || { echo "FAIL: only $OKS/$BURST burst clients got a healthy answer" >&2; exit 1; }

# ---- CLI exit-code classes ------------------------------------------
rc=0; "$BIN" delete --addr "$ADDR5" --dataset ds-nope 2>/dev/null || rc=$?
[ "$rc" = 4 ] || { echo "FAIL: server-rejected request must exit 4 (got $rc)" >&2; exit 1; }
rc=0; "$BIN" fetch --addr 127.0.0.1:1 --dataset ds-1 --out "$TMP/none.csv" 2>/dev/null || rc=$?
[ "$rc" = 3 ] || { echo "FAIL: connection failure must exit 3 (got $rc)" >&2; exit 1; }
rc=0; "$BIN" gen --sizee 5 --out "$TMP/x.csv" 2>/dev/null || rc=$?
[ "$rc" = 2 ] || { echo "FAIL: usage error must exit 2 (got $rc)" >&2; exit 1; }
rc=0; "$BIN" stats --input "$TMP/definitely-missing.csv" 2>/dev/null || rc=$?
[ "$rc" = 1 ] || { echo "FAIL: local failure must exit 1 (got $rc)" >&2; exit 1; }

# ---- hostile input: a deeply nested line ----------------------------
# 10,000 `[` then 10,000 `]` on one 20 KB line. The JSON parser bounds
# its nesting depth, so this is one error answer rather than a stack
# overflow that aborts the server; `health` must still answer on a new
# connection afterwards.
NESTED="$(head -c 10000 /dev/zero | tr '\0' '[')$(head -c 10000 /dev/zero | tr '\0' ']')"
DEEP=$(printf '%s\n' "$NESTED" | "$BIN" submit --addr "$ADDR5" || true)
printf '%s' "$DEEP" | grep -q '"ok":false' \
    || { echo "FAIL: a deeply nested line must get an error answer: $DEEP" >&2; exit 1; }
echo '{"cmd":"health"}' | "$BIN" submit --addr "$ADDR5" | grep -q '"ok":true' \
    || { echo "FAIL: the server must survive a deeply nested line" >&2; exit 1; }

# ---- tenancy + ε ledger: spend survives a kill ----------------------
# Two tenants and a per-dataset ε budget of 0.5. acme spends its
# dataset to exactly the budget, the server dies, and the restarted
# process must still refuse further spend — the ledger replays from
# the journal bit-for-bit. globex's own dataset is untouched.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
printf '# smoke registry\nacme:sesame\nglobex:gx-token\n' > "$TMP/tenants.txt"
"$BIN" serve --addr "$ADDR3" --workers 2 --state-dir "$TMP/tstate" \
    --tenants "$TMP/tenants.txt" --eps-budget 0.5 &
SERVER_PID=$!
wait_healthy "$ADDR3"

BADTOK=$(echo '{"cmd":"health","v":2,"id":"smoke-t1","tenant":"acme:nope"}' \
    | "$BIN" submit --addr "$ADDR3")
printf '%s' "$BADTOK" | grep -q '"code":"tenant-unknown"' \
    || { echo "FAIL: bad token must code tenant-unknown: $BADTOK" >&2; exit 1; }

ADS=$(echo '{"cmd":"gen","size":6,"len":30,"seed":11,"store":true,"v":2,"tenant":"acme:sesame"}' \
    | "$BIN" submit --addr "$ADDR3" | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
GDS=$(echo '{"cmd":"gen","size":6,"len":30,"seed":12,"store":true,"v":2,"tenant":"globex:gx-token"}' \
    | "$BIN" submit --addr "$ADDR3" | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
[ -n "$ADS" ] && [ -n "$GDS" ] || { echo "FAIL: tenant gen-store uploads failed" >&2; exit 1; }

echo "{\"cmd\":\"anonymize\",\"dataset\":\"$ADS\",\"model\":\"gl\",\"m\":4,\"seed\":9,\"epsilon\":0.5,\"v\":2,\"tenant\":\"acme:sesame\"}" \
    | "$BIN" submit --addr "$ADDR3" | grep -q '"ok":true' \
    || { echo "FAIL: in-budget anonymize refused" >&2; exit 1; }
OVER=$(echo "{\"cmd\":\"anonymize\",\"dataset\":\"$ADS\",\"model\":\"gl\",\"m\":4,\"seed\":9,\"epsilon\":0.25,\"v\":2,\"id\":\"smoke-t2\",\"tenant\":\"acme:sesame\"}" \
    | "$BIN" submit --addr "$ADDR3")
printf '%s' "$OVER" | grep -q '"code":"budget-exhausted"' \
    || { echo "FAIL: over-budget spend must be refused: $OVER" >&2; exit 1; }
echo "{\"cmd\":\"anonymize\",\"dataset\":\"$GDS\",\"model\":\"gl\",\"m\":4,\"seed\":9,\"epsilon\":0.25,\"v\":2,\"tenant\":\"globex:gx-token\"}" \
    | "$BIN" submit --addr "$ADDR3" | grep -q '"ok":true' \
    || { echo "FAIL: second tenant must be unaffected by acme's exhaustion" >&2; exit 1; }
grep -q '"event":"spend"' "$TMP/tstate/jobs.jsonl" \
    || { echo "FAIL: ε spend must be journaled" >&2; exit 1; }

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" serve --addr "$ADDR4" --workers 2 --state-dir "$TMP/tstate" \
    --tenants "$TMP/tenants.txt" --eps-budget 0.5 &
SERVER_PID=$!
wait_healthy "$ADDR4"

LISTED=$(echo '{"cmd":"list","v":2,"id":"smoke-t3","tenant":"acme:sesame"}' \
    | "$BIN" submit --addr "$ADDR4")
printf '%s' "$LISTED" | grep -q '"eps_spent":0.5' \
    || { echo "FAIL: replayed ledger must report the exact spend: $LISTED" >&2; exit 1; }
# The credential must never round-trip into any response.
printf '%s' "$LISTED" | grep -q 'sesame' \
    && { echo "FAIL: responses must never echo tenant tokens: $LISTED" >&2; exit 1; }
STILL=$(echo "{\"cmd\":\"anonymize\",\"dataset\":\"$ADS\",\"model\":\"gl\",\"m\":4,\"seed\":9,\"epsilon\":0.25,\"v\":2,\"id\":\"smoke-t4\",\"tenant\":\"acme:sesame\"}" \
    | "$BIN" submit --addr "$ADDR4")
printf '%s' "$STILL" | grep -q '"code":"budget-exhausted"' \
    || { echo "FAIL: ε spend must survive the restart: $STILL" >&2; exit 1; }

# ---- large results: read back from the journal across a kill -------
# An inline (store:false) result over 1 MiB is kept out of the job
# table and read back from its journal line. Its `status` must match
# the offline CLI release byte for byte, before and after a kill +
# restart, and nothing may be written beside the journal.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" gen --size 200 --len 200 --seed 5 --out "$TMP/big.csv"
"$BIN" anonymize --model gl --m 4 --seed 9 --input "$TMP/big.csv" --out "$TMP/big-inline.csv"
[ "$(wc -c < "$TMP/big-inline.csv")" -gt 1048576 ] \
    || { echo "FAIL: the large-result release must exceed 1 MiB" >&2; exit 1; }
"$BIN" serve --addr "$ADDR6" --workers 2 --state-dir "$TMP/bstate" &
SERVER_PID=$!
wait_healthy "$ADDR6"
printf '%s\n' '{"cmd":"anonymize","model":"gl","m":4,"seed":9,"async":true,"store":false}' \
    > "$TMP/big-req.json"
RESP=$("$BIN" submit --addr "$ADDR6" --file "$TMP/big-req.json" --data "$TMP/big.csv")
BIGJOB=$(printf '%s' "$RESP" | grep -o '"job":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$BIGJOB" ] || { echo "FAIL: no job id in: $RESP" >&2; exit 1; }

# Polls $BIGJOB at $1 until done and checks its csv member against the
# offline release; the member's only escapes are the CSV's newlines.
check_big_status() {
    for i in $(seq 1 600); do
        echo "{\"cmd\":\"status\",\"job\":\"$BIGJOB\"}" | "$BIN" submit --addr "$1" \
            > "$TMP/big-status.json"
        grep -q '"state":"done"' "$TMP/big-status.json" && break
        [ "$i" = 600 ] && { echo "FAIL: large job never finished" >&2; exit 1; }
        sleep 0.1
    done
    grep -o '"csv":"[^"]*"' "$TMP/big-status.json" \
        | sed -e 's/^"csv":"//' -e 's/"$//' -e 's/\\n/\n/g' | head -c -1 > "$TMP/big-remote.csv"
    cmp "$TMP/big-inline.csv" "$TMP/big-remote.csv" \
        || { echo "FAIL: large result at $1 differs from the CLI release" >&2; exit 1; }
}
check_big_status "$ADDR6"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" serve --addr "$ADDR7" --workers 2 --state-dir "$TMP/bstate" &
SERVER_PID=$!
wait_healthy "$ADDR7"
check_big_status "$ADDR7"
[ ! -e "$TMP/bstate/results" ] \
    || { echo "FAIL: the server wrote a results/ directory beside the journal" >&2; exit 1; }

# ---- state dir: the journal is the only metadata record -----------
# A budgeted upload is charged by a synchronous run and deleted, so its
# `reset` is journaled; a second upload stays. After a kill -9 the
# restarted server must keep the first gone and the second intact.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" serve --addr "$ADDR8" --workers 2 --state-dir "$TMP/sstate" &
SERVER_PID=$!
wait_healthy "$ADDR8"
# Uploads and commits the CSV text $2 (JSON-escaped) at $1 with the
# upload members $3, printing the handle.
upload_csv() {
    local ds
    ds=$(echo "{\"cmd\":\"upload\"$3}" | "$BIN" submit --addr "$1" \
        | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
    [ -n "$ds" ] || { echo "FAIL: upload refused at $1" >&2; exit 1; }
    echo "{\"cmd\":\"chunk\",\"dataset\":\"$ds\",\"data\":\"$2\"}" | "$BIN" submit --addr "$1" \
        | grep -q '"ok":true' || { echo "FAIL: chunk to $ds refused" >&2; exit 1; }
    echo "{\"cmd\":\"commit\",\"dataset\":\"$ds\"}" | "$BIN" submit --addr "$1" \
        | grep -q '"ok":true' || { echo "FAIL: commit of $ds refused" >&2; exit 1; }
    echo "$ds"
}
CHARGED=$(upload_csv "$ADDR8" 'traj_id,x,y,t\n0,1.0,2.0,3\n0,500.0,600.0,40\n1,1000.0,1200.0,5\n1,40.0,900.0,17\n' ',"eps_budget":2')
echo "{\"cmd\":\"anonymize\",\"dataset\":\"$CHARGED\",\"model\":\"purel\",\"m\":2,\"seed\":1,\"epsilon\":0.5}" \
    | "$BIN" submit --addr "$ADDR8" | grep -q '"ok":true' \
    || { echo "FAIL: charging $CHARGED refused" >&2; exit 1; }
"$BIN" delete --addr "$ADDR8" --dataset "$CHARGED" \
    || { echo "FAIL: delete of $CHARGED failed" >&2; exit 1; }
grep -q "{\"dataset\":\"$CHARGED\",\"event\":\"reset\"}" "$TMP/sstate/jobs.jsonl" \
    || { echo "FAIL: deleting the charged $CHARGED must journal a reset" >&2; exit 1; }
printf 'traj_id,x,y,t\n7,3.5,4.25,1\n7,9.0,2.0,2\n' > "$TMP/kept.csv"
KEPT=$(upload_csv "$ADDR8" 'traj_id,x,y,t\n7,3.5,4.25,1\n7,9.0,2.0,2\n' '')
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"$BIN" serve --addr "$ADDR9" --workers 2 --state-dir "$TMP/sstate" &
SERVER_PID=$!
wait_healthy "$ADDR9"
GONE=$(echo "{\"cmd\":\"download\",\"dataset\":\"$CHARGED\",\"v\":2}" | "$BIN" submit --addr "$ADDR9")
printf '%s' "$GONE" | grep -q '"code":"dataset-not-found"' \
    || { echo "FAIL: deleted $CHARGED came back after kill -9: $GONE" >&2; exit 1; }
LISTED=$(echo '{"cmd":"list","v":2}' | "$BIN" submit --addr "$ADDR9")
printf '%s' "$LISTED" | grep -q "\"dataset\":\"$CHARGED\"" \
    && { echo "FAIL: list still has a row for deleted $CHARGED: $LISTED" >&2; exit 1; }
FRESH=$(echo '{"cmd":"upload"}' | "$BIN" submit --addr "$ADDR9" \
    | grep -o '"dataset":"[^"]*"' | cut -d'"' -f4)
[ "${FRESH#ds-}" -gt "${CHARGED#ds-}" ] && [ "${FRESH#ds-}" -gt "${KEPT#ds-}" ] \
    || { echo "FAIL: new upload $FRESH must come after $CHARGED and $KEPT" >&2; exit 1; }
"$BIN" fetch --addr "$ADDR9" --dataset "$KEPT" --out "$TMP/kept-back.csv"
cmp "$TMP/kept.csv" "$TMP/kept-back.csv" \
    || { echo "FAIL: $KEPT downloads different bytes after kill -9" >&2; exit 1; }
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
# A state dir holding an older server's `datasets/ids` is refused, by name.
cp -r "$TMP/sstate" "$TMP/oldstate"
: > "$TMP/oldstate/datasets/ids"
rc=0; timeout 20 "$BIN" serve --addr "$ADDR10" --state-dir "$TMP/oldstate" \
    2> "$TMP/old-serve.err" || rc=$?
[ "$rc" != 0 ] && [ "$rc" != 124 ] \
    || { echo "FAIL: serve on an older server's state dir must exit nonzero (got $rc)" >&2; exit 1; }
grep -q "$TMP/oldstate/datasets" "$TMP/old-serve.err" \
    || { echo "FAIL: the refusal must name the directory: $(cat "$TMP/old-serve.err")" >&2; exit 1; }
# Every state dir this script ran a server on holds blobs only.
for state in state tstate bstate sstate; do
    for f in "$TMP/$state"/datasets/*; do
        [ -e "$f" ] || continue
        basename "$f" | grep -Eq '^ds-[0-9]+\.csv$' \
            || { echo "FAIL: $f is not a dataset blob" >&2; exit 1; }
    done
done

echo "smoke test passed: chunked transfer byte-identical, lifecycle at the cap OK, compacted journal replays, a deleted result id is not reissued after a second restart, v2 envelope + error codes + metrics scrape + parallel burst + exit classes OK, nested-line hostile input survived, tenant budget survives kill+restart, large result read back from the journal across a kill, a deleted charged dataset stays gone after kill -9 and an older state dir is refused"
