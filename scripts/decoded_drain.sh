#!/usr/bin/env bash
# Online decode service integration check: boot decoded, prove committed
# corrections are bit-identical to the offline decode stack, replay the
# chaos client plans (torn stream, mid-stream disconnect, hung client)
# against it and pin the degradation counters, then SIGTERM it with a
# client mid-stream and require a clean drain — every fully received
# window flushed, the stream closed with a drained trailer, exit 0 —
# plus a CRC-framed latency log that reads back clean.
set -euo pipefail

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/decoded" ./cmd/decoded

# Shared circuit flags: client and server must agree (enforced by the
# configuration fingerprint on every stream).
args=(-d 3 -p 5e-3 -seed 11)

# wait_for_addr SERVER_STDERR: echo the announced listen address. The
# backgrounded server opens its stderr file itself, so the file may not
# exist yet on the first tries.
wait_for_addr() {
    local addr=""
    for _ in $(seq 1 100); do
        if [ -f "$1" ]; then
            addr="$(sed -n 's/^decoded: serving on \([^ ]*\).*/\1/p' "$1" | head -n1)"
        fi
        [ -n "$addr" ] && break
        sleep 0.1
    done
    echo "$addr"
}

# statz URL FIELD: extract one integer counter from /statz.
statz() {
    curl -s "$1/statz" | sed -n "s/.*\"$2\":\([0-9-]*\).*/\1/p"
}

echo "== boot"
"$work/decoded" "${args[@]}" -listen 127.0.0.1:0 -latlog "$work/latency.jsonl" \
    2>"$work/server.err" &
spid=$!
addr="$(wait_for_addr "$work/server.err")"
if [ -z "$addr" ]; then
    echo "FAIL: decoded never announced its address" >&2
    cat "$work/server.err" >&2
    exit 1
fi
url="http://$addr"
echo "   serving on $addr"
if ! curl -s "$url/healthz" | grep -q ok; then
    echo "FAIL: healthz not ok" >&2
    exit 1
fi

echo "== healthy stream, bit-identity vs offline decode"
"$work/decoded" "${args[@]}" -connect "$url" -shots 64 -verify >"$work/healthy.txt"
if ! grep -q "verify: 64/64 corrections bit-identical to offline decode" "$work/healthy.txt"; then
    echo "FAIL: bit-identity verification failed:" >&2
    cat "$work/healthy.txt" >&2
    exit 1
fi
echo "OK: 64/64 corrections bit-identical to offline decode"

echo "== chaos clients: torn, disconnect, hang"
"$work/decoded" "${args[@]}" -connect "$url" -shots 8 -chaos torn >"$work/torn.txt"
grep -q "torn stream" "$work/torn.txt" || { echo "FAIL: no torn verdict"; cat "$work/torn.txt"; exit 1; }
"$work/decoded" "${args[@]}" -connect "$url" -shots 8 -chaos disconnect >"$work/disc.txt"
grep -q "torn stream" "$work/disc.txt" || { echo "FAIL: no disconnect verdict"; cat "$work/disc.txt"; exit 1; }
# The hang client needs the server's read deadline to cut it off; the
# suite keeps the default 30s for production realism, so this leg runs
# it against a second server with a short -read-timeout.
"$work/decoded" "${args[@]}" -listen 127.0.0.1:0 -read-timeout 1s 2>"$work/server2.err" &
spid2=$!
addr2="$(wait_for_addr "$work/server2.err")"
[ -n "$addr2" ] || { echo "FAIL: second decoded never announced"; exit 1; }
"$work/decoded" "${args[@]}" -connect "http://$addr2" -shots 4 -chaos hang >"$work/hang.txt"
grep -q "hung client" "$work/hang.txt" || { echo "FAIL: no hung verdict"; cat "$work/hang.txt"; exit 1; }
grep -q "1 results ok=1" "$work/hang.txt" || { echo "FAIL: hung client's completed window not flushed"; cat "$work/hang.txt"; exit 1; }
kill -TERM "$spid2"; wait "$spid2"

# Golden counters on the first server: 3 streams (healthy + torn +
# disconnect), 2 torn, and with rounds_per_window=4 at d=3:
# healthy 64 windows + torn 7 + disconnect 7 = 78 committed windows,
# torn leg drops 1 round of its cut window.
for check in "streams:3" "streams_torn:2" "hung_clients:0" "windows:78" \
    "committed_rounds:312" "dropped_rounds:1" "shed_rounds:0" \
    "timeout_rounds:0" "failed_rounds:0" "decode_errors:0"; do
    field="${check%%:*}"; want="${check##*:}"
    got="$(statz "$url" "$field")"
    if [ "$got" != "$want" ]; then
        echo "FAIL: /statz $field = $got, want $want" >&2
        curl -s "$url/statz" >&2; echo >&2
        exit 1
    fi
done
echo "OK: degradation counters match the golden plan"

echo "== SIGTERM drains with a client mid-stream"
# A hang client parks mid-stream (window 0 sent in full, then silence);
# the drain must abort its read, flush window 0, and close the stream
# with a drained trailer — the client sees exactly one ok result.
"$work/decoded" "${args[@]}" -connect "$url" -shots 4 -chaos hang >"$work/drain-client.txt" &
hpid=$!
sleep 1
kill -TERM "$spid"
deadline=$((SECONDS + 20))
while kill -0 "$spid" 2>/dev/null; do
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: drain did not finish within 20s" >&2
        kill -9 "$spid" 2>/dev/null
        exit 1
    fi
    sleep 0.1
done
set +e
wait "$spid"; sstatus=$?
wait "$hpid"; hstatus=$?
set -e
if [ "$sstatus" -ne 0 ]; then
    echo "FAIL: drained server exited $sstatus, want 0" >&2
    cat "$work/server.err" >&2
    exit 1
fi
if [ "$hstatus" -ne 0 ]; then
    echo "FAIL: mid-stream client exited $hstatus during drain" >&2
    cat "$work/drain-client.txt" >&2
    exit 1
fi
grep -q "1 results ok=1 drained" "$work/drain-client.txt" || {
    echo "FAIL: drained client did not get its flushed window + drained trailer:" >&2
    cat "$work/drain-client.txt" >&2
    exit 1
}
grep -q "decoded: drained; all completed windows were flushed" "$work/server.err" || {
    echo "FAIL: server did not report a clean drain:" >&2
    cat "$work/server.err" >&2
    exit 1
}
# Zero lost committed rounds: the final snapshot the server printed must
# show committed = 312 (pre-drain) + 4 (the drain client's window 0).
grep -q "committed=316" "$work/server.err" || {
    echo "FAIL: final stats lost committed rounds:" >&2
    grep "final stats" "$work/server.err" >&2
    exit 1
}
echo "OK: drain flushed the in-flight window, zero committed rounds lost"

echo "== latency log reads back clean"
if [ ! -s "$work/latency.jsonl" ]; then
    echo "FAIL: no latency log written" >&2
    exit 1
fi
# 79 windows decoded = 79 framed records, each with a valid CRC envelope.
lines="$(wc -l <"$work/latency.jsonl")"
if [ "$lines" -ne 79 ]; then
    echo "FAIL: latency log has $lines records, want 79" >&2
    exit 1
fi
if ! grep -q '"v":2,"crc":' "$work/latency.jsonl"; then
    echo "FAIL: latency log is not CRC-framed" >&2
    head -2 "$work/latency.jsonl" >&2
    exit 1
fi
echo "OK: latency log carries 79 framed samples"

echo "== second signal must force-exit (130) or lose the race to a clean drain (0)"
# With no streams the drain is nearly instant, so the two signals race
# the orderly exit; both outcomes are legal, but a forced exit must
# announce itself and carry the interrupted status. (The deterministic
# double-signal wedge test lives in crash_resume.sh, where cmd/ber's
# -linger provides an uninterruptible teardown.)
"$work/decoded" "${args[@]}" -listen 127.0.0.1:0 2>"$work/server3.err" &
spid3=$!
addr3="$(wait_for_addr "$work/server3.err")"
[ -n "$addr3" ] || { echo "FAIL: third decoded never announced"; exit 1; }
kill -TERM "$spid3"
sleep 0.2
kill -TERM "$spid3" 2>/dev/null || true
deadline=$((SECONDS + 10))
while kill -0 "$spid3" 2>/dev/null; do
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: doubly-signalled decoded still alive after 10s" >&2
        kill -9 "$spid3" 2>/dev/null
        exit 1
    fi
    sleep 0.1
done
set +e
wait "$spid3"; status=$?
set -e
case "$status" in
130)
    grep -q "second signal; forcing exit" "$work/server3.err" || {
        echo "FAIL: forced exit did not announce itself:" >&2
        cat "$work/server3.err" >&2
        exit 1
    }
    ;;
0)
    grep -q "decoded: drained" "$work/server3.err" || {
        echo "FAIL: clean exit without a drain report:" >&2
        cat "$work/server3.err" >&2
        exit 1
    }
    ;;
*)
    echo "FAIL: double SIGTERM exited $status, want 130 (forced) or 0 (drain won the race)" >&2
    cat "$work/server3.err" >&2
    exit 1
    ;;
esac
echo "OK: second signal handled (exit $status)"

echo "ALL OK: online decode service drains cleanly with bit-identical corrections"
