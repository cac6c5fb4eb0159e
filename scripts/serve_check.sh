#!/usr/bin/env bash
# serve-check: boot p10bench with the live observability server on an
# ephemeral port, probe every endpoint mid-sweep, then SIGINT the process and
# assert a controlled shutdown with atomically-written telemetry files.
#
# Run from the repository root (the `make serve-check` target does).
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d)
PID=
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "serve-check: $*" >&2
    echo "--- p10bench stderr ---" >&2
    cat "$TMP/stderr" >&2 || true
    exit 1
}

$GO build -o "$TMP/p10bench" ./cmd/p10bench
$GO build -o "$TMP/p10obscheck" ./cmd/p10obscheck

# The sampled-vs-full validation sweep runs long enough (~16s on 2 CPUs)
# that every probe below lands mid-sweep; any quick figure now finishes
# within a second, before the probes start.
"$TMP/p10bench" -sample-mode=validate -serve 127.0.0.1:0 -metrics "$TMP/metrics.json" \
    -runlog "$TMP/runlog" >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

ADDR=
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^obsserver: listening on http://||p' "$TMP/stderr")
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || fail "p10bench exited before serving"
    sleep 0.1
done
[ -n "$ADDR" ] || fail "no 'obsserver: listening on' line"

curl -sf "http://$ADDR/healthz" | grep -q '^ok$' || fail "/healthz not ok"
curl -sf "http://$ADDR/readyz" | grep -q '^ready$' || fail "/readyz not ready"
# The live Prometheus exposition must satisfy the same structural contract
# as a committed artifact: TYPE lines, escaping, sorted series, histograms.
curl -sf "http://$ADDR/metrics" | "$TMP/p10obscheck" -prom - || fail "/metrics failed -prom validation"
STATUS=$(curl -sf "http://$ADDR/status") || fail "/status fetch failed"
echo "$STATUS" | grep -q '"command": "p10bench"' || fail "/status missing command: $STATUS"
echo "$STATUS" | grep -q '"ready": true' || fail "/status not ready: $STATUS"
echo "$STATUS" | grep -q '"name": "sample-validate"' || fail "/status missing sample-validate progress: $STATUS"
echo "$STATUS" | grep -q '"go_version"' || fail "/status missing build info: $STATUS"
# The embedded dashboard must be a self-contained page: live (EventSource)
# and dependency-free (no external script/style references).
DASH=$(curl -sf "http://$ADDR/dashboard") || fail "/dashboard fetch failed"
echo "$DASH" | grep -q 'EventSource' || fail "/dashboard is not wired to /events"
if echo "$DASH" | grep -Eq 'src="https?://|href="https?://'; then
    fail "/dashboard references external resources"
fi
RUNS=$(curl -sf "http://$ADDR/runs?n=5") || fail "/runs fetch failed"
echo "$RUNS" | grep -q '"enabled": true' || fail "/runs ledger not enabled: $RUNS"

kill -INT "$PID"
for _ in $(seq 1 150); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$PID" 2>/dev/null && fail "p10bench still running 15s after SIGINT"
RC=0
wait "$PID" || RC=$?
PID=
# 0 = sweep finished before the signal landed; 1 = interrupted-sweep exit.
# Anything else (128+SIGINT default disposition, a panic) is a failed
# shutdown path.
case "$RC" in
0 | 1) ;;
*) fail "p10bench exited $RC after SIGINT" ;;
esac

# The interrupted sweep must still have written its metrics snapshot, via
# the atomic temp-file+rename path: a valid file, no temp droppings.
"$TMP/p10obscheck" -metrics "$TMP/metrics.json" || fail "metrics snapshot invalid after SIGINT"
leftover=$(find "$TMP" -name '.p10-atomic-*' | wc -l)
[ "$leftover" -eq 0 ] || fail "$leftover leftover atomic temp file(s)"

echo "serve-check: ok (addr $ADDR, shutdown exit $RC)"
