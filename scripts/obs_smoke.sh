#!/bin/sh
# obs_smoke.sh — end-to-end check of the live observability plane on
# the real trainer: start a world-2 dlv3-train run long enough to
# scrape, with the HTTP endpoint and the flight recorder armed and one
# scheduled rank crash. Once /debug/alerts lists the restart, check
# liveness and readiness, validate the scraped metric names against the
# repository convention with seglint -prom, check that neither /metrics
# nor /debug/alerts serves a scaling efficiency (a run without a 1-GPU
# baseline has none), and that /debug/flight is a Chrome trace. Then
# stop the run.
set -eu

bin=/tmp/segscale-dlv3-train
log=/tmp/segscale-obs-smoke.log
prom=/tmp/segscale-obs-smoke.prom
alerts=/tmp/segscale-obs-smoke-alerts.json
flight=/tmp/segscale-obs-smoke-flight.json
ckpt=/tmp/segscale-obs-smoke.segc
: >"$log"
rm -f "$ckpt"

go build -o "$bin" ./cmd/dlv3-train
"$bin" -world 2 -batch 2 -train 8 -eval 8 -epochs 400 -ckpt "$ckpt" \
    -chaos-plan "crash=1@5" -obs-addr 127.0.0.1:0 -flight "$flight" >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

# The resolved URL is printed once the listener is up; the restart
# alert says the crash has been recovered into incarnation 1.
url=
for _ in $(seq 1 150); do
    kill -0 "$pid" 2>/dev/null || { echo "dlv3-train exited early:"; cat "$log"; exit 1; }
    [ -n "$url" ] || url=$(sed -n 's/^obs: serving on //p' "$log")
    if [ -n "$url" ] && curl -fsS "$url/debug/alerts" >"$alerts" 2>/dev/null &&
        grep -q '"kind": "restart"' "$alerts"; then
        break
    fi
    sleep 0.2
done
grep -q '"kind": "restart"' "$alerts" 2>/dev/null || {
    echo "timed out waiting for the restart alert:"; cat "$log"; exit 1; }

curl -fsS "$url/healthz" >"$log.healthz"
grep -q '^ok$' "$log.healthz" && grep -q '^world: size=2 incarnation=1$' "$log.healthz" || {
    echo "/healthz not ok after the restart:"; cat "$log.healthz"; exit 1; }
curl -fsS "$url/readyz" | grep -q '^ready$' || { echo "/readyz not ready"; exit 1; }

curl -fsS "$url/metrics" >"$prom"
grep -q '^obs_alerts_total{lane="obs"} 1$' "$prom" || {
    echo "/metrics does not count the restart alert:"; grep '^obs_' "$prom"; exit 1; }
if grep -q 'efficiency' "$prom"; then
    echo "/metrics serves an efficiency for a run without a baseline:"; grep 'efficiency' "$prom"; exit 1
fi
# Scraped names must satisfy the same convention the metricname pass
# enforces at registration sites.
go run ./cmd/seglint -prom "$prom"

if grep -q '"efficiency"' "$alerts"; then
    echo "/debug/alerts serves an efficiency for a run without a baseline:"; cat "$alerts"; exit 1
fi

curl -fsS "$url/debug/flight" >"$flight.live"
[ "$(head -c 1 "$flight.live")" = "[" ] && grep -q '"ph":"X"' "$flight.live" || {
    echo "/debug/flight is not a Chrome trace:"; head -c 300 "$flight.live"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
echo "obs smoke OK ($url)"
