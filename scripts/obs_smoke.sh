#!/bin/sh
# obs_smoke.sh — end-to-end check of the live observability plane:
# start summit-sim with the HTTP endpoint armed, wait for the run to
# finish (it lingers for scrapes), curl /metrics and /healthz, check
# that the efficiency gauge and /debug/alerts serve the last printed
# row's eff, validate the scraped metric names against the repository
# convention with seglint -prom, and validate the /debug/attribution
# ledger's schema (buckets summing to each row's step wall) with
# seg-compare -validate.
set -eu

log=/tmp/segscale-obs-smoke.log
prom=/tmp/segscale-obs-smoke.prom
attr=/tmp/segscale-obs-smoke-attr.json
: >"$log"

go build -o /tmp/segscale-summit-sim ./cmd/summit-sim
/tmp/segscale-summit-sim -gpus 1,6 -obs-addr 127.0.0.1:0 -obs-linger 60s >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

# The resolved URL is printed once the listener is up; the completion
# marker says every scale has been simulated (gauges are final).
for _ in $(seq 1 100); do
    grep -q '^summit-sim: done$' "$log" && break
    kill -0 "$pid" 2>/dev/null || { echo "summit-sim exited early:"; cat "$log"; exit 1; }
    sleep 0.2
done
grep -q '^summit-sim: done$' "$log" || { echo "timed out waiting for summit-sim:"; cat "$log"; exit 1; }

url=$(sed -n 's/^obs: serving on //p' "$log")
[ -n "$url" ] || { echo "no obs URL in log:"; cat "$log"; exit 1; }

curl -fsS "$url/healthz" | grep -q '^ok$' || { echo "/healthz not ok"; exit 1; }
curl -fsS "$url/readyz" | grep -q '^ready$' || { echo "/readyz not ready"; exit 1; }
curl -fsS "$url/metrics" >"$prom"
grep -q '^# TYPE perfsim_step_seconds histogram' "$prom" || {
    echo "/metrics missing perfsim histogram:"; head "$prom"; exit 1; }
grep -q '^obs_scaling_efficiency_ratio' "$prom" || {
    echo "/metrics missing efficiency gauge:"; head "$prom"; exit 1; }

# One efficiency reading per scale: the gauge and /debug/alerts'
# efficiency are the last printed row's eff, to the printed digit.
eff=$(awk 'NF == 5 && $1 ~ /^[0-9]+$/ { e = $3 } END { print e }' "$log")
gauge=$(awk '/^obs_scaling_efficiency_ratio/ { printf "%.1f%%", 100 * $2 }' "$prom")
alerts=$(curl -fsS "$url/debug/alerts" |
    sed -n 's/^ *"efficiency": *\([^,]*\),*$/\1/p' | awk '{ printf "%.1f%%", 100 * $1 }')
[ -n "$eff" ] && [ "$gauge" = "$eff" ] && [ "$alerts" = "$eff" ] || {
    echo "efficiency mismatch: table $eff, /metrics $gauge, /debug/alerts $alerts"; exit 1; }

grep -q '^perfsim_step_p99_seconds' "$prom" || {
    echo "/metrics missing p99 quantile gauge:"; head "$prom"; exit 1; }
grep -q '^train_step_attribution_rows_events' "$prom" || {
    echo "/metrics missing attribution gauges:"; head "$prom"; exit 1; }

# Scraped names must satisfy the same convention the metricname pass
# enforces at registration sites.
go run ./cmd/seglint -prom "$prom"

# The live attribution snapshot must be a structurally valid ledger:
# known schema, in-range ranks, non-negative buckets that sum to each
# row's step wall within epsilon — seg-compare -validate is that gate.
curl -fsS "$url/debug/attribution" >"$attr"
go run ./cmd/seg-compare -validate "$attr"

echo "obs smoke OK ($url)"
