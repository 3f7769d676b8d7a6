#!/usr/bin/env bash
# End-to-end serving smoke test, run by CI:
#
#   1. train a toy model and persist it (the quickstart example);
#   2. start `udt-serve` on an ephemeral loopback port, loading that
#      model file and additionally training an in-process toy model;
#   3. classify a certain (point) tuple and an uncertain (uniform-pdf)
#      tuple over the socket with `udt-client`;
#   4. check the Prometheus exposition (counters, and every histogram's
#      +Inf bucket equal to its _count);
#   5. hot-swap the disk model and check `stats` reflects the bump;
#   6. shut the server down cleanly and require a zero exit status.
#
# Usage: scripts/serve_smoke.sh  (from anywhere; builds in release mode)

set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p udt-serve --bin udt-serve --bin udt-client
cargo run --release --example quickstart >/dev/null
test -s results/table1_model.json

server_log="$(mktemp)"
cleanup() {
    if [ -n "${server_pid:-}" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
    fi
    rm -f "$server_log"
}
trap cleanup EXIT

# Port 0: the server prints the ephemeral address on stdout.
target/release/udt-serve \
    --addr 127.0.0.1:0 \
    --model disk=results/table1_model.json \
    --train-toy toy \
    --workers 2 >"$server_log" 2>&1 &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^udt-serve listening on //p' "$server_log" | head -n1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve_smoke: server died during startup:" >&2
        cat "$server_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve_smoke: server never reported its address" >&2
    cat "$server_log" >&2
    exit 1
fi
echo "serve_smoke: server at $addr"

client() {
    target/release/udt-client --addr "$addr" "$@"
}

# A certain point tuple and an uncertain uniform-pdf tuple, against both
# the disk-loaded and the in-process-trained model. (Outputs are captured
# before grepping: grep -q on a live pipe would close it early and kill
# the client with a broken pipe.)
out="$(client classify disk --point 1.5)"
echo "$out"
echo "$out" | grep -q "^label: "
out="$(client classify toy --point -2.0)"
echo "$out" | grep -q "^label: "
out="$(client classify toy --uniform -2.5,2,20)"
echo "$out"
echo "$out" | grep -q "^label: "

# Stats must list both models and the traffic we just generated.
stats_out="$(client stats)"
echo "$stats_out"
echo "$stats_out" | grep -q "model disk (gen 1)"
echo "$stats_out" | grep -q "model toy (gen 1)"
echo "$stats_out" | grep -q "traffic toy: 2 requests"

# The same counters render as a Prometheus text exposition.
prom_out="$(client stats --format prometheus)"
echo "$prom_out" | head -n 4
echo "$prom_out" | grep -q '^udt_serve_requests_total{model="toy"} 2$'
echo "$prom_out" | grep -q '^udt_serve_model_generation{model="disk"} 1$'
echo "$prom_out" | grep -q 'udt_serve_request_latency_seconds_bucket{model="toy",le="+Inf"} 2'

# Every histogram closes with a +Inf bucket equal to its _count series
# (both come from one bucket snapshot in the shared exposition writer).
inf_equals_count() { # $1 = the +Inf bucket series, $2 = the _count series
    local inf count
    inf="$(echo "$prom_out" | awk -v k="$1" '$1 == k { print $2 }')"
    count="$(echo "$prom_out" | awk -v k="$2" '$1 == k { print $2 }')"
    if [ -z "$inf" ] || [ "$inf" != "$count" ]; then
        echo "serve_smoke: $1 is '$inf' but $2 is '$count'" >&2
        exit 1
    fi
}
inf_equals_count 'udt_serve_request_latency_seconds_bucket{model="toy",le="+Inf"}' \
    'udt_serve_request_latency_seconds_count{model="toy"}'
inf_equals_count 'udt_serve_queue_wait_seconds_bucket{le="+Inf"}' \
    'udt_serve_queue_wait_seconds_count'

# Hot-swap the disk model in place and verify the generation bump.
out="$(client swap disk results/table1_model.json)"
echo "$out" | grep -q "gen 2"
stats_out="$(client stats)"
echo "$stats_out" | grep -q "model disk (gen 2)"
out="$(client classify disk --uniform -2.5,2)"
echo "$out" | grep -q "^label: "

# Clean shutdown: the client call succeeds and the server process exits 0.
# (`|| status=$?` keeps set -e from aborting before the diagnostics run.)
client shutdown
status=0
wait "$server_pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "serve_smoke: server exited with status $status" >&2
    cat "$server_log" >&2
    exit 1
fi
grep -q "clean shutdown" "$server_log"
echo "serve_smoke: OK"
