#!/usr/bin/env bash
# Replica-set failover smoke test, run by CI next to chaos_smoke.sh:
# two real replicas on ephemeral ports, a classify stream driven through
# the ReplicaSet client, and a SIGKILL of the preferred replica
# mid-stream. The contract:
#
#   * the client exits 0 — the stream survives the kill;
#   * `replies: N/N` — zero lost or duplicated replies;
#   * `failovers:` is nonzero — the rerouting actually happened;
#   * the survivor still answers `health` ready and serves the exact
#     same distribution as before the kill.
#
# Usage: scripts/failover_smoke.sh  (from anywhere; builds release mode)

set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p udt-serve --bin udt-serve --bin udt-client

log_a="$(mktemp)"
log_b="$(mktemp)"
out_dir="$(mktemp -d)"
cleanup() {
    for pid in "${pid_a:-}" "${pid_b:-}"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$log_a" "$log_b" "$out_dir"
}
trap cleanup EXIT

wait_for_addr() {
    # $1 = log file, $2 = pid; prints the address.
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^udt-serve listening on //p' "$1" | head -n1)"
        [ -n "$addr" ] && break
        if ! kill -0 "$2" 2>/dev/null; then
            echo "failover_smoke: server died during startup:" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "failover_smoke: server never reported its address" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$addr"
}

# Replica A: the preferred endpoint, slowed to ~2 ms per classify so the
# stream is still in flight when the SIGKILL lands. Replica B: clean.
target/release/udt-serve --addr 127.0.0.1:0 --train-toy toy \
    --faults "delay_in_worker:always:2ms" --fault-seed 3 \
    --workers 1 >"$log_a" 2>&1 &
pid_a=$!
target/release/udt-serve --addr 127.0.0.1:0 --train-toy toy \
    >"$log_b" 2>&1 &
pid_b=$!
addr_a="$(wait_for_addr "$log_a" "$pid_a")"
addr_b="$(wait_for_addr "$log_b" "$pid_b")"
echo "failover_smoke: replica A at $addr_a (slowed), replica B at $addr_b"

# Pin the expected answer against the survivor-to-be.
expected_label="$(target/release/udt-client --addr "$addr_b" classify toy --point 1.5 \
    | sed -n 's/^label: //p')"
expected_dist="$(target/release/udt-client --addr "$addr_b" classify toy --point 1.5 \
    | grep '^P(class ')"

# Stream classifies through the replica set; kill A mid-stream.
N=4000
(
    status=0
    target/release/udt-client \
        --replicas "$addr_a,$addr_b" --timeout-ms 5000 \
        classify toy --point 1.5 --repeat "$N" \
        >"$out_dir/stream.out" 2>"$out_dir/stream.err" || status=$?
    echo "$status" >"$out_dir/stream.status"
) &
stream_pid=$!

sleep 0.5
if ! kill -0 "$pid_a" 2>/dev/null; then
    echo "failover_smoke: replica A died before the kill?" >&2
    exit 1
fi
kill -9 "$pid_a"
wait "$pid_a" 2>/dev/null || true
unset pid_a
echo "failover_smoke: replica A SIGKILLed mid-stream"

wait "$stream_pid"
status="$(cat "$out_dir/stream.status")"
if [ "$status" -ne 0 ]; then
    echo "failover_smoke: stream client exited $status, wanted 0" >&2
    cat "$out_dir/stream.err" >&2
    exit 1
fi

# Zero lost or duplicated replies, and the rerouting is visible.
grep -q "^replies: $N/$N\$" "$out_dir/stream.out" || {
    echo "failover_smoke: reply accounting is off:" >&2
    cat "$out_dir/stream.out" >&2
    exit 1
}
failovers="$(sed -n 's/^failovers: //p' "$out_dir/stream.out")"
if [ -z "$failovers" ] || [ "$failovers" -lt 1 ]; then
    echo "failover_smoke: expected a nonzero failover count, got '$failovers'" >&2
    cat "$out_dir/stream.out" >&2
    exit 1
fi
echo "failover_smoke: $N/$N replies, $failovers failover(s)"

# The final answer matches the survivor's direct answer, bit for bit.
grep -q "^label: $expected_label\$" "$out_dir/stream.out"
if [ "$(grep '^P(class ' "$out_dir/stream.out")" != "$expected_dist" ]; then
    echo "failover_smoke: post-failover distribution diverged" >&2
    exit 1
fi

# The survivor is still ready (exit 0), and a probe through the replica
# set — dead endpoint first — also lands on it.
target/release/udt-client --addr "$addr_b" health >"$out_dir/health.out"
grep -q "^ready: true\$" "$out_dir/health.out"
target/release/udt-client --replicas "$addr_a,$addr_b" --timeout-ms 2000 health \
    >/dev/null

# Clean shutdown of the survivor.
target/release/udt-client --addr "$addr_b" shutdown >/dev/null
status=0
wait "$pid_b" || status=$?
unset pid_b
if [ "$status" -ne 0 ]; then
    echo "failover_smoke: survivor exited $status" >&2
    cat "$log_b" >&2
    exit 1
fi
grep -q "clean shutdown" "$log_b"
echo "failover_smoke: OK"
